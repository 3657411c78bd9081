"""Seeded, composable fault-injection plans.

The fault plane separates *what goes wrong* from *when the simulator learns
about it*.  Every stochastic choice — which machine fails, when it recovers,
which rack loses power, which burst cluster gets its spot capacity revoked —
is made **here, at compile time**, from one dedicated fault seed.  The
:class:`~repro.faults.injector.FaultInjector` merely replays the precompiled
timeline as ordinary engine events, so:

* runs are bit-reproducible under a fixed seed (no random draw ever happens
  inside the event loop, where execution order could perturb the stream);
* the plan is independent of the execution regime — fast-forward on or off
  sees the identical injection times, exactly like the explicit
  ``failure_points`` a scenario preset declares;
* plans are inspectable and testable without running a simulation.

Five failure processes compose freely (any subset may be enabled):

``machine-fail`` / ``machine-recover``
    Per-machine alternating renewal process: exponential time-to-failure
    (``machine_mtbf_s``) followed by exponential repair (``machine_mttr_s``).
    Unlike the one-shot ``failure_points``, failed machines come *back*.
``outage-start`` / ``outage-end``
    Correlated failure domains: a whole cluster (rack/zone) drops cold at
    once and its in-flight work must evacuate to the survivors.
``straggler-start`` / ``straggler-end``
    Persistent slow machines: a multiplicative latency factor applied
    through the performance model — distinct from power caps, and surviving
    fail/recover cycles (slow hardware stays slow).
``kv-degrade-start`` / ``kv-degrade-end``
    Interconnect brown-outs: a window during which every *newly scheduled*
    KV-cache transfer in a cluster takes ``kv_degradation_factor`` times
    longer (in-flight transfers keep their already-committed latency).
``revoke``
    Spot-capacity revocation: a burst cluster is ripped away mid-run even
    while ACTIVE, evacuating its work to the rest of the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

INJECTION_KINDS = (
    "machine-fail",
    "machine-recover",
    "outage-start",
    "outage-end",
    "straggler-start",
    "straggler-end",
    "kv-degrade-start",
    "kv-degrade-end",
    "revoke",
)


@dataclass(frozen=True, slots=True)
class Injection:
    """One precompiled fault event.

    Attributes:
        time_s: Injection time in seconds from trace start.
        kind: One of :data:`INJECTION_KINDS`.
        target: Machine name (``cluster-0/prompt-1``) for machine-scoped
            kinds, cluster name (``cluster-0``) otherwise.
        factor: Multiplicative severity for straggler / KV-degradation
            kinds (ignored by the others).
    """

    time_s: float
    kind: str
    target: str
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in INJECTION_KINDS:
            raise ValueError(f"unknown injection kind {self.kind!r}; known: {INJECTION_KINDS}")
        if self.time_s < 0:
            raise ValueError(f"injection time must be >= 0, got {self.time_s}")


@dataclass(frozen=True)
class FaultTopology:
    """The fleet shape a fault plan is compiled against.

    Attributes:
        machines: Cluster name -> that cluster's machine names, in the
            cluster's own deterministic construction order.
        burst_clusters: Clusters holding revocable (spot) capacity —
            only these can receive ``revoke`` injections.
    """

    machines: Mapping[str, tuple[str, ...]]
    burst_clusters: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = [name for name in self.burst_clusters if name not in self.machines]
        if unknown:
            raise ValueError(
                f"burst clusters {unknown} not in topology; known: {sorted(self.machines)}"
            )


@dataclass(frozen=True)
class FaultPlanConfig:
    """Knobs for the five stochastic failure processes.

    Every process is disabled until its rate/interval knob is set, so a
    default-constructed config compiles to an empty plan and costs nothing.

    Attributes:
        seed: Dedicated fault seed — independent of the trace seed, so the
            same workload can be replayed under different failure draws.
        machine_mtbf_s: Mean time between failures per machine (exponential).
        machine_mttr_s: Mean time to repair per failed machine (exponential;
            defaults to a quarter of the MTBF when failures are enabled).
        outage_interval_s: Mean gap between correlated whole-cluster outages.
        outage_duration_s: Fixed outage length.
        straggler_interval_s: Mean onset time of a persistent straggler per
            machine (one onset per machine at most).
        straggler_duration_s: Optional straggler length; ``None`` means the
            machine stays slow for the rest of the run.
        straggler_slowdown: Latency multiplier applied to a straggler's
            performance model (> 1).
        kv_degradation_interval_s: Mean gap between KV-transfer brown-out
            windows per cluster.
        kv_degradation_duration_s: Fixed brown-out window length.
        kv_degradation_factor: Visible KV-transfer latency multiplier during
            a brown-out (>= 1).
        revocation_mtbf_s: Mean time until a burst cluster's spot capacity
            is revoked (at most one revocation per burst cluster).
    """

    seed: int = 0
    machine_mtbf_s: float | None = None
    machine_mttr_s: float | None = None
    outage_interval_s: float | None = None
    outage_duration_s: float = 10.0
    straggler_interval_s: float | None = None
    straggler_duration_s: float | None = None
    straggler_slowdown: float = 1.5
    kv_degradation_interval_s: float | None = None
    kv_degradation_duration_s: float = 10.0
    kv_degradation_factor: float = 2.0
    revocation_mtbf_s: float | None = None

    def __post_init__(self) -> None:
        for name in (
            "machine_mtbf_s",
            "machine_mttr_s",
            "outage_interval_s",
            "straggler_interval_s",
            "straggler_duration_s",
            "kv_degradation_interval_s",
            "revocation_mtbf_s",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.outage_duration_s <= 0:
            raise ValueError(f"outage_duration_s must be > 0, got {self.outage_duration_s}")
        if self.kv_degradation_duration_s <= 0:
            raise ValueError(
                f"kv_degradation_duration_s must be > 0, got {self.kv_degradation_duration_s}"
            )
        if self.straggler_slowdown <= 1.0:
            raise ValueError(f"straggler_slowdown must be > 1, got {self.straggler_slowdown}")
        if self.kv_degradation_factor < 1.0:
            raise ValueError(
                f"kv_degradation_factor must be >= 1, got {self.kv_degradation_factor}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any failure process is configured."""
        return any(
            getattr(self, name) is not None
            for name in (
                "machine_mtbf_s",
                "outage_interval_s",
                "straggler_interval_s",
                "kv_degradation_interval_s",
                "revocation_mtbf_s",
            )
        )


def compile_fault_plan(
    config: FaultPlanConfig, topology: FaultTopology, duration_s: float
) -> tuple[Injection, ...]:
    """Compile every stochastic injection into one time-sorted tuple.

    The sampling order is fixed — process by process, clusters in sorted
    name order, machines in topology order — so the plan depends only on
    ``(config, topology, duration_s)`` and never on how the simulation that
    replays it is executed.

    Onsets are sampled within ``[0, duration_s)``; paired recovery/end
    events may land past the horizon (they fire during drain, where they
    are harmless — the work they would have interrupted is already done).
    """
    if duration_s <= 0 or not config.enabled:
        return ()
    rng = np.random.default_rng(config.seed)
    clusters = sorted(topology.machines)
    injections: list[Injection] = []

    if config.machine_mtbf_s is not None:
        mtbf = config.machine_mtbf_s
        mttr = config.machine_mttr_s if config.machine_mttr_s is not None else mtbf * 0.25
        for cluster in clusters:
            for machine in topology.machines[cluster]:
                t = float(rng.exponential(mtbf))
                while t < duration_s:
                    injections.append(Injection(t, "machine-fail", machine))
                    recover = t + float(rng.exponential(mttr))
                    injections.append(Injection(recover, "machine-recover", machine))
                    t = recover + float(rng.exponential(mtbf))

    if config.outage_interval_s is not None:
        for cluster in clusters:
            t = float(rng.exponential(config.outage_interval_s))
            while t < duration_s:
                end = t + config.outage_duration_s
                injections.append(Injection(t, "outage-start", cluster))
                injections.append(Injection(end, "outage-end", cluster))
                t = end + float(rng.exponential(config.outage_interval_s))

    if config.straggler_interval_s is not None:
        for cluster in clusters:
            for machine in topology.machines[cluster]:
                onset = float(rng.exponential(config.straggler_interval_s))
                if onset < duration_s:
                    injections.append(
                        Injection(onset, "straggler-start", machine, config.straggler_slowdown)
                    )
                    if config.straggler_duration_s is not None:
                        injections.append(
                            Injection(onset + config.straggler_duration_s, "straggler-end", machine)
                        )

    if config.kv_degradation_interval_s is not None:
        for cluster in clusters:
            t = float(rng.exponential(config.kv_degradation_interval_s))
            while t < duration_s:
                end = t + config.kv_degradation_duration_s
                injections.append(
                    Injection(t, "kv-degrade-start", cluster, config.kv_degradation_factor)
                )
                injections.append(Injection(end, "kv-degrade-end", cluster))
                t = end + float(rng.exponential(config.kv_degradation_interval_s))

    if config.revocation_mtbf_s is not None:
        for cluster in sorted(topology.burst_clusters):
            t = float(rng.exponential(config.revocation_mtbf_s))
            if t < duration_s:
                injections.append(Injection(t, "revoke", cluster))

    injections.sort(key=lambda inj: (inj.time_s, inj.kind, inj.target))
    return tuple(injections)


def plan_counts(plan: tuple[Injection, ...]) -> dict[str, int]:
    """Per-kind injection counts (JSON-friendly provenance)."""
    counts: dict[str, int] = {}
    for injection in plan:
        counts[injection.kind] = counts.get(injection.kind, 0) + 1
    return counts
