"""Time-varying traffic: non-stationary arrival processes and named scenarios.

The paper's cluster-level scheduler earns its keep on *time-varying* traffic:
machines are re-purposed between the prompt, token, and mixed pools as load
shifts, which is how Splitwise absorbs bursty or diurnal traffic without
over-provisioning for the peak (§IV-A).  The stationary Poisson process
in :mod:`repro.workload.arrival` cannot exercise that behavior, so
this module adds:

* **Non-stationary arrival processes** — :class:`PiecewiseRateArrival`
  (piecewise-constant rate schedule), :class:`SinusoidalDiurnalArrival`
  (smooth diurnal swing, generated by Lewis–Shedler thinning), and
  :class:`MarkovModulatedArrival` (a two-state MMPP whose burst state models
  traffic storms).  All are exact inhomogeneous-Poisson generators and fully
  deterministic under a seed.
* **Trace composition** — :func:`mix_traces` superposes two traces (e.g. a
  coding tenant overlaid on a conversation tenant).
* **Named scenario presets** — ``diurnal``, ``burst-storm``,
  ``failure-under-load``, and ``mixed-tenant``: each bundles a trace builder,
  a statically provisioned (peak-sized) cluster design, and optional failure
  injections, so the CLI, experiments, and benchmarks all run the same
  reproducible scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.workload.arrival import ArrivalProcess, homogeneous_poisson_times
from repro.workload.distributions import get_workload
from repro.workload.generator import TraceGenerator
from repro.workload.trace import RequestDescriptor, Trace


def _poisson_segment(
    rng: np.random.Generator, rate_rps: float, start_s: float, end_s: float
) -> np.ndarray:
    """Homogeneous-Poisson arrivals in ``[start_s, end_s)`` at ``rate_rps``.

    Because the Poisson process is memoryless, an inhomogeneous process with
    a piecewise-constant rate is exactly the concatenation of independent
    homogeneous segments, each sampled with the stationary kernel.
    """
    times = homogeneous_poisson_times(rng, rate_rps, end_s - start_s)
    return start_s + times if times.size else times


@dataclass(frozen=True)
class PiecewiseRateArrival(ArrivalProcess):
    """Inhomogeneous Poisson arrivals with a piecewise-constant rate schedule.

    Attributes:
        schedule: ``(duration_s, rate_rps)`` segments, applied in order.  A
            trace longer than the schedule cycles back to the first segment
            (so one "day" of segments describes any number of days).
    """

    schedule: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.schedule:
            raise ValueError("schedule must have at least one (duration_s, rate_rps) segment")
        for duration, rate in self.schedule:
            if duration <= 0:
                raise ValueError(f"segment durations must be positive, got {duration}")
            if rate < 0:
                raise ValueError(f"segment rates must be non-negative, got {rate}")

    @property
    def cycle_s(self) -> float:
        """Length of one full pass through the schedule."""
        return sum(duration for duration, _ in self.schedule)

    @property
    def rate_rps(self) -> float:  # type: ignore[override]
        """Time-weighted average rate over one schedule cycle."""
        return sum(duration * rate for duration, rate in self.schedule) / self.cycle_s

    def expected_requests(self, duration_s: float) -> float:
        """Integral of the rate schedule over ``[0, duration_s)``."""
        total = 0.0
        start = 0.0
        index = 0
        segments = self.schedule
        while start < duration_s:
            seg_duration, rate = segments[index % len(segments)]
            window = min(seg_duration, duration_s - start)
            total += rate * window
            start += seg_duration
            index += 1
        return total

    def arrival_times(self, rng: np.random.Generator, duration_s: float) -> np.ndarray:
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        pieces = []
        start = 0.0
        index = 0
        segments = self.schedule
        while start < duration_s:
            seg_duration, rate = segments[index % len(segments)]
            end = min(start + seg_duration, duration_s)
            pieces.append(_poisson_segment(rng, rate, start, end))
            start += seg_duration
            index += 1
        if not pieces:
            return np.empty(0, dtype=float)
        return np.concatenate(pieces)


@dataclass(frozen=True)
class SinusoidalDiurnalArrival(ArrivalProcess):
    """Smooth diurnal traffic: ``rate(t) = base + amplitude * sin(2πt/period + phase)``.

    Generated by Lewis–Shedler thinning: candidates are drawn from a
    homogeneous process at the peak rate and accepted with probability
    ``rate(t) / peak``, which is an exact inhomogeneous-Poisson sampler.

    Attributes:
        base_rps: Mean arrival rate.
        amplitude_rps: Swing around the mean (must not exceed ``base_rps``,
            or the rate would go negative).
        period_s: Length of one "day" in trace seconds (real diurnal cycles
            are compressed so a day fits in a simulable window).
        phase: Phase offset in radians (0 starts at the mean, rising).
    """

    base_rps: float
    amplitude_rps: float
    period_s: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rps <= 0:
            raise ValueError(f"base_rps must be positive, got {self.base_rps}")
        if not 0 <= self.amplitude_rps <= self.base_rps:
            raise ValueError(
                f"amplitude_rps must be in [0, base_rps], got {self.amplitude_rps} vs {self.base_rps}"
            )
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")

    @property
    def rate_rps(self) -> float:  # type: ignore[override]
        """Average rate (the sinusoid integrates to its base over full periods)."""
        return self.base_rps

    def rate_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Instantaneous arrival rate at trace time ``t``."""
        return self.base_rps + self.amplitude_rps * np.sin(2.0 * math.pi * t / self.period_s + self.phase)

    def expected_requests(self, duration_s: float) -> float:
        """Integral of the rate over ``[0, duration_s)`` (closed form)."""
        omega = 2.0 * math.pi / self.period_s
        return self.base_rps * duration_s + (self.amplitude_rps / omega) * (
            math.cos(self.phase) - math.cos(omega * duration_s + self.phase)
        )

    def arrival_times(self, rng: np.random.Generator, duration_s: float) -> np.ndarray:
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        peak = self.base_rps + self.amplitude_rps
        candidates = _poisson_segment(rng, peak, 0.0, duration_s)
        if candidates.size == 0:
            return candidates
        accept = rng.uniform(size=candidates.size) * peak < self.rate_at(candidates)
        return candidates[accept]


@dataclass(frozen=True)
class MarkovModulatedArrival(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (burst storms).

    The process alternates between a *base* state and a *burst* state with
    exponentially distributed dwell times; within each state arrivals are
    Poisson at that state's rate.  This is the classic MMPP(2) traffic model
    for flash crowds: long quiet stretches punctuated by short intense
    storms.

    Attributes:
        base_rps: Arrival rate in the quiet state.
        burst_rps: Arrival rate in the storm state.
        mean_base_dwell_s: Mean sojourn in the quiet state.
        mean_burst_dwell_s: Mean sojourn in the storm state.
        start_in_burst: Whether the trace opens mid-storm.
    """

    base_rps: float
    burst_rps: float
    mean_base_dwell_s: float
    mean_burst_dwell_s: float
    start_in_burst: bool = False

    def __post_init__(self) -> None:
        if self.base_rps < 0 or self.burst_rps <= 0:
            raise ValueError("rates must be non-negative (burst_rps positive)")
        if self.mean_base_dwell_s <= 0 or self.mean_burst_dwell_s <= 0:
            raise ValueError("mean dwell times must be positive")

    @property
    def rate_rps(self) -> float:  # type: ignore[override]
        """Stationary average rate (dwell-time-weighted mix of the two states)."""
        total = self.mean_base_dwell_s + self.mean_burst_dwell_s
        return (self.base_rps * self.mean_base_dwell_s + self.burst_rps * self.mean_burst_dwell_s) / total

    def arrival_times(self, rng: np.random.Generator, duration_s: float) -> np.ndarray:
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        pieces = []
        start = 0.0
        in_burst = self.start_in_burst
        while start < duration_s:
            mean_dwell = self.mean_burst_dwell_s if in_burst else self.mean_base_dwell_s
            dwell = rng.exponential(mean_dwell)
            end = min(start + dwell, duration_s)
            rate = self.burst_rps if in_burst else self.base_rps
            pieces.append(_poisson_segment(rng, rate, start, end))
            start += dwell
            in_burst = not in_burst
        if not pieces:
            return np.empty(0, dtype=float)
        return np.concatenate(pieces)


# -- trace composition --------------------------------------------------------------


def _renumbered(requests: Sequence[RequestDescriptor]) -> tuple[RequestDescriptor, ...]:
    """Re-id a time-sorted request sequence 0..n-1 (trace ids must be unique).

    Only the id changes: every other descriptor field — the tenant tag and
    both deadlines included — survives composition.  A field-by-field
    rebuild once silently dropped that metadata, so this one passes all
    seven fields, and ``test_workload.py`` checks that each survives.  It
    builds each descriptor directly rather than through
    :meth:`RequestDescriptor.replace`, which costs ~4x as much per request.
    """
    ordered = sorted(requests, key=attrgetter("arrival_time_s"))
    return tuple(
        RequestDescriptor(
            i, r.arrival_time_s, r.prompt_tokens, r.output_tokens, r.tenant,
            r.ttft_deadline_s, r.e2e_deadline_s,
        )
        for i, r in enumerate(ordered)
    )


def mix_traces(first: Trace, second: Trace) -> Trace:
    """Superpose two traces arriving over the same window (multi-tenant mix)."""
    return Trace(
        requests=_renumbered(list(first.requests) + list(second.requests)),
        name=f"{first.name}|{second.name}",
        metadata={"composed": "mix", "parts": [first.name, second.name]},
    )


# -- named scenario presets ----------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible time-varying traffic scenario.

    Attributes:
        name: Preset name (CLI ``--preset`` key).
        description: One-line description of the traffic shape.
        workload: Token-size workload name driving request shapes.
        duration_s: Trace window at ``scale=1``.
        num_prompt: Statically provisioned (peak-sized) prompt machines at
            ``scale=1`` — the baseline the autoscaler is compared against.
        num_token: Statically provisioned token machines at ``scale=1``.
        build_arrival: ``scale -> ArrivalProcess`` factory (rates scale with
            the machine counts so pressure per machine is scale-invariant).
        failure_points: ``(time_fraction, machine_name)`` machine failures to
            inject, as fractions of the trace duration.
        tenant: Tenant tag of the base trace (defaults to the workload name).
            Tenant assignment happens at trace generation — not inside any
            preset — so composed and replayed traces keep their tags (see
            :class:`repro.workload.generator.TraceGenerator`).
        compose_with: Optional second tenant mixed in: ``(workload, scale ->
            ArrivalProcess)``; its requests are tagged with that workload
            name as their tenant.
        autoscaler_overrides: Per-preset keyword overrides for
            :class:`~repro.core.autoscaler.AutoscalerConfig` (kept as a plain
            mapping so the workload layer stays import-free of the core
            layer) — e.g. burst scenarios need a faster control loop than the
            default.
        chaos: Default chaos preset name for fleet runs of this scenario
            (see :data:`repro.faults.presets.CHAOS_PRESETS`; kept as a plain
            name so the workload layer stays import-free of the fault
            plane).  ``None`` = no stochastic faults.
    """

    name: str
    description: str
    workload: str
    duration_s: float
    num_prompt: int
    num_token: int
    build_arrival: Callable[[float], ArrivalProcess] = field(repr=False)
    tenant: str | None = None
    failure_points: tuple[tuple[float, str], ...] = ()
    compose_with: tuple[str, Callable[[float], ArrivalProcess]] | None = field(default=None, repr=False)
    autoscaler_overrides: Mapping[str, float] | None = None
    chaos: str | None = None

    def machine_counts(self, scale: float = 1.0) -> tuple[int, int]:
        """Statically provisioned ``(num_prompt, num_token)`` at ``scale``."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return max(1, round(self.num_prompt * scale)), max(1, round(self.num_token * scale))

    def build_trace(self, seed: int = 0, scale: float = 1.0) -> Trace:
        """Generate the scenario trace, deterministic under ``seed``."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        generator = TraceGenerator(
            workload=get_workload(self.workload),
            arrival=self.build_arrival(scale),
            seed=seed,
            tenant=self.tenant or self.workload,
        )
        trace = generator.generate(self.duration_s)
        if self.compose_with is not None:
            tenant_workload, tenant_arrival = self.compose_with
            tenant = TraceGenerator(
                workload=get_workload(tenant_workload),
                arrival=tenant_arrival(scale),
                seed=seed + 1,
                tenant=tenant_workload,
            ).generate(self.duration_s)
            trace = mix_traces(trace, tenant)
        return Trace(
            requests=trace.requests,
            name=f"{self.name}-seed{seed}",
            metadata={**trace.metadata, "scenario": self.name, "seed": seed, "scale": scale},
        )

    def failures(self, scale: float = 1.0) -> tuple[tuple[float, str], ...]:
        """Concrete ``(time_s, machine_name)`` failure injections."""
        del scale  # machine names are scale-independent (low-indexed machines)
        return tuple((fraction * self.duration_s, name) for fraction, name in self.failure_points)


def _diurnal_arrival(scale: float) -> ArrivalProcess:
    # Peak ~5.4 rps/scale stresses the 3P+2T preset cluster; the trough idles
    # most of it, which is what the autoscaler converts into machine-hours.
    return SinusoidalDiurnalArrival(
        base_rps=3.0 * scale, amplitude_rps=2.4 * scale, period_s=120.0, phase=-math.pi / 2
    )


def _burst_arrival(scale: float) -> ArrivalProcess:
    return MarkovModulatedArrival(
        base_rps=1.5 * scale,
        burst_rps=18.0 * scale,
        mean_base_dwell_s=25.0,
        mean_burst_dwell_s=5.0,
    )


def _ramp_arrival(scale: float) -> ArrivalProcess:
    return PiecewiseRateArrival(
        schedule=((40.0, 2.0 * scale), (40.0, 6.0 * scale), (40.0, 3.0 * scale))
    )


def _mixed_tenant_base(scale: float) -> ArrivalProcess:
    return SinusoidalDiurnalArrival(
        base_rps=2.0 * scale, amplitude_rps=1.5 * scale, period_s=120.0, phase=-math.pi / 2
    )


def _mixed_tenant_overlay(scale: float) -> ArrivalProcess:
    # The coding tenant peaks half a day out of phase with the conversation
    # tenant, so pool pressure swings between prompt-heavy and token-heavy.
    return SinusoidalDiurnalArrival(
        base_rps=1.5 * scale, amplitude_rps=1.2 * scale, period_s=120.0, phase=math.pi / 2
    )


def _storm_base(scale: float) -> ArrivalProcess:
    # A sustained plateau well above two clusters' comfortable capacity:
    # with machines failing and racks going out underneath it, the fleet's
    # outstanding count climbs until admission control starts shedding.
    return PiecewiseRateArrival(
        schedule=((30.0, 3.0 * scale), (60.0, 12.0 * scale), (30.0, 3.0 * scale))
    )


def _storm_overlay(scale: float) -> ArrivalProcess:
    # The high-priority conversation tenant rides the same window at a
    # steady rate; admission control should shed it last.
    return SinusoidalDiurnalArrival(
        base_rps=1.5 * scale, amplitude_rps=0.5 * scale, period_s=120.0, phase=-math.pi / 2
    )


SCENARIO_PRESETS: Mapping[str, Scenario] = {
    "diurnal": Scenario(
        name="diurnal",
        description="compressed day/night sinusoid: peak near cluster capacity, deep trough",
        workload="conversation",
        duration_s=240.0,
        num_prompt=3,
        num_token=2,
        build_arrival=_diurnal_arrival,
    ),
    "burst-storm": Scenario(
        name="burst-storm",
        description="MMPP flash crowds: quiet baseline punctuated by ~12x storms",
        workload="conversation",
        duration_s=150.0,
        num_prompt=3,
        num_token=2,
        build_arrival=_burst_arrival,
        # Storms dwell ~5s: the control loop must react within one storm, and
        # the quiet stretches are too short to park machines without eating
        # the next storm's E2E tail — this preset re-purposes only.
        autoscaler_overrides={
            "interval_s": 2.0,
            "hysteresis_ticks": 1,
            "cooldown_s": 4.0,
            "park_idle_machines": False,
        },
    ),
    "failure-under-load": Scenario(
        name="failure-under-load",
        description="step-ramp load with prompt- and token-machine failures at the peak",
        workload="coding",
        duration_s=120.0,
        num_prompt=3,
        num_token=2,
        build_arrival=_ramp_arrival,
        failure_points=((0.45, "prompt-0"), (0.6, "token-0")),
    ),
    "failure-storm": Scenario(
        name="failure-storm",
        description=(
            "overload plateau under full chaos: machine churn, rack outages, "
            "stragglers, KV brown-outs, and spot revocation, with admission "
            "control shedding the low-priority tenant first"
        ),
        workload="coding",
        duration_s=120.0,
        num_prompt=3,
        num_token=2,
        build_arrival=_storm_base,
        compose_with=("conversation", _storm_overlay),
        chaos="failure-storm",
    ),
    "mixed-tenant": Scenario(
        name="mixed-tenant",
        description="conversation + coding tenants with anti-phase diurnal peaks",
        workload="conversation",
        duration_s=240.0,
        num_prompt=3,
        num_token=2,
        build_arrival=_mixed_tenant_base,
        compose_with=("coding", _mixed_tenant_overlay),
    ),
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario preset by name.

    Raises:
        KeyError: if the preset is unknown.
    """
    if name not in SCENARIO_PRESETS:
        known = ", ".join(sorted(SCENARIO_PRESETS))
        raise KeyError(f"unknown scenario {name!r}; known presets: {known}")
    return SCENARIO_PRESETS[name]
