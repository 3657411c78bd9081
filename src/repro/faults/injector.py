"""Replays a precompiled fault plan into a running fleet simulation.

The :class:`FaultInjector` is the bridge between the pure fault plan
(:mod:`repro.faults.plan`) and the discrete-event fleet: at arm time it
derives the fleet's :class:`~repro.faults.plan.FaultTopology`, compiles the
plan, and schedules every injection as an ordinary priority-1 engine event —
the same priority explicit scenario ``failure_points`` use, so injections
interleave with iteration finishes and arrivals exactly the way one-shot
failures always have.

Injections carry **deterministic guards** evaluated at fire time: a
machine-fail against the last serviceable machine of a cluster is skipped
(the simulator models degraded service, not a dead fleet), an outage against
the only serviceable cluster is skipped, a recover against a healthy machine
is a no-op, and so on.  The guards read only simulation state that is
identical across execution regimes, so a plan replays bit-identically with
fast-forward on or off.  Skips are counted per kind and reported in
:meth:`FaultInjector.snapshot` alongside the fired counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import (
    FaultPlanConfig,
    FaultTopology,
    Injection,
    compile_fault_plan,
    plan_counts,
)
from repro.fleet.provisioner import ClusterState
from repro.simulation.events import FAULT_EVENT_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.fleet import FleetCluster, FleetSimulation


class FaultInjector:
    """Arms a fault plan against a fleet and dispatches its injections.

    Args:
        fleet: The fleet simulation to inject into.
        config: The fault-plan knobs (including the dedicated fault seed).
    """

    def __init__(self, fleet: "FleetSimulation", config: FaultPlanConfig) -> None:
        self.fleet = fleet
        self.config = config
        self.plan: tuple[Injection, ...] = ()
        self.fired: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        self._cluster_by_name: dict[str, "FleetCluster"] = {}
        self._cluster_of_machine: dict[str, "FleetCluster"] = {}

    def arm(self, duration_s: float) -> tuple[Injection, ...]:
        """Compile the plan for this fleet and schedule every injection.

        Burst (revocable) capacity is identified by initial cluster state:
        any cluster not ACTIVE at arm time is spot capacity the provisioner
        may rent — and the fault plane may revoke.
        """
        clusters = list(self.fleet.clusters)
        self._cluster_by_name = {cluster.name: cluster for cluster in clusters}
        machines: dict[str, tuple[str, ...]] = {}
        for cluster in clusters:
            names = tuple(machine.name for machine in cluster.scheduler.machines)
            machines[cluster.name] = names
            for name in names:
                self._cluster_of_machine[name] = cluster
        topology = FaultTopology(
            machines=machines,
            burst_clusters=tuple(
                cluster.name for cluster in clusters if cluster.state is not ClusterState.ACTIVE
            ),
        )
        self.plan = compile_fault_plan(self.config, topology, duration_s)
        engine = self.fleet.engine
        for injection in self.plan:
            engine.schedule_at(
                injection.time_s,
                lambda inj=injection: self._fire(inj),
                priority=FAULT_EVENT_PRIORITY,
                tag=f"fault:{injection.kind}:{injection.target}",
            )
        return self.plan

    # -- dispatch -----------------------------------------------------------------------

    def _fire(self, injection: Injection) -> None:
        handler = self._HANDLERS[injection.kind]
        fired = handler(self, injection)
        counts = self.fired if fired else self.skipped
        counts[injection.kind] = counts.get(injection.kind, 0) + 1
        if self.fleet.obs is not None:
            self.fleet.obs.recorder.note_injection(
                injection.kind, injection.target, fired, self.fleet.engine.now
            )

    def _serviceable(self, exclude: "FleetCluster | None" = None) -> int:
        """Clusters currently able to take traffic (routable and available)."""
        return sum(
            1
            for cluster in self.fleet.clusters
            if cluster is not exclude and cluster.routable and cluster.available
        )

    def _fire_machine_fail(self, injection: Injection) -> bool:
        cluster = self._cluster_of_machine[injection.target]
        if not cluster.available:
            return False  # already down wholesale (an outage, or every machine failed)
        scheduler = cluster.scheduler
        machine = scheduler.find_machine(injection.target)
        if machine.failed:
            return False
        if len(scheduler.machines) - len(scheduler.failed_machines) <= 1:
            return False  # never kill a cluster's last live machine from this process
        scheduler.fail_machine(machine)
        return True

    def _fire_machine_recover(self, injection: Injection) -> bool:
        cluster = self._cluster_of_machine[injection.target]
        if cluster.outage:
            return False  # the outage's end will recover the whole cluster
        machine = cluster.scheduler.find_machine(injection.target)
        if not machine.failed:
            return False
        cluster.scheduler.recover_machine(machine)
        return True

    def _fire_outage_start(self, injection: Injection) -> bool:
        cluster = self._cluster_by_name[injection.target]
        if not cluster.available:
            return False
        if self._serviceable(exclude=cluster) < 1:
            return False  # nowhere to evacuate; keep the fleet alive
        self.fleet.begin_outage(cluster)
        return True

    def _fire_outage_end(self, injection: Injection) -> bool:
        cluster = self._cluster_by_name[injection.target]
        if not cluster.outage:
            return False
        self.fleet.end_outage(cluster)
        return True

    def _fire_straggler_start(self, injection: Injection) -> bool:
        cluster = self._cluster_of_machine[injection.target]
        machine = cluster.scheduler.find_machine(injection.target)
        machine.set_performance_slowdown(injection.factor)
        return True

    def _fire_straggler_end(self, injection: Injection) -> bool:
        cluster = self._cluster_of_machine[injection.target]
        machine = cluster.scheduler.find_machine(injection.target)
        machine.set_performance_slowdown(1.0)
        return True

    def _fire_kv_degrade_start(self, injection: Injection) -> bool:
        cluster = self._cluster_by_name[injection.target]
        cluster.scheduler.set_kv_degradation(injection.factor)
        return True

    def _fire_kv_degrade_end(self, injection: Injection) -> bool:
        cluster = self._cluster_by_name[injection.target]
        cluster.scheduler.set_kv_degradation(1.0)
        return True

    def _fire_revoke(self, injection: Injection) -> bool:
        cluster = self._cluster_by_name[injection.target]
        if cluster.state not in (ClusterState.ACTIVE, ClusterState.STARTING):
            return False  # nothing rented; nothing to revoke
        if self._serviceable(exclude=cluster) < 1:
            return False
        self.fleet.revoke_cluster(cluster)
        return True

    _HANDLERS = {
        "machine-fail": _fire_machine_fail,
        "machine-recover": _fire_machine_recover,
        "outage-start": _fire_outage_start,
        "outage-end": _fire_outage_end,
        "straggler-start": _fire_straggler_start,
        "straggler-end": _fire_straggler_end,
        "kv-degrade-start": _fire_kv_degrade_start,
        "kv-degrade-end": _fire_kv_degrade_end,
        "revoke": _fire_revoke,
    }

    # -- reporting ----------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly fault provenance: seed, planned/fired/skipped counts."""
        return {
            "seed": self.config.seed,
            "planned": plan_counts(self.plan),
            "fired": dict(sorted(self.fired.items())),
            "skipped": dict(sorted(self.skipped.items())),
        }
