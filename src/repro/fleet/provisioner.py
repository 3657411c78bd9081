"""Cloud-burst provisioning: renting and retiring whole clusters elastically.

Where PR 3's :class:`~repro.core.autoscaler.PoolAutoscaler` re-purposes
*machines within* a cluster, the :class:`FleetProvisioner` scales the fleet
itself — the pattern the cloud-scheduler family of systems applies to VM
fleets, lifted to whole phase-split clusters:

* **Burst.**  Under sustained pressure (hysteresis over outstanding requests
  per active cluster) the provisioner activates a standby cluster.  A *warm*
  standby joins the router after a short ready delay; a *cold* one pays the
  full cold-start (image pull, model load, NCCL ring formation) before it
  can take traffic.
* **Warm pools.**  A configurable number of standbys are kept warm — billed
  at a fraction of an active cluster — and optionally replenished from cold
  standbys whenever a warm cluster is promoted.
* **Drain-then-retire.**  Scale-down never kills in-flight work: a draining
  cluster leaves the router immediately, keeps serving its outstanding
  requests, and is only retired (billing stops) once fully drained.  If
  pressure returns while it is still draining, re-activating it is the
  cheapest capacity and is preferred over bursting a standby.

Every action lands in a timeline, and per-cluster state intervals feed the
fleet's machine-hour/cost accounting, so an elastic fleet is directly
comparable against statically provisioning every cluster for the whole
window.  Decisions read only deterministic counters, keeping fleet runs
bit-reproducible and fast-forward-parity safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.simulation.engine import RecurringTask
from repro.simulation.events import PROVISIONER_TICK_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports provisioner)
    from repro.fleet.fleet import FleetCluster, FleetSimulation


class ClusterState(enum.Enum):
    """Lifecycle of a fleet cluster, as billed by the provisioner."""

    ACTIVE = "active"  #: serving traffic, fully billed
    WARM = "warm"  #: standby, billed at the warm fraction
    COLD = "cold"  #: off, unbilled
    STARTING = "starting"  #: booting toward active, fully billed
    DRAINING = "draining"  #: finishing in-flight work, fully billed
    RETIRED = "retired"  #: drained and released, unbilled


#: Billing rate per state, as a fraction of a fully active cluster.  WARM is
#: absent on purpose: its fraction is a config knob
#: (:attr:`FleetProvisionerConfig.warm_billing_fraction`), resolved by
#: :meth:`FleetProvisioner._billing_fraction`.
_BILLING_FRACTION = {
    ClusterState.ACTIVE: 1.0,
    ClusterState.STARTING: 1.0,
    ClusterState.DRAINING: 1.0,
    ClusterState.COLD: 0.0,
    ClusterState.RETIRED: 0.0,
}


@dataclass(frozen=True)
class FleetProvisionerConfig:
    """Tuning knobs for cloud-burst provisioning.

    Attributes:
        interval_s: Simulated seconds between control ticks.
        high_outstanding_per_cluster: Mean outstanding requests per active
            cluster above which the fleet is considered pressured.
        low_outstanding_per_cluster: Mean outstanding requests per active
            cluster below which the fleet is considered idle.
        hysteresis_ticks: Consecutive pressured (or idle) ticks required
            before acting — the anti-thrashing guard.
        cooldown_s: Minimum simulated time between two provisioning actions.
        min_active_clusters: Clusters the provisioner must keep routable.
        warm_start_s: Delay before a warm standby starts taking traffic.
        cold_start_s: Delay before a cold standby starts taking traffic
            (image pull + model load + interconnect bring-up).
        warm_pool_target: Standbys to keep warm; promoted warm clusters are
            replenished from cold standbys when any remain.
        warm_billing_fraction: Fraction of an active cluster's machine-hours
            billed for a warm standby.
    """

    interval_s: float = 5.0
    high_outstanding_per_cluster: float = 24.0
    low_outstanding_per_cluster: float = 4.0
    hysteresis_ticks: int = 2
    cooldown_s: float = 15.0
    min_active_clusters: int = 1
    warm_start_s: float = 4.0
    cold_start_s: float = 45.0
    warm_pool_target: int = 1
    warm_billing_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.hysteresis_ticks < 1:
            raise ValueError(f"hysteresis_ticks must be >= 1, got {self.hysteresis_ticks}")
        if self.min_active_clusters < 1:
            raise ValueError(f"min_active_clusters must be >= 1, got {self.min_active_clusters}")
        if self.warm_start_s < 0 or self.cold_start_s < 0:
            raise ValueError("start delays must be non-negative")
        if not 0.0 <= self.warm_billing_fraction <= 1.0:
            raise ValueError(f"warm_billing_fraction must be in [0, 1], got {self.warm_billing_fraction}")
        if self.warm_pool_target < 0:
            raise ValueError(f"warm_pool_target must be >= 0, got {self.warm_pool_target}")


@dataclass(frozen=True)
class FleetProvisionEvent:
    """One provisioning action, recorded in the fleet timeline.

    Attributes:
        time_s: Simulated time of the action.
        cluster: Cluster acted on.
        action: ``"burst-warm"``, ``"burst-cold"``, ``"activate"``,
            ``"undrain"``, ``"drain"``, ``"retire"``, ``"revoke"``, or
            ``"warm"``.
        reason: Signal that triggered the action.
    """

    time_s: float
    cluster: str
    action: str
    reason: str


class FleetProvisioner:
    """Recurring control loop that bursts and retires whole clusters.

    Attach to a fleet with :meth:`attach` (done by
    :class:`~repro.fleet.fleet.FleetSimulation` when constructed with a
    ``provisioner=``).  After the run, :attr:`timeline` holds every action
    and :meth:`billed_machine_hours` prices the elastic fleet for comparison
    against static provisioning.
    """

    def __init__(self, config: FleetProvisionerConfig | None = None) -> None:
        self.config = config or FleetProvisionerConfig()
        self.timeline: list[FleetProvisionEvent] = []
        self.ticks = 0
        self._fleet: "FleetSimulation | None" = None
        self._task: RecurringTask | None = None
        self._high_streak = 0
        self._low_streak = 0
        self._last_action_time = float("-inf")
        #: cluster name -> currently open (state, since_s) billing interval.
        self._open_interval: dict[str, tuple[ClusterState, float]] = {}
        #: cluster name -> accumulated billed seconds per state.
        self._state_seconds: dict[str, dict[ClusterState, float]] = {}
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------------

    def attach(self, fleet: "FleetSimulation") -> None:
        """Start the control loop on the fleet's engine.

        Raises:
            RuntimeError: if already attached.
        """
        if self._task is not None:
            raise RuntimeError("provisioner is already attached to a fleet")
        self._fleet = fleet
        for cluster in fleet.clusters:
            self._open_interval[cluster.name] = (cluster.state, fleet.engine.now)
            self._state_seconds[cluster.name] = {}
        self._task = fleet.engine.schedule_recurring(
            self.config.interval_s, self._tick, priority=PROVISIONER_TICK_PRIORITY, tag="fleet-provisioner"
        )

    def stop(self) -> None:
        """Stop ticking (called by the fleet once every request completed)."""
        if self._task is not None:
            self._task.cancel()

    def finalize(self, end_time_s: float) -> None:
        """Close all open billing intervals at the end of the window."""
        self.stop()
        if self._finalized:
            return
        self._finalized = True
        for name, (state, since) in list(self._open_interval.items()):
            seconds = self._state_seconds[name]
            seconds[state] = seconds.get(state, 0.0) + max(0.0, end_time_s - since)
            del self._open_interval[name]

    # -- accounting --------------------------------------------------------------------

    def _transition(self, cluster: "FleetCluster", new_state: ClusterState) -> None:
        """Move a cluster to ``new_state``, closing its open billing interval."""
        now = self._fleet.engine.now
        name = cluster.name
        state, since = self._open_interval[name]
        seconds = self._state_seconds[name]
        seconds[state] = seconds.get(state, 0.0) + (now - since)
        self._open_interval[name] = (new_state, now)
        cluster.state = new_state
        cluster.routable = new_state is ClusterState.ACTIVE

    def _billing_fraction(self, state: ClusterState) -> float:
        """Billing rate for one state (WARM comes from the config knob)."""
        if state is ClusterState.WARM:
            return self.config.warm_billing_fraction
        return _BILLING_FRACTION[state]

    def billed_machine_hours(self) -> float:
        """Machine-hours billed across the fleet (state-weighted).

        Active/starting/draining time bills fully, warm standby at the
        configured fraction, cold/retired not at all.  Call :meth:`finalize`
        first (done by the fleet simulation).
        """
        total = 0.0
        for cluster in self._fleet.clusters:
            seconds = self._state_seconds.get(cluster.name, {})
            for state, elapsed in seconds.items():
                total += self._billing_fraction(state) * elapsed * cluster.num_machines / 3600.0
        return total

    def billed_cost(self) -> float:
        """Dollar cost of the billed intervals (cluster cost_per_hour-weighted)."""
        total = 0.0
        for cluster in self._fleet.clusters:
            seconds = self._state_seconds.get(cluster.name, {})
            for state, elapsed in seconds.items():
                total += self._billing_fraction(state) * elapsed * cluster.design.cost_per_hour / 3600.0
        return total

    def burst_count(self) -> int:
        """Number of standby activations (warm or cold) performed."""
        return sum(1 for event in self.timeline if event.action.startswith("burst"))

    def timeline_as_dicts(self) -> list[dict]:
        """JSON-friendly copy of the provisioning timeline."""
        return [
            {
                "time_s": round(event.time_s, 3),
                "cluster": event.cluster,
                "action": event.action,
                "reason": event.reason,
            }
            for event in self.timeline
        ]

    # -- control loop ------------------------------------------------------------------

    def _tick(self) -> None:
        fleet = self._fleet
        engine = fleet.engine
        self.ticks += 1
        if engine.pending_events == 0:
            # Fully drained fleet with no controllers left: stop keeping the
            # event queue alive.  (The fleet also stops the loop explicitly
            # once every request completes — see FleetSimulation._on_complete
            # — because two recurring controllers would otherwise keep each
            # other's queues non-empty forever.)
            self._task.cancel()
            return

        serving = [c for c in fleet.clusters if c.state in (ClusterState.ACTIVE, ClusterState.STARTING)]
        outstanding = sum(fleet.router.traffic[c.name].outstanding for c in fleet.clusters)
        load = outstanding / len(serving) if serving else float("inf")

        cfg = self.config
        self._high_streak = self._high_streak + 1 if load > cfg.high_outstanding_per_cluster else 0
        self._low_streak = self._low_streak + 1 if load < cfg.low_outstanding_per_cluster else 0

        # Retiring a drained cluster is bookkeeping, not a scaling decision:
        # it bypasses cooldown so billing stops the moment the drain ends.
        self.retire_drained()

        if engine.now - self._last_action_time < cfg.cooldown_s:
            return
        acted = False
        if self._high_streak >= cfg.hysteresis_ticks:
            acted = self._scale_up(reason=f"outstanding {load:.1f}/cluster")
        elif self._low_streak >= cfg.hysteresis_ticks:
            acted = self._scale_down(reason=f"outstanding {load:.1f}/cluster")
        if acted:
            self._last_action_time = engine.now
            self._high_streak = 0
            self._low_streak = 0

    def revoke(self, cluster: "FleetCluster", reason: str) -> None:
        """Record a spot revocation: the cluster's capacity was reclaimed.

        Called by the fleet's fault plane, not the control loop.  Billing
        for the cluster stops immediately (the provider took the machines
        back), and the cluster lands in the cold pool, where a later
        scale-up may re-rent it at full cold-start price.
        """
        self._transition(cluster, ClusterState.COLD)
        self.timeline.append(
            FleetProvisionEvent(self._fleet.engine.now, cluster.name, "revoke", reason)
        )

    def retire_drained(self) -> None:
        """Retire every draining cluster whose outstanding work hit zero.

        Runs on every tick, and once more when the fleet stops the control
        loops at the last completion — a cluster whose final request *is*
        the fleet's last completion must still stop billing right there,
        not at a tick that will never fire.
        """
        fleet = self._fleet
        for cluster in fleet.clusters:
            if (
                cluster.state is ClusterState.DRAINING
                and fleet.router.traffic[cluster.name].outstanding == 0
            ):
                self._transition(cluster, ClusterState.RETIRED)
                self.timeline.append(
                    FleetProvisionEvent(fleet.engine.now, cluster.name, "retire", "drain complete")
                )

    def _scale_up(self, reason: str) -> bool:
        """Add a cluster: un-drain first, then promote warm, then boot cold."""
        fleet = self._fleet
        now = fleet.engine.now
        # Cheapest capacity: a cluster still draining — it is already warm,
        # loaded, and billed; re-activating it is instantaneous.
        draining = sorted(
            (c for c in fleet.clusters if c.state is ClusterState.DRAINING), key=lambda c: c.name
        )
        if draining:
            cluster = draining[0]
            self._transition(cluster, ClusterState.ACTIVE)
            self.timeline.append(FleetProvisionEvent(now, cluster.name, "undrain", reason))
            return True
        warm = sorted((c for c in fleet.clusters if c.state is ClusterState.WARM), key=lambda c: c.name)
        if warm:
            cluster = warm[0]
            self._start_cluster(cluster, self.config.warm_start_s, "burst-warm", reason)
            self._replenish_warm_pool(reason)
            return True
        # A retired cluster is cold capacity: re-renting it pays the same
        # cold start as a never-used standby.
        cold = sorted(self._cold_capacity(), key=lambda c: c.name)
        if cold:
            self._start_cluster(cold[0], self.config.cold_start_s, "burst-cold", reason)
            return True
        return False

    def _cold_capacity(self):
        """Clusters available at cold-start price (never-started or retired)."""
        return [
            c
            for c in self._fleet.clusters
            if c.state in (ClusterState.COLD, ClusterState.RETIRED)
        ]

    def _start_cluster(self, cluster: "FleetCluster", delay_s: float, action: str, reason: str) -> None:
        fleet = self._fleet
        now = fleet.engine.now
        self._transition(cluster, ClusterState.STARTING)
        self.timeline.append(FleetProvisionEvent(now, cluster.name, action, reason))
        fleet.engine.schedule_after(
            delay_s,
            lambda c=cluster: self._activate(c),
            priority=PROVISIONER_TICK_PRIORITY,
            tag=f"cluster-start:{cluster.name}",
        )

    def _activate(self, cluster: "FleetCluster") -> None:
        if cluster.state is not ClusterState.STARTING:
            return  # retired/changed while booting (defensive; not expected)
        self._transition(cluster, ClusterState.ACTIVE)
        self.timeline.append(
            FleetProvisionEvent(self._fleet.engine.now, cluster.name, "activate", "start delay elapsed")
        )

    def _replenish_warm_pool(self, reason: str) -> None:
        """Keep ``warm_pool_target`` standbys warm by pre-warming cold ones."""
        warm_count = sum(1 for c in self._fleet.clusters if c.state is ClusterState.WARM)
        if warm_count >= self.config.warm_pool_target:
            return
        cold = sorted(self._cold_capacity(), key=lambda c: c.name)
        if not cold:
            return
        cluster = cold[0]
        self._transition(cluster, ClusterState.WARM)
        self.timeline.append(
            FleetProvisionEvent(self._fleet.engine.now, cluster.name, "warm", f"replenish ({reason})")
        )

    def _scale_down(self, reason: str) -> bool:
        """Drain the least-loaded active cluster, respecting the minimum.

        Pin targets are exempt: a pinned tenant can only ever be served by
        its cluster, so draining it would make that tenant unroutable even
        though the rest of the fleet has capacity.
        """
        fleet = self._fleet
        pinned = set(fleet.router.tenant_pins.values())
        active = [
            c for c in fleet.clusters if c.state is ClusterState.ACTIVE and c.name not in pinned
        ]
        all_active = sum(1 for c in fleet.clusters if c.state is ClusterState.ACTIVE)
        if not active or all_active <= self.config.min_active_clusters:
            return False
        traffic = fleet.router.traffic
        cluster = min(active, key=lambda c: (traffic[c.name].outstanding, c.name))
        self._transition(cluster, ClusterState.DRAINING)
        self.timeline.append(FleetProvisionEvent(fleet.engine.now, cluster.name, "drain", reason))
        return True
