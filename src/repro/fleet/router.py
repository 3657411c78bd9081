"""Fleet-level request routing: the global front-end over many clusters.

A deployment serving millions of users runs *fleets* of phase-split clusters
behind one global router.  :class:`FleetRouter` is that front-end inside the
simulator: every arriving request is assigned to exactly one member cluster,
whose own cluster-level scheduler (§IV-A) then routes it to machines.  Four
policies are provided:

* ``"weighted-rr"`` — smooth weighted round-robin (the classic nginx
  algorithm), weights proportional to cluster machine counts.  Oblivious to
  load; the baseline the informed policies are compared against.
* ``"least-outstanding"`` — route to the cluster with the fewest in-flight
  requests.  O(1) signals maintained by submit/complete callbacks.
* ``"jsq"`` — queue-probe Join-the-Shortest-Queue: probe every cluster's
  machines for total pending tokens and pick the smallest backlog.  The most
  informed instantaneous signal, at O(machines) probe cost per arrival.
* ``"slo-feedback"`` — least-outstanding scaled by each cluster's *rolling
  P99 TTFT and TBT* over a sliding window of recent completions: clusters
  whose tail latency degrades (slow machines, draining, recovering from
  failures) receive proportionally less traffic until their tail recovers.

Routing is tenant-aware: the router tracks per-tenant traffic and honors
optional tenant→cluster pins (e.g. a tenant contractually confined to one
region's cluster).  All policies are deterministic — ties break on cluster
name — so fleet simulations stay bit-reproducible under a seed and under
decode fast-forwarding on/off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.cluster_scheduler import total_queue_load
from repro.simulation.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports router)
    from repro.fleet.fleet import FleetCluster

#: Router policies, in the order they are documented above.
ROUTER_POLICIES = ("weighted-rr", "least-outstanding", "jsq", "slo-feedback")

#: Completions remembered per cluster for the slo-feedback rolling window.
DEFAULT_SLO_WINDOW = 128


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs for the router's per-cluster reliability feedback loop.

    The router tracks a rolling error window per cluster (SLO-violating
    completions and machine failures).  A cluster whose error fraction
    crosses ``ban_threshold`` is *banned* — removed from routing — for
    ``cooldown_s``, then re-admitted on *probation*: it receives traffic
    again, and its first ``probation_requests`` outcomes decide whether it
    returns to healthy rotation or is banned again.

    Attributes:
        window: Outcomes remembered per cluster while healthy.
        ban_threshold: Error fraction that triggers a ban.
        min_observations: Outcomes required before a ban can trigger (avoids
            banning on one early unlucky request).
        cooldown_s: Ban duration before probationary re-admission.
        probation_requests: Outcomes observed on probation before deciding.
        probation_threshold: Error fraction on probation that re-bans.
        ttft_slowdown_limit: A completion whose TTFT exceeds this multiple of
            the uncontended reference is counted as an error.
        tbt_slowdown_limit: Same for the mean TBT.
    """

    window: int = 64
    ban_threshold: float = 0.5
    min_observations: int = 16
    cooldown_s: float = 30.0
    probation_requests: int = 16
    probation_threshold: float = 0.5
    ttft_slowdown_limit: float = 6.0
    tbt_slowdown_limit: float = 5.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.ban_threshold <= 1.0:
            raise ValueError(f"ban_threshold must be in (0, 1], got {self.ban_threshold}")
        if not 0.0 < self.probation_threshold <= 1.0:
            raise ValueError(
                f"probation_threshold must be in (0, 1], got {self.probation_threshold}"
            )
        if self.min_observations < 1 or self.min_observations > self.window:
            raise ValueError(
                f"min_observations must be in [1, window], got {self.min_observations}"
            )
        if self.cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {self.cooldown_s}")
        if self.probation_requests < 1:
            raise ValueError(f"probation_requests must be >= 1, got {self.probation_requests}")
        if self.ttft_slowdown_limit <= 1.0 or self.tbt_slowdown_limit <= 1.0:
            raise ValueError("slowdown limits must be > 1")


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-tenant admission control under fleet overload.

    When the fleet's total outstanding requests reach a tenant's shed
    threshold, that tenant's new arrivals are *shed* (rejected up front)
    instead of queued.  Higher-priority tenants get proportionally more
    headroom — ``threshold = max_outstanding * (1 + priority *
    shed_headroom)`` — so under mounting overload the lowest-priority
    tenants are shed first and the highest-priority tenants last.

    Attributes:
        max_outstanding: Fleet-wide outstanding requests at which a
            priority-0 tenant starts shedding.
        tenant_priorities: Tenant tag -> priority (higher = shed later).
        default_priority: Priority of tenants not listed.
        shed_headroom: Extra headroom fraction granted per priority level.
    """

    max_outstanding: int
    tenant_priorities: Mapping[str, int] = field(default_factory=dict)
    default_priority: int = 0
    shed_headroom: float = 0.5

    def __post_init__(self) -> None:
        if self.max_outstanding < 1:
            raise ValueError(f"max_outstanding must be >= 1, got {self.max_outstanding}")
        if self.shed_headroom < 0:
            raise ValueError(f"shed_headroom must be >= 0, got {self.shed_headroom}")
        for tenant, priority in self.tenant_priorities.items():
            if priority < 0:
                raise ValueError(f"tenant {tenant!r} priority must be >= 0, got {priority}")

    def priority(self, tenant: str) -> int:
        """Shedding priority of a tenant (higher = shed later)."""
        return self.tenant_priorities.get(tenant, self.default_priority)

    def shed_threshold(self, tenant: str) -> float:
        """Fleet outstanding count at which this tenant's arrivals shed."""
        return self.max_outstanding * (1.0 + self.priority(tenant) * self.shed_headroom)


class ClusterHealth:
    """Rolling reliability state of one cluster (healthy/banned/probation)."""

    __slots__ = (
        "config",
        "state",
        "outcomes",
        "errors",
        "banned_until_s",
        "probation_seen",
        "probation_errors",
        "bans",
        "observer",
    )

    def __init__(self, config: ReliabilityConfig) -> None:
        self.config = config
        self.state = "healthy"
        self.outcomes: deque[bool] = deque(maxlen=config.window)
        self.errors = 0
        self.banned_until_s = 0.0
        self.probation_seen = 0
        self.probation_errors = 0
        self.bans = 0
        #: Optional ``(state, now)`` callback fired on every state change
        #: (wired by :meth:`FleetRouter.observe_health`; observe-only).
        self.observer: Callable[[str, float], None] | None = None

    def is_banned(self, now: float) -> bool:
        """Whether the cluster is currently banned; expires lapsed bans."""
        if self.state == "banned":
            if now >= self.banned_until_s:
                self._enter_probation(now)
                return False
            return True
        return False

    def record(self, error: bool, now: float) -> None:
        """Fold one outcome (completion or failure) into the state machine."""
        if self.state == "banned":
            if now < self.banned_until_s:
                return  # straggler completions during a ban carry no signal
            self._enter_probation(now)
        if self.state == "probation":
            self.probation_seen += 1
            if error:
                self.probation_errors += 1
            if self.probation_seen >= self.config.probation_requests:
                if self.probation_errors / self.probation_seen >= self.config.probation_threshold:
                    self._ban(now)
                else:
                    self._reset_healthy(now)
            return
        outcomes = self.outcomes
        if len(outcomes) == outcomes.maxlen and outcomes[0]:
            self.errors -= 1
        outcomes.append(error)
        if error:
            self.errors += 1
        if (
            len(outcomes) >= self.config.min_observations
            and self.errors / len(outcomes) >= self.config.ban_threshold
        ):
            self._ban(now)

    def _ban(self, now: float) -> None:
        self.state = "banned"
        self.banned_until_s = now + self.config.cooldown_s
        self.bans += 1
        self.outcomes.clear()
        self.errors = 0
        self.probation_seen = 0
        self.probation_errors = 0
        if self.observer is not None:
            self.observer("banned", now)

    def _enter_probation(self, now: float) -> None:
        self.state = "probation"
        self.probation_seen = 0
        self.probation_errors = 0
        if self.observer is not None:
            self.observer("probation", now)

    def _reset_healthy(self, now: float) -> None:
        self.state = "healthy"
        self.outcomes.clear()
        self.errors = 0
        self.probation_seen = 0
        self.probation_errors = 0
        if self.observer is not None:
            self.observer("healthy", now)


def _p99(values) -> float:
    """P99 by the nearest-rank method over a small sample window."""
    ordered = sorted(values)
    rank = -(-99 * len(ordered) // 100) - 1  # ceil(0.99 * n) as a 0-based index
    return ordered[rank]


@dataclass
class ClusterTraffic:
    """Per-cluster routing state maintained by the router.

    Attributes:
        window: Completions remembered in the rolling latency windows.
        submitted: Requests routed to the cluster so far.
        completed: Requests the cluster finished.
        by_tenant: Requests routed, grouped by tenant tag.
        ttft_window: Recent TTFT samples (seconds) for slo-feedback.
        tbt_window: Recent mean-TBT samples (seconds) for slo-feedback.
    """

    window: int = DEFAULT_SLO_WINDOW
    submitted: int = 0
    completed: int = 0
    by_tenant: dict[str, int] = field(default_factory=dict)
    ttft_window: deque = field(init=False, repr=False)
    tbt_window: deque = field(init=False, repr=False)
    _p99_cache: tuple[float, float] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.ttft_window = deque(maxlen=self.window)
        self.tbt_window = deque(maxlen=self.window)

    @property
    def outstanding(self) -> int:
        """Requests routed to the cluster that have not completed."""
        return self.submitted - self.completed

    def note_submitted(self, request: Request) -> None:
        self.submitted += 1
        self.by_tenant[request.tenant] = self.by_tenant.get(request.tenant, 0) + 1

    def note_withdrawn(self, request: Request) -> None:
        """Un-count a routed request that was evacuated before completing."""
        self.submitted -= 1
        count = self.by_tenant.get(request.tenant, 0) - 1
        if count > 0:
            self.by_tenant[request.tenant] = count
        else:
            self.by_tenant.pop(request.tenant, None)

    def note_completed(self, request: Request, mean_tbt: float | None) -> None:
        self.completed += 1
        if request.ttft is not None:
            self.ttft_window.append(request.ttft)
            self._p99_cache = None
        if mean_tbt is not None:
            self.tbt_window.append(mean_tbt)
            self._p99_cache = None

    def rolling_p99(self) -> tuple[float, float]:
        """``(p99_ttft_s, p99_tbt_s)`` over the windows (0.0 when no samples).

        Cached between completions so back-to-back arrivals don't re-sort an
        unchanged window.
        """
        if self._p99_cache is None:
            ttft = _p99(self.ttft_window) if self.ttft_window else 0.0
            tbt = _p99(self.tbt_window) if self.tbt_window else 0.0
            self._p99_cache = (ttft, tbt)
        return self._p99_cache


class FleetRouter:
    """Routes arriving requests to clusters under a pluggable policy.

    Args:
        policy: One of :data:`ROUTER_POLICIES`.
        tenant_pins: Optional ``{tenant: cluster_name}`` constraints; a
            pinned tenant's requests only ever go to that cluster (while it
            is unroutable or unavailable, they find no cluster).
        slo_window: Completions remembered per cluster for the rolling
            P99 windows of the ``"slo-feedback"`` policy.
        reliability: Optional per-cluster error tracking with auto-ban,
            cool-down, and probationary re-admission (see
            :class:`ReliabilityConfig`).  Classifying completions as errors
            additionally needs :attr:`reference_model` to be set.

    Raises:
        ValueError: for an unknown policy.
    """

    def __init__(
        self,
        policy: str = "least-outstanding",
        tenant_pins: Mapping[str, str] | None = None,
        slo_window: int = DEFAULT_SLO_WINDOW,
        reliability: "ReliabilityConfig | None" = None,
    ) -> None:
        if policy not in ROUTER_POLICIES:
            raise ValueError(f"policy must be one of {ROUTER_POLICIES}, got {policy!r}")
        if slo_window < 1:
            raise ValueError(f"slo_window must be >= 1, got {slo_window}")
        self.policy = policy
        self.tenant_pins = dict(tenant_pins or {})
        self.slo_window = slo_window
        self.reliability = reliability
        #: Uncontended performance model latency classification compares
        #: against (set by the fleet simulation when reliability is on).
        self.reference_model = None
        self._clusters: list["FleetCluster"] = []
        self.traffic: dict[str, ClusterTraffic] = {}
        self._health: dict[str, ClusterHealth] = {}
        self._engine = None
        #: Smooth weighted-RR state: cluster name -> current credit.
        self._wrr_credit: dict[str, float] = {}
        #: Fleet-wide best rolling P99s, refreshed once per slo-feedback
        #: routing decision (state instead of a closure so the per-arrival
        #: probe allocates nothing — same rationale as the precomputed JSQ
        #: key functions in the cluster scheduler).
        self._fleet_best: tuple[float, float] = (0.0, 0.0)

    # -- lifecycle ---------------------------------------------------------------------

    def attach(self, clusters: list["FleetCluster"], engine=None) -> None:
        """Register the fleet's member clusters (done by the fleet simulation).

        Args:
            clusters: The fleet's member clusters.
            engine: Simulation engine providing the clock for ban cool-downs
                (required only when reliability tracking is configured).
        """
        self._clusters = list(clusters)
        self._engine = engine
        for cluster in self._clusters:
            self.traffic[cluster.name] = ClusterTraffic(window=self.slo_window)
            self._wrr_credit[cluster.name] = 0.0
            if self.reliability is not None:
                self._health[cluster.name] = ClusterHealth(self.reliability)
        for tenant, name in self.tenant_pins.items():
            if name not in self.traffic:
                raise ValueError(f"tenant {tenant!r} pinned to unknown cluster {name!r}")

    def _now(self) -> float:
        return self._engine.now if self._engine is not None else 0.0

    # -- routing -----------------------------------------------------------------------

    def route(self, request: Request, exclude=None) -> "FleetCluster | None":
        """Pick the cluster that will serve ``request`` and record the decision.

        Args:
            request: The request to place.
            exclude: Optional cluster name (or collection of names) to avoid
                for this attempt — the request-lifecycle layer excludes the
                cluster a retry just failed on.  The exclusion is *soft*:
                when every other cluster is unroutable the excluded cluster
                is used anyway (a slow retry beats a dropped request), and
                tenant pins override it entirely.

        Returns:
            The chosen cluster, or ``None`` when no routable, available
            cluster can take the request (the fleet sheds it).
        """
        pinned = self.tenant_pins.get(request.tenant)
        if pinned is not None:
            # A pin overrides reliability bans (the tenant has nowhere else
            # to go) but not availability — a cluster that is down serves nobody.
            for cluster in self._clusters:
                if cluster.name == pinned and cluster.routable and cluster.available:
                    self.traffic[cluster.name].note_submitted(request)
                    return cluster
            return None
        candidates = [c for c in self._clusters if c.routable and c.available]
        if not candidates:
            return None
        if exclude:
            excluded = {exclude} if isinstance(exclude, str) else set(exclude)
            filtered = [c for c in candidates if c.name not in excluded]
            if filtered:
                candidates = filtered
        if self._health:
            # Availability beats reliability: prefer unbanned clusters, but
            # when every candidate is banned, serve from the banned ones
            # rather than dropping traffic on the floor.
            now = self._now()
            unbanned = [c for c in candidates if not self._health[c.name].is_banned(now)]
            if unbanned:
                candidates = unbanned
        if self.policy == "weighted-rr":
            choice = self._pick_weighted_rr(candidates)
        elif self.policy == "jsq":
            choice = self._pick_min(candidates, self._probe_pending_tokens)
        elif self.policy == "slo-feedback":
            # The fleet-wide best tail is invariant within one routing
            # decision: computing it once keeps the probe O(clusters).
            self._fleet_best = self._fleet_best_p99()
            choice = self._pick_min(candidates, self._slo_feedback_score)
        else:  # least-outstanding
            choice = self._pick_min(candidates, self._outstanding_score)
        self.traffic[choice.name].note_submitted(request)
        return choice

    def note_completed(self, cluster_name: str, request: Request) -> None:
        """Record a completion (wired to each cluster scheduler's hook)."""
        mean_tbt = request.mean_tbt
        self.traffic[cluster_name].note_completed(request, mean_tbt)
        health = self._health.get(cluster_name)
        if health is not None:
            health.record(self._is_error(request, mean_tbt), self._now())

    def note_failure(self, cluster_name: str) -> None:
        """Record a machine failure on a cluster as a reliability error."""
        health = self._health.get(cluster_name)
        if health is not None:
            health.record(True, self._now())

    def note_evacuated(self, cluster_name: str, requests) -> None:
        """Un-count requests evacuated from a cluster before rerouting them.

        Keeps ``outstanding`` truthful: the evacuated request will be
        re-submitted (and counted) on whichever cluster it lands on next.
        """
        traffic = self.traffic[cluster_name]
        for request in requests:
            traffic.note_withdrawn(request)

    def observe_health(self, callback: Callable[[str, str, float], None]) -> None:
        """Subscribe ``callback(cluster_name, state, now)`` to health transitions.

        Used by the observability plane to trace ban/probation/recovery
        events as they happen (the state machine itself stores no history).
        No-op without reliability tracking.
        """
        for name, health in self._health.items():
            health.observer = (
                lambda state, now, _name=name: callback(_name, state, now)
            )

    def total_outstanding(self) -> int:
        """Fleet-wide in-flight requests (admission-control pressure signal)."""
        return sum(traffic.outstanding for traffic in self.traffic.values())

    @property
    def bans_issued(self) -> int:
        """Total reliability bans issued across the fleet so far."""
        return sum(health.bans for health in self._health.values())

    def _is_error(self, request: Request, mean_tbt: float | None) -> bool:
        """Classify a completion (its ``mean_tbt`` passed in) as an SLO-violating error."""
        reliability = self.reliability
        reference = self.reference_model
        if reference is None or reliability is None:
            return False
        ttft = request.ttft
        if ttft is not None:
            reference_ttft = reference.ttft(request.prompt_tokens)
            if reference_ttft > 0 and ttft / reference_ttft > reliability.ttft_slowdown_limit:
                return True
        if mean_tbt is not None:
            reference_tbt = reference.tbt(1)
            if reference_tbt > 0 and mean_tbt / reference_tbt > reliability.tbt_slowdown_limit:
                return True
        return False

    # -- policy internals --------------------------------------------------------------

    def _pick_min(self, candidates, score) -> "FleetCluster":
        best = None
        best_score = None
        for cluster in candidates:
            cluster_score = score(cluster)
            if best_score is None or cluster_score < best_score or (
                cluster_score == best_score and cluster.name < best.name
            ):
                best = cluster
                best_score = cluster_score
        return best

    def _pick_weighted_rr(self, candidates) -> "FleetCluster":
        """Smooth weighted round-robin over machine-count weights."""
        total = 0.0
        best = None
        for cluster in candidates:
            weight = float(cluster.num_machines)
            total += weight
            credit = self._wrr_credit[cluster.name] + weight
            self._wrr_credit[cluster.name] = credit
            if best is None or credit > self._wrr_credit[best.name] or (
                credit == self._wrr_credit[best.name] and cluster.name < best.name
            ):
                best = cluster
        self._wrr_credit[best.name] -= total
        return best

    @staticmethod
    def _probe_pending_tokens(cluster: "FleetCluster") -> float:
        """Queue-probe: total pending tokens across the cluster's machines."""
        return float(sum(total_queue_load(m) for m in cluster.scheduler.machines))

    def _outstanding_score(self, cluster: "FleetCluster") -> float:
        """In-flight requests (least-outstanding key)."""
        return float(self.traffic[cluster.name].outstanding)

    def _slo_feedback_score(self, cluster: "FleetCluster") -> float:
        """Outstanding load scaled by rolling tail-latency degradation.

        The degradation factor compares the cluster's rolling P99 TTFT/TBT
        against the healthiest routable cluster (``self._fleet_best``,
        refreshed once per routing decision); a cluster 2x worse on its tail
        receives half the traffic share at equal queue depth.  Clusters with
        no samples yet are treated as healthy.
        """
        best_ttft, best_tbt = self._fleet_best
        ttft, tbt = self.traffic[cluster.name].rolling_p99()
        degradation = 1.0
        if best_ttft > 0 and ttft > 0:
            degradation = max(degradation, ttft / best_ttft)
        if best_tbt > 0 and tbt > 0:
            degradation = max(degradation, tbt / best_tbt)
        return (self.traffic[cluster.name].outstanding + 1.0) * degradation

    def _fleet_best_p99(self) -> tuple[float, float]:
        """Smallest non-zero rolling P99 TTFT/TBT across routable clusters."""
        best_ttft = 0.0
        best_tbt = 0.0
        for cluster in self._clusters:
            if not cluster.routable:
                continue
            ttft, tbt = self.traffic[cluster.name].rolling_p99()
            if ttft > 0 and (best_ttft == 0 or ttft < best_ttft):
                best_ttft = ttft
            if tbt > 0 and (best_tbt == 0 or tbt < best_tbt):
                best_tbt = tbt
        return best_ttft, best_tbt

    # -- reporting ---------------------------------------------------------------------
