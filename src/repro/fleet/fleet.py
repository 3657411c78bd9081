"""Fleet simulation: several phase-split clusters behind one global router.

The paper sizes and operates a *single* Splitwise cluster.  A production
service runs fleets of such clusters: a global front-end routes each request
to one cluster, tenants share it, and capacity is rented
elastically.  :class:`FleetSimulation` models exactly that, inside a single
deterministic :class:`~repro.simulation.engine.SimulationEngine`:

* every member cluster is a full :class:`~repro.core.cluster.ClusterSimulation`
  (machines, cluster scheduler, KV transfers), advancing on the shared
  engine's timeline;
* a :class:`~repro.fleet.router.FleetRouter` assigns each arriving request
  to a cluster under a pluggable, tenant-aware policy;
* an optional :class:`~repro.fleet.provisioner.FleetProvisioner` cloud-bursts
  standby clusters under pressure and drains-then-retires them when idle,
  with machine-hour/cost accounting against static provisioning;
* the result judges every tenant, and the fleet as a whole, by the paper's
  Table VI SLO (:func:`~repro.metrics.slo.evaluate_slo_by_tenant`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.cluster import ClusterSimulation, SimulationResult
from repro.core.designs import ClusterDesign
from repro.fleet.provisioner import ClusterState, FleetProvisioner, FleetProvisionerConfig
from repro.fleet.reliability import (
    DeadlineConfig,
    DegradedConfig,
    HedgeConfig,
    ReliabilityCoordinator,
    RetryPolicy,
)
from repro.fleet.router import AdmissionConfig, FleetRouter, ReliabilityConfig

if TYPE_CHECKING:  # pragma: no cover - the fault plane layers above the fleet
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlanConfig
    from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
    from repro.simulation.sharding import ShardPlan
from repro.hardware.machine import DGX_A100
from repro.metrics.slo import TenantSloReport, evaluate_slo_by_tenant
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.models.performance import AnalyticalPerformanceModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import ARRIVAL_EVENT_PRIORITY
from repro.simulation.request import Request
from repro.workload.trace import Trace



@dataclass
class FleetCluster:
    """One member cluster of a fleet.

    Attributes:
        name: Fleet-unique cluster name (prefixes its machine names).
        simulation: The full cluster simulation advancing on the shared
            engine.
        state: Provisioning lifecycle state (always ``ACTIVE`` without a
            provisioner).
        routable: Whether the router may send new requests here.  Owned by
            the provisioner lifecycle (or static construction).
        outage: Whether a correlated outage has the cluster down.  Owned by
            the fault plane: an outage sets it, the outage's end clears it.
            Distinct from ``routable`` so an outage and recovery never fight
            the provisioner over the same bit.
        requests: Every request routed to this cluster, in routing order.
    """

    name: str
    simulation: ClusterSimulation
    state: ClusterState = ClusterState.ACTIVE
    routable: bool = True
    outage: bool = False
    requests: list[Request] = field(default_factory=list, repr=False)

    @property
    def available(self) -> bool:
        """Whether the cluster is physically up: no outage, and a machine not failed.

        A cluster whose whole roster has failed (machine failures, not an
        outage) serves nobody either, so the router passes it over until a
        machine recovers.  O(1): the failed pool's size against the roster.
        """
        scheduler = self.simulation.scheduler
        return not self.outage and len(scheduler.failed_pool) < len(scheduler.machines)

    @property
    def scheduler(self):
        """The cluster's cluster-level scheduler."""
        return self.simulation.scheduler

    @property
    def design(self) -> ClusterDesign:
        """The cluster's design."""
        return self.simulation.design

    @property
    def num_machines(self) -> int:
        """Machines in the cluster (router weight, billing unit)."""
        return self.simulation.design.num_machines


@dataclass
class FleetResult:
    """Everything a fleet simulation produced.

    Attributes:
        trace_name: Name of the input trace.
        requests: All submitted requests, in trace order.
        clusters: The member cluster handles (state as of the end of the run).
        cluster_results: Per-cluster :class:`SimulationResult`, keyed by
            cluster name (each holds only the requests routed there).
        duration_s: Simulated window.
        router: The fleet router (routing statistics per cluster/tenant).
        provisioner: The burst provisioner (``None`` for a static fleet).
        model: The LLM served (builds the default SLO reference).
        shed_by_tenant: Requests rejected up front by admission control,
            grouped by tenant (empty without admission control).
        injector: The fault injector that drove the run (``None`` when no
            fault plan was armed); exposes seed and injection provenance.
        expired_by_tenant: Requests cancelled by the request-lifecycle layer
            (missed deadline or exhausted retry budget), grouped by tenant.
        lifecycle: The request-lifecycle coordinator (``None`` when no
            deadline/retry/hedge/degraded config was supplied); exposes
            retry/hedge counters and wasted-work accounting.
    """

    trace_name: str
    requests: list[Request]
    clusters: list[FleetCluster]
    cluster_results: dict[str, SimulationResult]
    duration_s: float
    router: FleetRouter = field(repr=False)
    provisioner: FleetProvisioner | None = field(default=None, repr=False)
    model: ModelSpec = field(default=LLAMA2_70B, repr=False)
    shed_by_tenant: dict[str, int] = field(default_factory=dict)
    injector: "FaultInjector | None" = field(default=None, repr=False)
    expired_by_tenant: dict[str, int] = field(default_factory=dict)
    lifecycle: ReliabilityCoordinator | None = field(default=None, repr=False)

    @property
    def completed_requests(self) -> list[Request]:
        """Requests that generated all their output tokens."""
        return [r for r in self.requests if r.is_complete]

    @property
    def requests_shed(self) -> int:
        """Count of admission-shed requests."""
        return sum(self.shed_by_tenant.values())

    @property
    def requests_expired(self) -> int:
        """Count of lifecycle-expired requests."""
        return sum(self.expired_by_tenant.values())

    @property
    def degraded_requests(self) -> list[Request]:
        """Requests served to completion with a degraded (truncated) output budget."""
        return [r for r in self.requests if r.degraded and r.is_complete]

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted requests that completed.

        Shed and expired requests stay in the denominator: admission control
        and deadlines trade completion rate for the latency of the requests
        they do serve, and hiding the dropped traffic would make that trade
        look free.
        """
        return len(self.completed_requests) / len(self.requests) if self.requests else 0.0

    @property
    def total_machines(self) -> int:
        """Machines across every member cluster (active or standby)."""
        return sum(cluster.num_machines for cluster in self.clusters)

    def tenant_slo_report(self) -> TenantSloReport:
        """Table VI verdicts per tenant plus the fleet-level roll-up.

        The reference is the served model on an uncontended DGX-A100.
        """
        return evaluate_slo_by_tenant(self.requests, AnalyticalPerformanceModel(self.model, DGX_A100))

    def machine_hours(self) -> float:
        """Machine-hours the fleet actually consumed over the window.

        With a burst provisioner, standby/retired intervals are billed at
        their state fraction.  A static fleet pays for every cluster the
        whole window.
        """
        if self.provisioner is not None:
            return self.provisioner.billed_machine_hours()
        return sum(result.machine_hours() for result in self.cluster_results.values())

    def static_machine_hours(self) -> float:
        """Machine-hours of statically provisioning every cluster all window."""
        return self.total_machines * self.duration_s / 3600.0

    def cost(self) -> float:
        """Dollar cost of the consumed machine-hours."""
        if self.provisioner is not None:
            return self.provisioner.billed_cost()
        return sum(
            result.design.cost_per_hour * self.duration_s / 3600.0
            for result in self.cluster_results.values()
        )

    def requests_by_cluster(self) -> dict[str, int]:
        """Requests routed to each cluster."""
        return {cluster.name: len(cluster.requests) for cluster in self.clusters}


class FleetSimulation:
    """Builds and runs a multi-cluster fleet on one shared engine.

    Args:
        design: Design of every member cluster (homogeneous fleets; build
            the cluster list yourself for heterogeneous ones).
        num_clusters: Clusters that start active.
        burst_clusters: Additional standby clusters the provisioner may
            burst into (requires ``provisioner``); the first
            ``warm_pool_target`` start warm, the rest cold.
        model: The LLM served by every cluster.
        router: Router policy name or a pre-built :class:`FleetRouter`.
        provisioner: Burst provisioner — a :class:`FleetProvisioner`, a
            :class:`FleetProvisionerConfig`, or ``True`` for defaults.
        faults: Optional :class:`~repro.faults.plan.FaultPlanConfig`; when
            its processes are enabled, a :class:`FaultInjector` compiles and
            arms a seeded fault plan at the start of :meth:`run`.
        reliability: Optional :class:`~repro.fleet.router.ReliabilityConfig`
            enabling per-cluster error tracking with auto-ban, cool-down,
            and probationary re-admission on the router.
        admission: Optional :class:`~repro.fleet.router.AdmissionConfig`
            enabling per-tenant admission control: under fleet overload the
            lowest-priority tenants' arrivals are shed first.
        retry: Optional :class:`~repro.fleet.reliability.RetryPolicy`
            re-submitting failed attempts through the router (failing
            cluster excluded) under a per-tenant budget with seeded backoff.
        hedge: Optional :class:`~repro.fleet.reliability.HedgeConfig`
            duplicating slow-starting requests onto a second cluster after
            a rolling-P99-derived delay (first attempt wins).
        deadlines: Optional :class:`~repro.fleet.reliability.DeadlineConfig`
            with per-tenant TTFT / end-to-end deadlines enforced by engine
            timers that cancel-and-account expired work.
        degraded: Optional :class:`~repro.fleet.reliability.DegradedConfig`
            serving would-be-shed (and optionally deadline-missing)
            requests with a truncated output budget instead of dropping
            them.  Any of these four being set creates the fleet's
            :class:`~repro.fleet.reliability.ReliabilityCoordinator`.
        parallel: Request sharded execution with this many workers (see
            :mod:`repro.simulation.sharding`).  ``1`` runs the shards one
            after another in-process (no worker processes); ``None`` (the
            default) keeps the plain serial engine.  Fleets whose
            configuration couples clusters mid-run (non-weighted-rr
            routing, provisioner, reliability/admission/lifecycle, armed
            faults, observability) fall back to the serial
            path automatically, recording the reasons in
            :attr:`parallel_info`.
        **cluster_kwargs: Forwarded to every member
            :class:`ClusterSimulation` (batching, routing, thresholds,
            ``fast_forward``, ...).

    Raises:
        ValueError: if ``cluster_kwargs`` carries an ``autoscaler``.  Member
            clusters run without pool autoscalers: the fleet's run could not
            stop their ticks, so it would never drain.
    """

    def __init__(
        self,
        design: ClusterDesign,
        num_clusters: int,
        burst_clusters: int = 0,
        model: ModelSpec = LLAMA2_70B,
        router: FleetRouter | str = "least-outstanding",
        provisioner: FleetProvisioner | FleetProvisionerConfig | bool | None = None,
        faults: "FaultPlanConfig | None" = None,
        reliability: ReliabilityConfig | None = None,
        admission: AdmissionConfig | None = None,
        retry: RetryPolicy | None = None,
        hedge: HedgeConfig | None = None,
        deadlines: DeadlineConfig | None = None,
        degraded: DegradedConfig | None = None,
        parallel: int | None = None,
        **cluster_kwargs,
    ) -> None:
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        if burst_clusters < 0:
            raise ValueError(f"burst_clusters must be >= 0, got {burst_clusters}")
        if provisioner is True:
            provisioner = FleetProvisioner()
        elif isinstance(provisioner, FleetProvisionerConfig):
            provisioner = FleetProvisioner(provisioner)
        elif provisioner is False:
            provisioner = None
        if burst_clusters and provisioner is None:
            raise ValueError("burst_clusters require a provisioner to activate them")
        if "autoscaler" in cluster_kwargs:
            raise ValueError("fleet member clusters cannot take an autoscaler: a fleet run could not stop it")
        if parallel is not None and parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.model = model
        self.parallel = parallel
        #: Provenance of the last run's execution mode: ``None`` until a
        #: run with ``parallel`` set completes (or falls back), then a dict
        #: with requested/effective worker and shard counts, the mode, and
        #: (on fallback) the blocking reasons.  Deterministic content only —
        #: no wall-clock times — so it is safe in byte-compared artifacts.
        self.parallel_info: dict | None = None
        self._design = design
        self._cluster_kwargs = dict(cluster_kwargs)
        self.provisioner: FleetProvisioner | None = provisioner
        self.router = FleetRouter(router) if isinstance(router, str) else router
        if reliability is not None:
            self.router.reliability = reliability
        if self.router.reliability is not None and self.router.reference_model is None:
            # Error classification compares completions against an
            # uncontended run of the served model (the paper's SLO
            # reference hardware).
            self.router.reference_model = AnalyticalPerformanceModel(model, DGX_A100)
        self.admission = admission
        self.faults = faults
        self.injector: "FaultInjector | None" = None
        self.engine = SimulationEngine()
        self.clusters: list[FleetCluster] = []
        warm_target = provisioner.config.warm_pool_target if provisioner is not None else 0
        for index in range(num_clusters + burst_clusters):
            name = f"cluster-{index}"
            simulation = ClusterSimulation(
                design,
                model=model,
                engine=self.engine,
                name=name,
                **cluster_kwargs,
            )
            if index < num_clusters:
                state = ClusterState.ACTIVE
            elif index < num_clusters + warm_target:
                state = ClusterState.WARM
            else:
                state = ClusterState.COLD
            self.clusters.append(
                FleetCluster(
                    name=name,
                    simulation=simulation,
                    state=state,
                    routable=state is ClusterState.ACTIVE,
                )
            )
        self.router.attach(self.clusters, engine=self.engine)
        if any(cfg is not None for cfg in (retry, hedge, deadlines, degraded)):
            self.lifecycle: ReliabilityCoordinator | None = ReliabilityCoordinator(
                self, retry=retry, hedge=hedge, deadlines=deadlines, degraded=degraded
            )
        else:
            self.lifecycle = None
        self._expected = 0
        self._completed = 0
        self._shed = 0
        self._expired = 0
        self.shed_by_tenant: dict[str, int] = {}
        self.expired_by_tenant: dict[str, int] = {}
        #: Opt-in observability plane (``None`` = record nothing, pay
        #: nothing beyond these guard checks on cold paths).
        self.obs: "ObservabilityPlane | None" = None

    def observe(self, config: "ObservabilityConfig") -> "ObservabilityPlane":
        """Opt this fleet into span/metrics recording for its next run.

        The ``repro.obs`` package is imported here, lazily — an unobserved
        fleet never pays for (or depends on) the observability plane.
        """
        from repro.obs.plane import ObservabilityPlane

        self.obs = ObservabilityPlane(config)
        return self.obs

    # -- internal wiring ---------------------------------------------------------------

    def _wire_cluster_hooks(self) -> None:
        """Report completions to the fleet; reroute the work of a cluster that loses every machine."""
        for cluster in self.clusters:
            cluster.scheduler.on_request_complete = (
                lambda request, name=cluster.name: self._on_complete(name, request)
            )
            cluster.scheduler.evacuation_handler = (
                lambda evacuated, lost=cluster: self._reroute(lost, evacuated)
            )

    def _wire_failure_hooks(self) -> None:
        """Report every machine failure to the router's reliability tracking."""
        for cluster in self.clusters:
            cluster.scheduler.on_machine_failed = (
                lambda machine, name=cluster.name: self.router.note_failure(name)
            )

    def _on_complete(self, cluster_name: str, request: Request) -> None:
        if self.lifecycle is not None:
            # First-wins settlement: the coordinator maps hedge clones back
            # to their logical request and suppresses duplicate counts.
            settled = self.lifecycle.on_attempt_complete(cluster_name, request)
            if settled is None:
                return
            request = settled
        self.router.note_completed(cluster_name, request)
        self._completed += 1
        if self._completed + self._shed + self._expired >= self._expected:
            # Every request is accounted for (completed, shed up front, or
            # expired by the lifecycle layer): stop all recurring
            # controllers.  Two or more of them (the fleet provisioner, the
            # metrics ticker) would otherwise keep each other's "queue
            # non-empty" checks true forever.  Controller ticks never act
            # after the last completion, so stopping here is
            # behavior-neutral.
            self._stop_controllers()

    def _stop_controllers(self) -> None:
        if self.provisioner is not None:
            # A draining cluster whose final request is the fleet's last
            # completion must stop billing now, not at a tick that will
            # never fire.
            self.provisioner.retire_drained()
            self.provisioner.stop()
        if self.obs is not None:
            # The metrics ticker is a recurring engine event too: left
            # running it would advance the clock past the last completion.
            self.obs.stop_ticker()

    def _submit(self, request: Request, readmit: bool = False) -> None:
        if not readmit and self.admission is not None:
            if self.router.total_outstanding() >= self.admission.shed_threshold(request.tenant):
                if self.lifecycle is not None and self.lifecycle.wants_shed_degrade(request):
                    # Degraded service: admit with a truncated output budget
                    # instead of dropping.  Only requests whose budget
                    # actually shrinks take this path — degrading an
                    # already-short request would defeat admission control
                    # without offloading anything.
                    self.lifecycle.degrade_admission(request)
                    if self.obs is not None:
                        self.obs.recorder.note_degraded_admission(request, self.engine.now)
                else:
                    # Over this tenant's headroom: reject up front instead
                    # of queueing.  Evacuated requests being re-routed
                    # (readmit) are exempt — admission gates *new* work, and
                    # dropping already-admitted work on re-route would lose
                    # requests.
                    self._shed_request(request)
                    return
        if self.lifecycle is not None and not readmit:
            self.lifecycle.register(request)
        self._submit_attempt(request)

    def _shed_request(self, request: Request) -> None:
        """Reject a request for good and account it toward the run's census."""
        request.shed = True
        self._shed += 1
        self.shed_by_tenant[request.tenant] = self.shed_by_tenant.get(request.tenant, 0) + 1
        if self.obs is not None:
            self.obs.recorder.note_shed(request, self.engine.now)
        if self._completed + self._shed + self._expired >= self._expected:
            self._stop_controllers()

    def _submit_attempt(self, request: Request, exclude: str | None = None) -> None:
        """Route one attempt (original, retry, or hedge clone) to a cluster.

        When no cluster can take it (every one is down, unroutable, or has
        lost all its machines), the request is shed and its lifecycle
        settled.  A hedge clone always finds one: the lifecycle launches it
        only while another cluster is available.
        """
        cluster = self.router.route(request, exclude=exclude)
        if cluster is None:
            if self.lifecycle is not None:
                self.lifecycle.settle_shed(request)
            self._shed_request(request)
            return
        cluster.requests.append(request)
        if self.obs is not None:
            self.obs.recorder.note_route(request, cluster.name, self.engine.now, "route")
        cluster.scheduler.submit(request)
        if self.lifecycle is not None:
            self.lifecycle.on_routed(request, cluster.name)

    def _note_expired(self, request: Request) -> None:
        """Account a lifecycle-expired request toward the run's census."""
        if self.obs is not None:
            # ``Request.expire`` stores no timestamp, so the expiry instant
            # must be captured here, while the engine clock still holds it.
            self.obs.recorder.note_expired(request, self.engine.now)
        self._expired += 1
        self.expired_by_tenant[request.tenant] = (
            self.expired_by_tenant.get(request.tenant, 0) + 1
        )
        if self._completed + self._shed + self._expired >= self._expected:
            self._stop_controllers()

    # -- fault-plane actions -----------------------------------------------------------

    def begin_outage(self, cluster: FleetCluster) -> None:
        """Take a whole cluster down (correlated failure domain).

        Every machine fails at once; displaced requests are withdrawn from
        the router's books and re-routed across the surviving clusters.
        The cluster stays unavailable until :meth:`end_outage`.
        """
        cluster.outage = True
        if self.obs is not None:
            self.obs.recorder.note_outage(cluster.name, True, self.engine.now)
        self._reroute(cluster, cluster.scheduler.evacuate())

    def end_outage(self, cluster: FleetCluster) -> None:
        """Bring an outaged cluster back: repair done, machines rejoin empty."""
        cluster.outage = False
        if self.obs is not None:
            self.obs.recorder.note_outage(cluster.name, False, self.engine.now)
        cluster.scheduler.recover_all()

    def revoke_cluster(self, cluster: FleetCluster) -> None:
        """Spot revocation: the rented capacity is reclaimed mid-run.

        Unlike an outage the hardware is healthy — the capacity is simply
        taken away for good.  In-flight requests evacuate to the rest of
        the fleet, the machines are restored to a clean state (someone else
        will rent them), and the cluster returns to the cold pool, where
        the provisioner may re-rent it at full cold-start price.
        """
        evacuated = cluster.scheduler.evacuate()
        cluster.scheduler.recover_all()
        # Unroutable before its requests reroute, so none lands back here.
        if self.provisioner is not None:
            self.provisioner.revoke(cluster, "spot revocation")
        else:
            cluster.state = ClusterState.COLD
            cluster.routable = False
        self._reroute(cluster, evacuated)

    def _reroute(self, cluster: FleetCluster, evacuated: list[Request]) -> None:
        """Withdraw requests evacuated from ``cluster`` and route them again.

        Called for an outage, a revocation, and the failure of a cluster's
        last live machine.  The requests leave the router's books and the
        cluster's roster; then the lifecycle coordinator decides retry vs
        expire, or, without one, each is readmitted across the available
        clusters (and shed when there is none).
        """
        self.router.note_evacuated(cluster.name, evacuated)
        if not evacuated:
            return
        evacuated_ids = {id(request) for request in evacuated}
        cluster.requests = [request for request in cluster.requests if id(request) not in evacuated_ids]
        for request in evacuated:
            if self.lifecycle is not None:
                self.lifecycle.on_attempt_failed(cluster.name, request, accounted=True)
            else:
                self._submit(request, readmit=True)

    # -- running -----------------------------------------------------------------------

    def run(self, trace: Trace, failures: Sequence[tuple[float, str]] = ()) -> FleetResult:
        """Replay ``trace`` through the fleet until every request is accounted for.

        Args:
            trace: The request trace (tenant tags drive per-tenant SLO
                reports and tenant-aware routing).
            failures: ``(time_s, machine_name)`` failure injections; machine
                names carry their cluster prefix (``"cluster-0/prompt-1"``).

        Returns:
            The populated :class:`FleetResult`.

        Raises:
            ValueError: if a failure names a machine in no member cluster.
        """
        requests = [Request(descriptor=descriptor) for descriptor in trace]
        # Validate inputs before arming anything: a bad failure name must not
        # leave the shared engine holding scheduled events and attached
        # control loops that cannot be re-attached.
        known_prefixes = tuple(f"{c.name}/" for c in self.clusters)
        for _, name in failures:
            if not name.startswith(known_prefixes):
                raise ValueError(
                    f"failure names machine {name!r} outside every cluster "
                    f"(expected a '<cluster>/' prefix)"
                )
        if self.parallel is not None:
            from repro.simulation.sharding import plan_shards

            plan = plan_shards(self, self.parallel, failures)
            if plan.mode == "parallel":
                return self._run_sharded(trace, requests, failures, plan)
            # Coupled configuration: fall through to the exact serial path
            # below (results are trivially byte-identical to an unparallel
            # run), keeping the blocking reasons as provenance.
            self.parallel_info = {
                "requested": plan.requested,
                "mode": "serial",
                "workers": 0,
                "shards": 1,
                "reasons": list(plan.reasons),
            }
        sanitizer = self.engine.sanitizer
        if sanitizer is not None:
            # The trace and fault seams spend all their randomness before the
            # event loop runs; a mid-run draw from either would make draw
            # order depend on event interleaving and is flagged at the site.
            sanitizer.register_stream("trace", run_phase=False)
            sanitizer.register_stream("fault", run_phase=False)
        self._expected = len(requests)
        self._completed = 0
        self._shed = 0
        self._expired = 0
        self.shed_by_tenant = {}
        self.expired_by_tenant = {}
        if self.lifecycle is not None:
            self.lifecycle.reset()
        self._wire_cluster_hooks()
        if self.lifecycle is not None and self.lifecycle.retry is not None:
            # With a retry policy, failed attempts leave their cluster and
            # re-enter through the router (failing cluster excluded, budget
            # charged).  Without one, schedulers keep the pre-lifecycle
            # behavior: restart locally on the surviving machines.
            for cluster in self.clusters:
                cluster.scheduler.restart_handler = (
                    lambda request, name=cluster.name: self.lifecycle.on_attempt_failed(
                        name, request
                    )
                )
        for cluster in self.clusters:
            prefix = f"{cluster.name}/"
            cluster.simulation.prepare(
                [(t, name) for t, name in failures if name.startswith(prefix)]
            )
        if self.router.reliability is not None:
            self._wire_failure_hooks()
        if self.provisioner is not None:
            self.provisioner.attach(self)
        if self.faults is not None and self.faults.enabled:
            # Imported lazily: the fault plane layers above the fleet, and a
            # fleet without faults must not pay for (or depend on) it.
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(self, self.faults)
            self.injector.arm(trace.duration_s)
        if self.obs is not None:
            # Before the empty-trace check: the plane's metrics ticker is a
            # recurring controller and must be stopped with the others.
            self.obs.begin(self)
        if not requests:
            # Nothing will ever complete, so the completion-driven controller
            # stop below can never fire; with two or more recurring
            # controllers the run would otherwise never drain.
            self._stop_controllers()
        for request in requests:
            self.engine.schedule_at(
                request.arrival_time,
                lambda req=request: self._submit(req),
                priority=ARRIVAL_EVENT_PRIORITY,
                tag=f"fleet-arrival:{request.request_id}",
            )
        self.engine.run()

        duration = max(self.engine.now, trace.duration_s)
        if self.provisioner is not None:
            # Exclude the controller-only tail (same reasoning as the
            # cluster layer): the window ends at the last real work, keeping
            # machine-hour comparisons against static fleets honest.
            last_work = max(
                (r.completion_time for r in requests if r.completion_time is not None),
                default=0.0,
            )
            last_failure = max((time_s for time_s, _ in failures), default=0.0)
            last_provision = max((e.time_s for e in self.provisioner.timeline), default=0.0)
            duration = max(trace.duration_s, last_work, last_failure, last_provision)

        cluster_results = {
            cluster.name: cluster.simulation.finish(cluster.requests, trace.name, duration)
            for cluster in self.clusters
        }
        if self.provisioner is not None:
            self.provisioner.finalize(duration)
        result = FleetResult(
            trace_name=trace.name,
            requests=requests,
            clusters=self.clusters,
            cluster_results=cluster_results,
            duration_s=duration,
            router=self.router,
            provisioner=self.provisioner,
            model=self.model,
            shed_by_tenant=dict(self.shed_by_tenant),
            injector=self.injector,
            expired_by_tenant=dict(self.expired_by_tenant),
            lifecycle=self.lifecycle,
        )
        if self.obs is not None:
            self.obs.finalize(result)
        return result

    def _run_sharded(
        self,
        trace: Trace,
        requests: list[Request],
        failures: Sequence[tuple[float, str]],
        plan: "ShardPlan",
    ) -> FleetResult:
        """Run a decomposable fleet as per-cluster-group engine shards.

        The coordinator routes every arrival up front — serial fleets
        execute arrivals in ``(arrival_time, trace_index)`` heap order, and
        weighted-rr routing depends only on that order, so pre-routing
        through the same router instance reproduces the serial assignment
        exactly.  Each shard then simulates its cluster group to completion
        (:func:`repro.simulation.sharding.execute_shards`) and the results
        merge positionally by trace index and machine name.
        """
        from repro.simulation import sharding

        self._expected = len(requests)
        self._completed = 0
        self._shed = 0
        self._expired = 0
        self.shed_by_tenant = {}
        self.expired_by_tenant = {}
        shard_of: dict[str, int] = {}
        for shard_index, names in enumerate(plan.assignments):
            for name in names:
                shard_of[name] = shard_index
        order = sorted(range(len(requests)), key=lambda i: (requests[i].arrival_time, i))
        arrivals: list[list[sharding.RoutedArrival]] = [[] for _ in plan.assignments]
        for index in order:
            request = requests[index]
            cluster = self.router.route(request)
            assert cluster is not None  # every cluster is up before the run starts
            cluster.requests.append(request)
            arrivals[shard_of[cluster.name]].append((index, request.descriptor, cluster.name))
        cluster_kwargs = tuple(sorted(self._cluster_kwargs.items()))
        specs = [
            sharding.ShardSpec(
                shard_id=shard_index,
                cluster_names=names,
                design=self._design,
                model=self.model,
                cluster_kwargs=cluster_kwargs,
                failures=tuple(failures),
                sanitize=self.engine.sanitize,
            )
            for shard_index, names in enumerate(plan.assignments)
        ]
        results = sharding.execute_shards(specs, arrivals, use_processes=plan.workers > 0)
        by_name = {cluster.name: cluster for cluster in self.clusters}
        for shard_result in results:
            for row in shard_result.request_rows:
                sharding.apply_request_row(requests[row[0]], row)
            for cluster_name, exported in shard_result.machine_stats.items():
                by_name[cluster_name].simulation.metrics.absorb_machine_stats(exported)
        for cluster in self.clusters:
            # Completion counts replicate the serial router's bookkeeping;
            # the rolling latency windows are deliberately left empty — no
            # decomposable configuration consumes them, and they are not
            # part of any serialized result surface.
            completed = sum(1 for request in cluster.requests if request.is_complete)
            self.router.traffic[cluster.name].completed = completed
            self._completed += completed
        duration = max(max(r.end_time for r in results), trace.duration_s)
        cluster_results = {
            cluster.name: cluster.simulation.finish(cluster.requests, trace.name, duration)
            for cluster in self.clusters
        }
        self.parallel_info = {
            "requested": plan.requested,
            "mode": "parallel",
            "workers": plan.workers,
            "shards": plan.shard_count,
            "epochs": 1,  # one fan-out per run; perfbench reports this key
            "events_processed": sum(r.events_processed for r in results),
            "events_cancelled": sum(r.events_cancelled for r in results),
            "events_coalesced": sum(r.events_coalesced for r in results),
            "heap_compactions": sum(r.heap_compactions for r in results),
        }
        return FleetResult(
            trace_name=trace.name,
            requests=requests,
            clusters=self.clusters,
            cluster_results=cluster_results,
            duration_s=duration,
            router=self.router,
            provisioner=None,
            model=self.model,
            shed_by_tenant={},
            injector=None,
            expired_by_tenant={},
            lifecycle=None,
        )
