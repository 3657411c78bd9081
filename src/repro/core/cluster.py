"""End-to-end cluster simulation.

:class:`ClusterSimulation` instantiates the machines of a
:class:`~repro.core.designs.ClusterDesign`, wires them to a
:class:`~repro.core.cluster_scheduler.ClusterScheduler`, replays a request
trace through the discrete-event engine, and returns a
:class:`SimulationResult` with every request's timestamps plus cluster-level
metrics (utilization, energy, batch occupancy).

This is the reproduction of the paper's SplitwiseSim (Section V-B): the same
inputs (trace, performance model, cluster and scheduler configuration) and
the same outputs (per-request TTFT/TBT/E2E, machine utilization levels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.batching.policies import RequestLevelBatching, make_policy
from repro.core.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.core.cluster_scheduler import ClusterScheduler
from repro.core.designs import ClusterDesign
from repro.core.kv_transfer import KVTransferModel
from repro.core.machine import MachineRole, SimulatedMachine
from repro.hardware.interconnect import infiniband_for
from repro.hardware.machine import DGX_A100
from repro.metrics.collectors import BatchOccupancyTracker, MetricsCollector
from repro.metrics.slo import DEFAULT_SLO, SloPolicy, SloReport, evaluate_slo
from repro.metrics.summary import RequestMetrics, summarize_requests
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.models.performance import AnalyticalPerformanceModel, PerformanceModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import ARRIVAL_EVENT_PRIORITY, FAULT_EVENT_PRIORITY
from repro.simulation.request import Request
from repro.workload.trace import Trace


@dataclass
class SimulationResult:
    """Everything a cluster simulation produced.

    Attributes:
        design: The cluster design that was simulated.
        trace_name: Name of the input trace.
        requests: All requests that were submitted (completed or not).
        metrics: Per-machine iteration metrics.
        duration_s: Simulated time span (last event time).
        scheduler: The cluster scheduler (exposes pool statistics).
        autoscaler: The pool autoscaler that drove the run (None for a
            statically provisioned run); exposes the re-purposing timeline
            and machine-hour accounting.
    """

    design: ClusterDesign
    trace_name: str
    requests: list[Request]
    metrics: MetricsCollector
    duration_s: float
    scheduler: ClusterScheduler = field(repr=False)
    autoscaler: PoolAutoscaler | None = field(default=None, repr=False)

    @property
    def completed_requests(self) -> list[Request]:
        """Requests that generated all their output tokens."""
        return [r for r in self.requests if r.is_complete]

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted requests that completed."""
        return len(self.completed_requests) / len(self.requests) if self.requests else 0.0

    def request_metrics(self) -> RequestMetrics:
        """Latency and throughput summary over completed requests."""
        return summarize_requests(self.requests, duration_s=self.duration_s)

    def slo_report(
        self,
        reference_model: PerformanceModel | None = None,
        policy: SloPolicy = DEFAULT_SLO,
        model: ModelSpec | None = None,
    ) -> SloReport:
        """Evaluate the paper's Table VI SLO against an uncontended reference.

        Args:
            reference_model: Reference performance model; defaults to the
                model running on an uncontended DGX-A100 (the paper's choice).
            policy: SLO percentile limits.
            model: LLM used to build the default reference model.
        """
        if reference_model is None:
            reference_model = AnalyticalPerformanceModel(model or LLAMA2_70B, DGX_A100)
        return evaluate_slo(self.requests, reference_model, policy)

    def total_energy_wh(self) -> float:
        """Total GPU energy consumed by the cluster in watt-hours."""
        return self.metrics.total_energy_wh()

    def occupancy_by_home_role(self, role: MachineRole) -> BatchOccupancyTracker:
        """Merged batch-occupancy CDF of all machines with the given home role (Fig. 17)."""
        names = [m.name for m in self.scheduler.machines_by_home_role(role)]
        return self.metrics.group_occupancy(names)

    def machine_hours(self) -> float:
        """Machine-hours consumed over the simulated span.

        A statically provisioned run pays for every machine the whole time;
        an autoscaled run subtracts the intervals machines spent parked.
        """
        static_hours = self.design.num_machines * self.duration_s / 3600.0
        if self.autoscaler is None:
            return static_hours
        return self.autoscaler.active_machine_hours(self.duration_s, self.design.num_machines)


class ClusterSimulation:
    """Builds and runs one cluster simulation.

    Args:
        design: The cluster design to instantiate.
        model: The LLM served by every machine.
        max_prompt_batch_tokens: MLS prompt batching limit.
        max_batch_size: MLS batch size limit.
        prompt_queue_threshold: CLS overflow threshold for prompt machines.
        decode_queue_threshold: CLS overflow threshold for token machines.
        batching: Batching policy name for every machine (``"mixed"``, the
            paper's default, or ``"continuous"`` / ``"request-level"`` for the
            Fig. 2 comparison).  Request-level batching needs an unsplit
            design: it decodes only the batch a machine admitted from its
            own prompt queue, and a Splitwise token machine receives its
            requests by KV transfer instead.
        routing: CLS routing policy (``"jsq"``, ``"round-robin"``, ``"random"``).
        fast_forward: Coalesce steady-state decode runs into macro-events on
            every machine (bit-identical results; see
            :mod:`repro.core.machine`).
        autoscaler: Optional dynamic pool autoscaler: a
            :class:`~repro.core.autoscaler.PoolAutoscaler`, an
            :class:`~repro.core.autoscaler.AutoscalerConfig` (wrapped in a
            fresh autoscaler), or ``True`` for the default configuration.
            Requires a split design.
        engine: Optional externally owned simulation engine.  A fleet
            simulation passes one shared engine to every member cluster so
            all clusters advance on a single timeline; standalone clusters
            keep building their own.
        name: Optional cluster name.  When given, machine names are prefixed
            (``"{name}/prompt-0"``) so machines from different clusters of
            one fleet never collide in logs, failure injections, or metrics.

    Raises:
        ValueError: if ``batching`` is request-level on a split design.
    """

    def __init__(
        self,
        design: ClusterDesign,
        model: ModelSpec = LLAMA2_70B,
        max_prompt_batch_tokens: int = 2048,
        max_batch_size: int = 64,
        prompt_queue_threshold: int | None = None,
        decode_queue_threshold: int | None = None,
        batching: str = "mixed",
        routing: str = "jsq",
        fast_forward: bool = True,
        autoscaler: PoolAutoscaler | AutoscalerConfig | bool | None = None,
        engine: SimulationEngine | None = None,
        name: str = "",
    ) -> None:
        if design.split and isinstance(make_policy(batching), RequestLevelBatching):
            raise ValueError(
                f"request-level batching cannot run split design {design.label!r}: its token "
                "machines receive requests by KV transfer, not through a prompt queue"
            )
        self.design = design
        self.model = model
        self.batching = batching
        self.routing = routing
        self.fast_forward = fast_forward
        self.name = name
        if autoscaler is True:
            autoscaler = PoolAutoscaler()
        elif isinstance(autoscaler, AutoscalerConfig):
            autoscaler = PoolAutoscaler(autoscaler)
        elif autoscaler is False:
            autoscaler = None
        self.autoscaler: PoolAutoscaler | None = autoscaler
        self.engine = engine if engine is not None else SimulationEngine()
        self.metrics = MetricsCollector()
        self.machines = self._build_machines(max_prompt_batch_tokens, max_batch_size)
        scheduler_kwargs = {}
        if prompt_queue_threshold is not None:
            scheduler_kwargs["prompt_queue_threshold"] = prompt_queue_threshold
        if decode_queue_threshold is not None:
            scheduler_kwargs["decode_queue_threshold"] = decode_queue_threshold
        self.scheduler = ClusterScheduler(
            engine=self.engine,
            machines=self.machines,
            model=model,
            split=design.split,
            routing=routing,
            **scheduler_kwargs,
        )

    def _build_machines(self, max_prompt_batch_tokens: int, max_batch_size: int) -> list[SimulatedMachine]:
        design = self.design
        prefix = f"{self.name}/" if self.name else ""
        if design.split:
            # Every prompt machine shares one transfer model over the
            # prompt-to-token link.
            link = infiniband_for(design.prompt_machine.interconnect_gbps, design.token_machine.interconnect_gbps)
            pools = (
                ("prompt", MachineRole.PROMPT, design.prompt_machine, design.num_prompt,
                 KVTransferModel(model=self.model, link=link)),
                ("token", MachineRole.TOKEN, design.token_machine, design.num_token, None),
            )
        else:
            pools = (("machine", MachineRole.MIXED, design.prompt_machine, design.num_prompt, None),)
        return [
            SimulatedMachine(
                name=f"{prefix}{stem}-{index}",
                spec=spec,
                model=self.model,
                engine=self.engine,
                role=role,
                # A fresh policy per machine: request-level batching keeps
                # per-machine state.
                policy=make_policy(self.batching),
                metrics=self.metrics,
                kv_transfer=kv_transfer,
                max_prompt_batch_tokens=max_prompt_batch_tokens,
                max_batch_size=max_batch_size,
                fast_forward=self.fast_forward,
            )
            for stem, role, spec, count, kv_transfer in pools
            for index in range(count)
        ]

    def run(self, trace: Trace, failures: Sequence[tuple[float, str]] = ()) -> SimulationResult:
        """Replay ``trace`` through the cluster until every request completes.

        Args:
            trace: The request trace to replay.
            failures: Optional ``(time_s, machine_name)`` machine failures to
                inject; affected requests restart from scratch (§IV-E).

        Returns:
            The populated :class:`SimulationResult`.
        """
        requests = [Request(descriptor=descriptor) for descriptor in trace]
        self.prepare(failures)
        for request in requests:
            self.engine.schedule_at(
                request.arrival_time,
                lambda req=request: self.scheduler.submit(req),
                priority=ARRIVAL_EVENT_PRIORITY,
                tag=f"arrival:{request.request_id}",
            )
        self.engine.run()
        duration = max(self.engine.now, trace.duration_s)
        if self.autoscaler is not None:
            # The trailing autoscaler tick that observes the drain fires up to
            # one interval after the last real event; excluding that
            # controller-only tail keeps the simulated window comparable with
            # a static run of the same trace (machine-hour comparisons would
            # otherwise charge the autoscaled run for idle clock it never
            # worked).  Ticks never act after the last completion, so no
            # timeline event falls outside the reported window.
            last_work = max(
                (r.completion_time for r in requests if r.completion_time is not None),
                default=0.0,
            )
            last_failure = max((time_s for time_s, _ in failures), default=0.0)
            duration = max(trace.duration_s, last_work, last_failure)
        return self.finish(requests, trace.name, duration)

    # -- fleet lifecycle hooks ----------------------------------------------------------
    #
    # A fleet simulation owns the arrival schedule and the engine loop itself;
    # it drives each member cluster through prepare() before the run and
    # finish() after, instead of calling run().

    def prepare(self, failures: Sequence[tuple[float, str]] = ()) -> None:
        """Arm the cluster for a run on its (possibly shared) engine.

        Attaches the autoscaler's control loop and schedules any failure
        injections.  Called by :meth:`run`, or by a fleet simulation before
        it starts scheduling arrivals.

        Raises:
            ValueError: if a failure injection names a machine this cluster
                does not have, or fires at a negative time, or if the
                failures fail every machine while the scheduler has no
                ``evacuation_handler`` to take the displaced work (failures
                are permanent, so the run could never drain).  Validated
                here, at scenario-build time, so a typo surfaces as a clear
                error before the run instead of a mid-simulation exception.
        """
        known = {machine.name for machine in self.machines}
        label = self.name or self.design.label
        for failure_time, machine_name in failures:
            if machine_name not in known:
                raise ValueError(
                    f"failure injection at t={failure_time} names unknown machine "
                    f"{machine_name!r}; cluster {label!r} machines: {sorted(known)}"
                )
            if failure_time < 0:
                raise ValueError(
                    f"failure injection for {machine_name!r} has negative time {failure_time}"
                )
        lost_at = self.lost_at(failures)
        if lost_at is not None and self.scheduler.evacuation_handler is None:
            raise ValueError(
                f"failure injections fail every machine of cluster {label!r} by t={lost_at} "
                f"({', '.join(sorted(known))}); no machine would be left to serve its requests"
            )
        if self.autoscaler is not None:
            self.autoscaler.attach(self.engine, self.scheduler)
        for failure_time, machine_name in failures:
            self.engine.schedule_at(
                failure_time,
                lambda name=machine_name: self.scheduler.fail_machine(name),
                priority=FAULT_EVENT_PRIORITY,
                tag=f"failure:{machine_name}",
            )

    def lost_at(self, failures: Sequence[tuple[float, str]]) -> float | None:
        """When ``failures`` have failed every machine of the cluster (``None``: never)."""
        first: dict[str, float] = {}
        for failure_time, machine_name in failures:
            first[machine_name] = min(failure_time, first.get(machine_name, failure_time))
        if any(machine.name not in first for machine in self.machines):
            return None
        return max(first[machine.name] for machine in self.machines)

    def finish(self, requests: list[Request], trace_name: str, duration_s: float) -> SimulationResult:
        """Close out a drained run and assemble this cluster's :class:`SimulationResult`.

        Every run drains, so no machine may still hold an in-flight
        iteration, fast-forward run or rotation: that state would mean work
        the result never sees.  Clearing the machines' callbacks (bound
        methods of the scheduler that holds them) lets refcounting free a
        dropped result's machines.  Then the autoscaler's machine-hour
        intervals are finalized and the result packaged.

        Raises:
            AccountingError: naming the first machine that still holds
                in-flight state.
        """
        for machine in self.machines:
            machine.check_drained()
            machine.on_prompt_complete = machine.on_request_complete = machine.on_iteration_complete = None
        if self.autoscaler is not None:
            self.autoscaler.finalize(duration_s)
        return SimulationResult(
            design=self.design,
            trace_name=trace_name,
            requests=requests,
            metrics=self.metrics,
            duration_s=duration_s,
            scheduler=self.scheduler,
            autoscaler=self.autoscaler,
        )


def simulate_design(
    design: ClusterDesign,
    trace: Trace,
    model: ModelSpec = LLAMA2_70B,
    failures: Sequence[tuple[float, str]] = (),
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`ClusterSimulation` and run it."""
    simulation = ClusterSimulation(design=design, model=model, **kwargs)
    return simulation.run(trace, failures=failures)

