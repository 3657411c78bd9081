"""Sharded parallel execution of decomposable fleet simulations.

A :class:`~repro.fleet.fleet.FleetSimulation` normally advances every member
cluster on one shared :class:`~repro.simulation.engine.SimulationEngine`.
This module partitions the fleet into *shards* — disjoint cluster groups,
each with its own engine — and runs them as a one-shot fan-out, optionally on
``multiprocessing`` workers.  The coordinator routes every arrival up front
(the router is the single cross-shard decision point of a decomposable
fleet) and hands each shard its whole routed arrival list; each shard
schedules those arrivals, drains its engine, and returns completions,
per-machine metrics, and engine counters, which the coordinator merges into
one :class:`~repro.fleet.fleet.FleetResult`.

Decomposability (:func:`plan_shards`) is conservative: a fleet qualifies for
parallel execution only when no component feeds cross-cluster state back
into routing or scheduling mid-run (each coupling it checks is a recorded
reason).  Plain machine failure injections *are* shard-local (requests
restart on the surviving machines of the same cluster) and stay eligible,
unless they fail every machine of a cluster: its work must then reroute to
other clusters.  Anything else falls back to the exact serial code path, so
results are trivially byte-identical.

Determinism of the parallel path rests on three facts, each load-bearing:

* Pre-routing order equals serial routing order.  Serial fleets schedule
  arrivals at :data:`~repro.simulation.events.ARRIVAL_EVENT_PRIORITY` in
  trace order, so the heap executes them by ``(arrival_time, trace_index)``;
  the coordinator routes in exactly that sort order, through the *same*
  router instance, so every request lands on the same cluster.
* A shard's heap replays its slice of the serial heap.  Each shard schedules
  its failure injections and then its arrivals (in that same sort order),
  just as the serial fleet does, and a decomposable fleet never schedules an
  event that reaches another cluster — so the serial events touching a
  shard's clusters execute in the shard in the same relative order.
* Shard merge is positional: completions are keyed by trace index, machine
  stats by machine name, so the merge is independent of worker count,
  shard assignment, and worker completion order.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.simulation.engine import SimulationEngine
from repro.simulation.events import ARRIVAL_EVENT_PRIORITY
from repro.simulation.request import Request, RequestPhase

if TYPE_CHECKING:  # pragma: no cover - typing only (fleet layers above simulation)
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from repro.fleet.fleet import FleetSimulation


#: A routed arrival handed to a shard: ``(trace_index, descriptor,
#: cluster_name)``.  The descriptor carries the arrival time.
RoutedArrival = tuple[int, Any, str]


class ShardWorkerError(RuntimeError):
    """A shard worker raised; carries the worker-side traceback text."""


@dataclass(frozen=True)
class ShardPlan:
    """Outcome of the decomposability analysis for one fleet run.

    Attributes:
        requested: Worker count the caller asked for (``parallel=N``).
        workers: OS worker processes to launch (0 = the shards run one
            after another in the coordinator process, used for ``N=1``).
        shard_count: Engine shards (min of requested workers and clusters).
        mode: ``"parallel"`` when the fleet decomposes, ``"serial"`` when it
            must fall back to the single shared engine.
        reasons: Human-readable couplings that blocked parallel execution
            (empty when ``mode == "parallel"``).
        assignments: Cluster names per shard (round-robin partition),
            empty on serial fallback.
    """

    requested: int
    workers: int
    shard_count: int
    mode: str
    reasons: tuple[str, ...]
    assignments: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its cluster group from scratch.

    Picklable by construction: designs, models, and cluster kwargs are plain
    frozen dataclasses / scalars.  Workers never receive live simulation
    objects — each builds fresh :class:`~repro.core.cluster.ClusterSimulation`
    instances on its own engine, which is what makes shard state trivially
    serializable.
    """

    shard_id: int
    cluster_names: tuple[str, ...]
    design: Any
    model: Any
    cluster_kwargs: tuple[tuple[str, Any], ...]
    failures: tuple[tuple[float, str], ...]
    sanitize: bool


@dataclass
class ShardResult:
    """A shard's complete output, shipped back after its engine drains.

    ``request_rows`` hold one tuple per routed request (see
    :func:`request_row`); ``machine_stats`` maps cluster name to that
    cluster's :meth:`~repro.metrics.collectors.MetricsCollector.export_machine_stats`
    payload.  ``end_time`` is the drained shard engine's clock, i.e. its
    last executed event time.
    """

    end_time: float
    events_processed: int
    events_cancelled: int
    events_coalesced: int
    heap_compactions: int
    request_rows: list[tuple]
    machine_stats: dict[str, dict[str, dict]]


def plan_shards(
    fleet: "FleetSimulation", requested: int, failures: Sequence[tuple[float, str]] = ()
) -> ShardPlan:
    """Decide whether (and how) a fleet run can execute as parallel shards.

    Args:
        fleet: The fleet about to run.
        requested: Requested worker count (``parallel=N``, must be >= 1).
        failures: The run's ``(time_s, machine_name)`` failure injections.

    Returns:
        A :class:`ShardPlan`; ``mode == "serial"`` lists every coupling that
        forces the fallback.
    """
    if requested < 1:
        raise ValueError(f"parallel worker count must be >= 1, got {requested}")
    reasons: list[str] = []
    if len(fleet.clusters) < 2:
        reasons.append("fewer than two clusters: nothing to shard")
    policy = fleet.router.policy
    if policy != "weighted-rr":
        reasons.append(
            f"router policy {policy!r} feeds completion/outstanding state back into routing"
        )
    if fleet.router.reliability is not None:
        reasons.append("router reliability tracking consumes cross-cluster error feedback")
    if fleet.provisioner is not None:
        reasons.append("provisioner acts on fleet-wide pressure at its own cadence")
    if fleet.admission is not None:
        reasons.append("admission control sheds on fleet-wide outstanding load")
    if fleet.lifecycle is not None:
        reasons.append("lifecycle layer re-routes retries/hedges across clusters")
    if fleet.faults is not None and fleet.faults.enabled:
        reasons.append("armed fault plane injects correlated cross-cluster outages")
    if fleet.obs is not None:
        reasons.append("observability plane records one fleet-wide timeline")
    for cluster in fleet.clusters:
        if cluster.simulation.lost_at(failures) is not None:
            reasons.append(f"failure injections fail every machine of {cluster.name}: its work reroutes")
    if reasons:
        return ShardPlan(
            requested=requested,
            workers=0,
            shard_count=1,
            mode="serial",
            reasons=tuple(reasons),
            assignments=(),
        )
    names = [cluster.name for cluster in fleet.clusters]
    shard_count = min(requested, len(names))
    assignments = tuple(tuple(names[index::shard_count]) for index in range(shard_count))
    workers = shard_count if requested > 1 else 0
    return ShardPlan(
        requested=requested,
        workers=workers,
        shard_count=shard_count,
        mode="parallel",
        reasons=(),
        assignments=assignments,
    )


# -- request row transfer ---------------------------------------------------------


def request_row(index: int, request: Request) -> tuple:
    """Pack one simulated request into a flat picklable row.

    The row carries plain scalars and the request's packed ``array('d')`` of
    token times — no live simulation objects cross the process boundary.
    """
    return (
        index,
        request.phase.value,
        request.prompt_machine,
        request.token_machine,
        request.prompt_start_time,
        request.first_token_time,
        request.completion_time,
        request.generated_tokens,
        request.kv_transfer_start,
        request.kv_transfer_end,
        request.priority_boost,
        request.restarts,
        request.token_times,
    )


def apply_request_row(request: Request, row: tuple) -> None:
    """Hydrate a coordinator-side request from a worker's :func:`request_row`.

    The coordinator's request was never simulated; after this it carries the
    worker-observed state and token series bit-for-bit.
    """
    request.phase = RequestPhase(row[1])
    request.prompt_machine = row[2]
    request.token_machine = row[3]
    request.prompt_start_time = row[4]
    request.first_token_time = row[5]
    request.completion_time = row[6]
    request.generated_tokens = row[7]
    request.kv_transfer_start = row[8]
    request.kv_transfer_end = row[9]
    request.priority_boost = row[10]
    request.restarts = row[11]
    request.token_times = row[12]


# -- running shards ---------------------------------------------------------------


def run_shard(spec: ShardSpec, arrivals: Sequence[RoutedArrival]) -> ShardResult:
    """Simulate one shard to completion and package its output for the merge.

    Builds the shard's clusters on a private engine, arms their failure
    injections, schedules every routed arrival, and drains the engine.
    ``arrivals`` must be in serial routing order (sorted by arrival time
    with trace order breaking ties).
    """
    from repro.core.cluster import ClusterSimulation

    engine = SimulationEngine(sanitize=spec.sanitize)
    sanitizer = engine.sanitizer
    if sanitizer is not None:
        # Mirror the serial fleet's stream discipline: trace and fault
        # randomness is spent before the event loop runs.
        sanitizer.register_stream("trace", run_phase=False)
        sanitizer.register_stream("fault", run_phase=False)
    kwargs = dict(spec.cluster_kwargs)
    simulations: dict[str, ClusterSimulation] = {}
    for name in spec.cluster_names:
        simulation = ClusterSimulation(spec.design, model=spec.model, engine=engine, name=name, **kwargs)
        prefix = f"{name}/"
        simulation.prepare(
            [(time_s, machine) for time_s, machine in spec.failures if machine.startswith(prefix)]
        )
        simulations[name] = simulation
    roster: list[tuple[int, Request]] = []
    for index, descriptor, cluster_name in arrivals:
        request = Request(descriptor=descriptor)
        roster.append((index, request))
        engine.schedule_at(
            request.arrival_time,
            lambda sched=simulations[cluster_name].scheduler, req=request: sched.submit(req),
            priority=ARRIVAL_EVENT_PRIORITY,
            tag=f"fleet-arrival:{request.request_id}",
        )
    engine.run()
    return ShardResult(
        end_time=engine.now,
        events_processed=engine.events_processed,
        events_cancelled=engine.events_cancelled,
        events_coalesced=engine.events_coalesced,
        heap_compactions=engine.heap_compactions,
        request_rows=[request_row(index, request) for index, request in roster],
        machine_stats={
            name: simulation.metrics.export_machine_stats()
            for name, simulation in simulations.items()
        },
    )


def _worker_main(connection: "Connection", spec: ShardSpec, arrivals: Sequence[RoutedArrival]) -> None:
    """Worker-process entry point: run one shard and send back its outcome.

    Sends exactly one message — ``("ok", ShardResult)`` or ``("error",
    traceback_text)`` — then returns.
    """
    try:
        reply: tuple[str, Any] = ("ok", run_shard(spec, arrivals))
    except Exception:
        reply = ("error", traceback.format_exc())
    try:
        connection.send(reply)
    except (BrokenPipeError, OSError):  # pragma: no cover - coordinator died
        pass
    finally:
        connection.close()


def execute_shards(
    specs: Sequence[ShardSpec],
    arrivals: Sequence[Sequence[RoutedArrival]],
    use_processes: bool,
) -> list[ShardResult]:
    """Run every shard to completion and collect the results in shard-id order.

    Args:
        specs: One spec per shard.
        arrivals: Per-shard routed arrivals, each list in serial routing
            order (sorted by arrival time with trace order breaking ties).
        use_processes: Launch one worker process per shard (``fork`` where
            the platform has it, else ``spawn``); ``False`` runs the shards
            one after another in this process.

    Raises:
        ShardWorkerError: A worker raised; the message carries its
            traceback.  Every worker has been joined by then.
    """
    if not use_processes:
        return [run_shard(spec, shard_arrivals) for spec, shard_arrivals in zip(specs, arrivals)]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    workers: list[tuple["Connection", "BaseProcess"]] = []
    try:
        for spec, shard_arrivals in zip(specs, arrivals):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_main,
                args=(sender, spec, shard_arrivals),
                name=f"repro-shard-{spec.shard_id}",
                daemon=True,
            )
            process.start()
            sender.close()
            workers.append((receiver, process))
        results: list[ShardResult] = []
        for receiver, _ in workers:
            try:
                kind, payload = receiver.recv()
            except EOFError as exc:  # pragma: no cover - worker crashed hard
                raise ShardWorkerError("shard worker exited without replying") from exc
            if kind != "ok":
                raise ShardWorkerError(f"shard worker failed:\n{payload}")
            results.append(payload)
        return results
    except BaseException:
        for _, process in workers:
            process.terminate()
        raise
    finally:
        for receiver, process in workers:
            receiver.close()
            process.join()
