"""One pass of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per pass, so no earlier pass's results
are alive while a pass runs.  The pass times its work from outside, through
the same public calls ``repro-sim`` and ``repro.experiments`` make, and prints
one JSON line: host-time totals, one record per operation (census and
fingerprint), and, with ``--trace``, the per-layer metrics.

Run by hand (from the repository root)::

    python3 perfbench/bench_pass.py --workload cluster --seed 1
    python3 perfbench/bench_pass.py --workload fleet --seed 1 --trace --out-dir .perfbench_out
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench_checks import census, fingerprint, paper_ratio  # noqa: E402
from bench_trace import Tracer, empty_harvest, merge_harvest  # noqa: E402

MODEL = "Llama2-70B"

#: ``repro-sim simulate --design Splitwise-HH --prompt 25 --token 15 --rate 500
#: --duration 8 --json``: the 40-machine burst, 8 s of traffic (~4k requests)
#: so a pass takes seconds, not tens of seconds.
BURST = {"design": "Splitwise-HH", "prompt": 25, "token": 15, "workload": "conversation",
         "rate": 500.0, "duration": 8.0}

#: ``fig16_latency_vs_load(scaled_design_suite("conversation", 0.15),
#: rates=(6, 12, 18, 24, 30), duration_s=15)``: 30 runs over 6 designs.
ISO = {"workload": "conversation", "scale": 0.15, "rates": (6, 12, 18, 24, 30), "duration": 15.0}

#: The ``fleet`` workload runs two ``repro-sim fleet`` argument sets, in order:
#: the failure storm (static and burst fleets) and the sharded static fleet.
FLEETS = {
    "storm": {"preset": "failure-storm", "clusters": 2, "burst_clusters": 1,
              "policy": "slo-feedback", "scale": 2.0, "no_burst": False, "parallel": None},
    "sharded": {"preset": "mixed-tenant", "clusters": 5, "burst_clusters": 0,
                "policy": "weighted-rr", "scale": 1.6, "no_burst": True, "parallel": 2},
}

#: ``cluster`` runs the burst, then the sweep; ``fleet`` runs both FLEETS.
WORKLOADS = ("cluster", "fleet")

#: Per-layer metrics of a traced pass: name -> (unit, better, in BENCHMARK.json).
#: Times of layers that only some workloads run (rotation, request summaries,
#: fleet, faults, sharding) read exactly 0 elsewhere, so they are printed
#: beside the result, not in it.
LAYER_METRICS: dict[str, tuple[str, str, bool]] = {
    "workload.generate_s": ("s", "lower", True),
    "workload.requests": ("count", "higher", True),
    "engine.run_s": ("s", "lower", True),
    "engine.dispatch_self_s": ("s", "lower", True),
    "engine.unattributed_share": ("fraction", "lower", True),
    "engine.events": ("count", "lower", True),
    "engine.events_coalesced": ("count", "higher", True),
    "engine.events_cancelled": ("count", "lower", True),
    "engine.heap_compactions": ("count", "lower", True),
    "engine.us_per_logical_event": ("us", "lower", True),
    "machine.step_s": ("s", "lower", True),
    "machine.step_events": ("count", "lower", True),
    "machine.coalesced_share": ("fraction", "higher", True),
    "machine.tokens_generated": ("count", "higher", True),
    "batching.rotation_select_calls": ("count", "lower", True),
    "batching.rotation_select_s": ("s", "lower", False),
    "batching.rotation_commit_aging_calls": ("count", "lower", True),
    "batching.rotation_commit_aging_s": ("s", "lower", False),
    "batching.rotation_flatten_calls": ("count", "lower", True),
    "models.token_latency_calls": ("count", "lower", True),
    "models.token_latency_series_calls": ("count", "lower", True),
    "models.energy_series_calls": ("count", "lower", True),
    "models.latency_s": ("s", "lower", True),
    "scheduler.submit_calls": ("count", "lower", True),
    "scheduler.submit_s": ("s", "lower", True),
    "scheduler.probe_calls": ("count", "lower", True),
    "kv.transfers": ("count", "lower", True),
    "kv.transfer_s": ("s", "lower", True),
    "kv.bytes_computed": ("B", "lower", True),
    "metrics.slo_s": ("s", "lower", True),
    "metrics.summary_s": ("s", "lower", False),
    "metrics.render_s": ("s", "lower", True),
    "metrics.token_log_boundaries": ("count", "lower", True),
    "fleet.route_calls": ("count", "lower", True),
    "fleet.route_s": ("s", "lower", False),
    "fleet.lifecycle_s": ("s", "lower", False),
    "fleet.provision_s": ("s", "lower", False),
    "fleet.retries": ("count", "lower", True),
    "fleet.hedges": ("count", "lower", True),
    "fleet.hedge_wasted_tokens": ("count", "lower", True),
    "fleet.hedge_win_share": ("fraction", "higher", True),
    "fleet.shed": ("count", "lower", True),
    "fleet.expired": ("count", "lower", True),
    "faults.compile_s": ("s", "lower", False),
    "faults.handle_s": ("s", "lower", False),
    "faults.fired": ("count", "lower", True),
    "faults.skipped": ("count", "lower", True),
    "sharding.plan_s": ("s", "lower", False),
    "sharding.shards": ("count", "higher", True),
    "sharding.epochs": ("count", "lower", True),
    "sharding.coordinator_cpu_s": ("s", "lower", False),
    "sharding.worker_cpu_s": ("s", "lower", False),
}


def render(payload) -> str:
    """The JSON text ``repro-sim ... --json`` prints for ``payload``."""
    return json.dumps(payload, indent=2)


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children (shard workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# -- host-speed calibration -------------------------------------------------------------

#: Wall (and CPU) seconds one calibration takes on the reference host: the
#: median on the 2-vCPU host the bounds were set on.  Scaled times are in
#: seconds at that speed.
REFERENCE_CALIBRATION_S = 0.0095
CALIBRATION_EVENTS = 5000
CALIBRATION_REPEATS = 3


class _Slot:
    __slots__ = ("busy_until", "load", "served")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.load = 0.0
        self.served = 0


def calibration_work(events: int = CALIBRATION_EVENTS) -> float:
    """A fixed slice of interpreter work shaped like an event loop.

    Heap pushes and pops, attribute updates on slotted objects, dict counts and
    float arithmetic, the operations the simulator spends its time in, but none
    of its code: a change to the simulator never changes this.
    """
    slots = [_Slot() for _ in range(16)]
    heap: list[tuple[float, int, int]] = []
    counts: dict[int, int] = {}
    for i in range(events):
        heapq.heappush(heap, ((i * 7919 % 997) * 1e-3 + i * 1e-3, i, i % 16))
        if len(heap) > 48:
            when, sequence, index = heapq.heappop(heap)
            slot = slots[index]
            slot.busy_until = max(slot.busy_until, when) + 0.002
            slot.load = slot.load * 0.9 + (slot.busy_until - when)
            slot.served += 1
            counts[sequence % 251] = counts.get(sequence % 251, 0) + 1
    return sum(slot.load for slot in slots) + len(counts)


def calibrate() -> tuple[float, float]:
    """Median wall and CPU seconds of :func:`calibration_work` right now."""
    walls, cpus = [], []
    for _ in range(CALIBRATION_REPEATS):
        cpu_start = time.process_time()
        start = time.perf_counter()
        calibration_work()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu_start)
    return statistics.median(walls), statistics.median(cpus)


class Meter:
    """Accumulates wall and CPU time over the timed segments of a pass.

    Correctness checks run between segments, so they never count; segments
    marked ``setup`` also count toward the pass's set-up time.

    The speed of a shared host drifts by up to 1.6x for seconds to minutes at
    a time.  So the pass calibrates the host between operations (outside the
    timed segments), and :meth:`calibrate` scales the segments timed since the
    previous calibration by ``REFERENCE_CALIBRATION_S`` over the mean of the
    two calibrations around them.  The ``scaled_*`` totals are those scaled
    times; the plain totals stay as measured.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.setup_s = 0.0
        self.scaled_wall_s = 0.0
        self.scaled_cpu_s = 0.0
        self.scaled_setup_s = 0.0
        self.calibrations: list[tuple[float, float]] = [calibrate()]
        self._pending = [0.0, 0.0, 0.0]  # wall, CPU, setup timed since the last calibration

    @contextmanager
    def timed(self, setup: bool = False) -> Iterator[None]:
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
            self.wall_s += elapsed
            self.cpu_s += cpu
            self._pending[0] += elapsed
            self._pending[1] += cpu
            if setup:
                self.setup_s += elapsed
                self._pending[2] += elapsed

    def calibrate(self) -> None:
        """Calibrate now and scale the segments timed since the last calibration."""
        previous = self.calibrations[-1]
        current = calibrate()
        self.calibrations.append(current)
        wall_factor = 2 * REFERENCE_CALIBRATION_S / (previous[0] + current[0])
        cpu_factor = 2 * REFERENCE_CALIBRATION_S / max(previous[1] + current[1], 1e-9)
        wall, cpu, setup = self._pending
        self.scaled_wall_s += wall * wall_factor
        self.scaled_cpu_s += cpu * cpu_factor
        self.scaled_setup_s += setup * wall_factor
        self._pending = [0.0, 0.0, 0.0]


class NullTracer:
    """Stand-in for :class:`bench_trace.Tracer` on untraced passes."""

    op = ""

    def span(self, name: str):
        return nullcontext()


class Pass:
    """What one pass accumulates: its meter, its operations and, traced, its layers."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.meter = Meter()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.ops: list[dict] = []
        self.harvest = empty_harvest() if tracer is not None else None

    def op(self, name: str, body: Callable[[], dict]) -> None:
        """Run one operation; a raising operation is recorded as failed, not fatal.

        The operation's result objects are dropped when ``body`` returns; a
        traced pass then harvests the layer books, which releases the engines
        and simulations the tracer registered.
        """
        self.tracer.op = name
        try:
            record = body()
        except Exception as error:  # an op boundary: record the failure and go on
            record = {"name": name, "fingerprint": "", "ok": False,
                      "error": f"{type(error).__name__}: {error}"}
        self.ops.append(record)
        self.meter.calibrate()
        if self.harvest is not None:
            merge_harvest(self.harvest, self.tracer.harvest())


def op_record(name: str, result, submitted: int, report_text: str, engine_counts: tuple[int, int],
              **extra) -> dict:
    """Check one finished operation and summarize it."""
    totals = {}
    if hasattr(result, "requests_shed"):
        totals = {"shed_total": result.requests_shed, "expired_total": result.requests_expired}
    counts = census(result.requests, submitted, **totals)
    return {
        "name": name,
        "fingerprint": fingerprint(report_text, result.duration_s, result.requests),
        "ok": counts["closed"],
        "error": None if counts["closed"] else f"census does not close: {counts}",
        "census": counts,
        "events": engine_counts[0],
        "events_coalesced": engine_counts[1],
        "tokens": sum(request.generated_tokens for request in result.requests),
        **extra,
    }


# -- workloads ------------------------------------------------------------------------


def run_burst(seed: int, run: Pass) -> None:
    from repro.core.cluster import ClusterSimulation
    from repro.core.designs import get_design_family
    from repro.models.llm import get_model
    from repro.workload import generator

    meter, tracer = run.meter, run.tracer

    def simulate() -> dict:
        with tracer.span("op"):
            with meter.timed(setup=True), tracer.span("setup"):
                design = get_design_family(BURST["design"])(BURST["prompt"], BURST["token"])
                model = get_model(MODEL)
                trace = generator.generate_trace(
                    BURST["workload"], rate_rps=BURST["rate"], duration_s=BURST["duration"], seed=seed
                )
                simulation = ClusterSimulation(design=design, model=model)
            with meter.timed():
                result = simulation.run(trace)
                metrics = result.request_metrics()
                slo = result.slo_report(model=model)
                summary = {
                    "design": design.label,
                    "model": model.name,
                    "seed": seed,
                    "workload": BURST["workload"],
                    "trace": trace.name,
                    "requests": len(trace),
                    "completion_rate": round(result.completion_rate, 4),
                    "throughput_rps": round(metrics.throughput_rps, 3),
                    "ttft_p50_ms": round(metrics.ttft.p50 * 1e3, 1),
                    "ttft_p90_ms": round(metrics.ttft.p90 * 1e3, 1),
                    "tbt_p50_ms": round(metrics.tbt.p50 * 1e3, 1),
                    "tbt_p90_ms": round(metrics.tbt.p90 * 1e3, 1),
                    "e2e_p50_s": round(metrics.e2e.p50, 2),
                    "e2e_p90_s": round(metrics.e2e.p90, 2),
                    "energy_wh": round(result.total_energy_wh(), 1),
                    "cost_per_hour": round(design.cost_per_hour, 1),
                    "power_kw": round(design.provisioned_power_kw, 2),
                    "slo_satisfied": slo.satisfied,
                }
                with tracer.span("metrics.render"):
                    text = render(summary)
        engine = simulation.engine
        return op_record("burst-40", result, len(trace), text,
                         (engine.events_processed, engine.events_coalesced))

    run.op("burst-40", simulate)


def run_iso_sweep(seed: int, run: Pass) -> dict:
    from repro.core.cluster import ClusterSimulation
    from repro.experiments.cluster_eval import scaled_design_suite
    from repro.models.llm import LLAMA2_70B
    from repro.workload import generator

    meter, tracer = run.meter, run.tracer
    with meter.timed(setup=True):
        suite = scaled_design_suite(ISO["workload"], ISO["scale"])
    sweep: dict[str, dict] = {}
    for design_name, design in suite.items():
        per_rate = sweep[design_name] = {}
        for rate in ISO["rates"]:
            name = f"{design_name}@{rate:g}"

            def point(design=design, rate=rate, name=name, per_rate=per_rate) -> dict:
                with tracer.span("op"):
                    with meter.timed(setup=True), tracer.span("setup"):
                        trace = generator.generate_trace(
                            ISO["workload"], rate_rps=rate, duration_s=ISO["duration"], seed=seed
                        )
                        simulation = ClusterSimulation(design=design, model=LLAMA2_70B)
                    with meter.timed():
                        result = simulation.run(trace)
                        metrics = result.request_metrics()
                        slo = result.slo_report(model=LLAMA2_70B)
                        row = {
                            "ttft_p50": metrics.ttft.p50,
                            "ttft_p90": metrics.ttft.p90,
                            "tbt_p50": metrics.tbt.p50,
                            "tbt_p90": metrics.tbt.p90,
                            "e2e_p50": metrics.e2e.p50,
                            "e2e_p90": metrics.e2e.p90,
                            "throughput_rps": metrics.throughput_rps,
                            "completion_rate": result.completion_rate,
                            "slo_ok": float(slo.satisfied),
                        }
                per_rate[rate] = row
                engine = simulation.engine
                return op_record(name, result, len(trace), json.dumps(row, sort_keys=True),
                                 (engine.events_processed, engine.events_coalesced))

            run.op(name, point)
    with meter.timed(), tracer.span("metrics.render"):
        render(sweep)
    paper: dict = {}

    def ratio() -> dict:
        value, error = paper_ratio(sweep)
        paper.update(paper_ratio=value, paper_ratio_err=error)
        return {"name": "paper-ratio", "fingerprint": float(value).hex(), "ok": True, "error": None}

    run.op("paper-ratio", ratio)
    return paper


def run_fleet(scenario: str, seed: int, run: Pass) -> None:
    # The package re-exports a *function* named fleet_sweep, so name the
    # functions, not the module.
    from repro.experiments.fleet_sweep import fleet_run_summary, prepare_fleet_run
    from repro.models.llm import get_model
    from repro.workload.scenarios import get_scenario

    meter, tracer = run.meter, run.tracer
    spec = FLEETS[scenario]
    preset = get_scenario(spec["preset"])
    model = get_model(MODEL)
    payload: dict = {"preset": preset.name, "seed": seed, "scale": spec["scale"], "policy": spec["policy"]}
    labels = ("static",) if spec["no_burst"] else ("static", "burst")
    for label in labels:
        name = f"{scenario}-{label}"

        def fleet_op(label=label, name=name) -> dict:
            with tracer.span("op"):
                with meter.timed(setup=True), tracer.span("setup"):
                    fleet, trace, failures = prepare_fleet_run(
                        preset, clusters=spec["clusters"], burst_clusters=spec["burst_clusters"],
                        seed=seed, scale=spec["scale"], policy=spec["policy"], burst=label == "burst",
                        model=model, parallel=spec["parallel"],
                    )
                own_cpu = time.process_time()
                children_cpu = cpu_seconds() - own_cpu
                with meter.timed():
                    result = fleet.run(trace, failures=failures)
                    summary = fleet_run_summary(result)
                    payload[label] = summary
                    payload[f"{label}_parallel"] = fleet.parallel_info
                    if label == "burst":
                        payload["machine_hours_saved"] = round(
                            payload["static"]["machine_hours"] - summary["machine_hours"], 3
                        )
                        payload["timeline"] = result.provisioner.timeline_as_dicts()
                own_cpu = time.process_time() - own_cpu
                children_cpu = cpu_seconds() - time.process_time() - children_cpu
            info = fleet.parallel_info or {}
            sharded = info.get("mode") == "parallel"
            if sharded:
                counts = (info["events_processed"], info["events_coalesced"])
            else:
                counts = (fleet.engine.events_processed, fleet.engine.events_coalesced)
            lifecycle = result.lifecycle.snapshot() if result.lifecycle is not None else {}
            faults = result.injector.snapshot() if result.injector is not None else {}
            return op_record(
                name, result, len(trace), json.dumps(summary, sort_keys=True), counts,
                retries=lifecycle.get("retries_fired", 0),
                hedges=lifecycle.get("hedges_launched", 0),
                hedges_won=lifecycle.get("hedges_won", 0),
                hedge_wasted_tokens=lifecycle.get("hedge_wasted_tokens", 0),
                shed=result.requests_shed,
                expired=result.requests_expired,
                faults_fired=sum(faults.get("fired", {}).values()),
                faults_skipped=sum(faults.get("skipped", {}).values()),
                shards=info["shards"] if sharded else 0,
                epochs=info["epochs"] if sharded else 0,
                coordinator_cpu_s=own_cpu if sharded else 0.0,
                worker_cpu_s=children_cpu if sharded else 0.0,
            )

        run.op(name, fleet_op)
    with meter.timed(), tracer.span("metrics.render"):
        render(payload)


def run_workload(name: str, seed: int, run: Pass) -> dict:
    """Run workload ``name`` into ``run``; returns extra pass-level fields."""
    if name == "cluster":
        run_burst(seed, run)
        return run_iso_sweep(seed, run)
    for scenario in FLEETS:
        run_fleet(scenario, seed, run)
    return {}


# -- per-layer metrics ----------------------------------------------------------------------


def layer_metrics(harvest: dict, ops: list) -> dict:
    """Per-layer metrics of one traced pass (see :data:`LAYER_METRICS`)."""
    stats, phases, engine = harvest["stats"], harvest["phases"], harvest["engine"]

    def calls(*names: str) -> int:
        return int(sum(stats[name][0] for name in names if name in stats))

    def total(*names: str) -> float:
        return sum(stats[name][1] for name in names if name in stats)

    def own(*names: str) -> float:
        return sum(stats[name][2] for name in names if name in stats)

    def value(name: str) -> float:
        return stats[name][3] if name in stats else 0.0

    def phase(bucket: str) -> tuple[float, int]:
        wall, events = phases.get(bucket, (0.0, 0))
        return wall, int(events)

    def op_sum(key: str) -> float:
        return sum(op.get(key, 0) for op in ops)

    run_s = total("engine.run")
    attributed = sum(wall for wall, _ in phases.values())
    logical = engine["events"] + engine["events_coalesced"]
    step_s, step_events = phase("machine-step")
    kv_s, kv_events = phase("kv-transfer")
    hedges = op_sum("hedges")
    return {
        "workload.generate_s": total("workload.generate"),
        "workload.requests": int(value("workload.generate")),
        "engine.run_s": run_s,
        "engine.dispatch_self_s": run_s - attributed,
        "engine.unattributed_share": (run_s - attributed) / run_s if run_s > 0 else 0.0,
        "engine.events": engine["events"],
        "engine.events_coalesced": engine["events_coalesced"],
        "engine.events_cancelled": engine["events_cancelled"],
        "engine.heap_compactions": engine["heap_compactions"],
        "engine.us_per_logical_event": run_s / logical * 1e6 if logical else 0.0,
        "machine.step_s": step_s,
        "machine.step_events": step_events,
        "machine.coalesced_share": engine["events_coalesced"] / logical if logical else 0.0,
        "machine.tokens_generated": int(op_sum("tokens")),
        "batching.rotation_select_calls": calls("batching.rotation_select"),
        "batching.rotation_select_s": total("batching.rotation_select"),
        "batching.rotation_commit_aging_calls": calls("batching.rotation_commit_aging"),
        "batching.rotation_commit_aging_s": total("batching.rotation_commit_aging"),
        "batching.rotation_flatten_calls": calls("batching.rotation_flatten"),
        "models.token_latency_calls": calls("models.token_latency"),
        "models.token_latency_series_calls": calls("models.token_latency_series"),
        "models.energy_series_calls": calls("models.energy_series"),
        "models.latency_s": own("models.token_latency", "models.token_latency_series", "models.energy_series"),
        "scheduler.submit_calls": calls("scheduler.submit"),
        "scheduler.submit_s": total("scheduler.submit"),
        "scheduler.probe_calls": calls("scheduler.probe"),
        "kv.transfers": kv_events,
        "kv.transfer_s": kv_s,
        "kv.bytes_computed": value("kv.bytes"),
        "metrics.slo_s": own("metrics.slo"),
        "metrics.summary_s": own("metrics.summary"),
        "metrics.render_s": own("metrics.render"),
        "metrics.token_log_boundaries": harvest["token_log_boundaries"],
        "fleet.route_calls": calls("fleet.route"),
        "fleet.route_s": total("fleet.route"),
        "fleet.lifecycle_s": phase("lifecycle")[0],
        "fleet.provision_s": phase("provision")[0],
        "fleet.retries": int(op_sum("retries")),
        "fleet.hedges": int(hedges),
        "fleet.hedge_wasted_tokens": int(op_sum("hedge_wasted_tokens")),
        "fleet.hedge_win_share": op_sum("hedges_won") / hedges if hedges else 0.0,
        "fleet.shed": int(op_sum("shed")),
        "fleet.expired": int(op_sum("expired")),
        "faults.compile_s": total("faults.compile"),
        "faults.handle_s": phase("faults")[0],
        "faults.fired": int(op_sum("faults_fired")),
        "faults.skipped": int(op_sum("faults_skipped")),
        "sharding.plan_s": total("sharding.plan"),
        "sharding.shards": int(op_sum("shards")),
        "sharding.epochs": int(op_sum("epochs")),
        "sharding.coordinator_cpu_s": op_sum("coordinator_cpu_s"),
        "sharding.worker_cpu_s": op_sum("worker_cpu_s"),
    }


def run_pass(workload: str, seed: int, trace: bool, out_dir: Path | None, index: int) -> dict:
    """Run one pass and return its JSON-ready record."""
    # Imported before any wrapper goes in, so every module that binds a traced
    # function by name binds the original and gets re-pointed by the tracer.
    import repro.cli  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.faults.injector  # noqa: F401
    import repro.obs.profiler  # noqa: F401
    import repro.simulation.sharding  # noqa: F401

    record: dict = {"workload": workload, "seed": seed, "traced": trace}
    if not trace:
        run = Pass()
        record.update(run_workload(workload, seed, run))
    else:
        tracer = Tracer(dump_dir=out_dir)
        run = Pass(tracer)
        with tracer:
            record.update(run_workload(workload, seed, run))
        tracer.absorb_worker_dumps(run.harvest)
        record["layers"] = layer_metrics(run.harvest, run.ops)
        record["self_s"] = {name: entry[2] for name, entry in sorted(run.harvest["stats"].items())}
        if out_dir is not None:
            tracer.write_spans(out_dir / f"spans-pass{index}.jsonl")
    meter = run.meter
    record.update(
        wall_s=meter.wall_s,
        setup_s=meter.setup_s,
        cpu_s=meter.cpu_s,
        logical_events=sum(op.get("events", 0) + op.get("events_coalesced", 0) for op in run.ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=run.ops,
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="wrap the layers and report per-layer metrics")
    parser.add_argument("--out-dir", type=Path, default=None, help="where spans and worker dumps go")
    parser.add_argument("--index", type=int, default=0, help="pass number (names the spans file)")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.trace, args.out_dir, args.index)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
