"""Traced-run harness: wraps the simulator's layer entry points from outside.

A :class:`Tracer` replaces chosen functions and methods of the ``repro``
package with timing wrappers, and puts every original back on
:meth:`Tracer.restore` (or on leaving the ``with`` block).  Nothing inside
``src/`` changes; the wrappers live only in the traced benchmark process.

Each wrapper keeps, per layer name, the call count, the total time and the
*self* time (total minus the time of wrapped calls nested inside it).  Coarse
boundaries also record a span ``[name, start, end, parent, op]`` in memory;
:meth:`Tracer.write_spans` writes them out when the pass ends.  Hot entry
points (one call per routed request or rotation step) are aggregated only.

Engine callbacks are attributed by :class:`repro.obs.profiler.PhaseProfiler`,
attached to every :class:`~repro.simulation.engine.SimulationEngine` built
while the tracer is installed.  Shard workers of a sharded fleet are forked
from the traced process, so they inherit the wrappers; a hook on the worker
entry point writes the worker's aggregates to ``dump_dir`` when it exits, and
:meth:`Tracer.absorb_worker_dumps` folds them back into the coordinator.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Traced layer entry points: ``(module, owner, attribute, layer name, record
#: spans, measure)``.  ``owner`` is a class name inside ``module``, or ``None``
#: for a module-level function (replaced wherever ``repro`` imported it).
#: ``measure`` maps a call's return value to a number summed into the layer's
#: ``value`` (requests generated, KV bytes computed).
LAYER_PLAN: tuple[tuple[str, str | None, str, str, bool, Callable[[Any], float] | None], ...] = (
    ("repro.workload.generator", None, "generate_trace", "workload.generate", True, len),
    ("repro.workload.scenarios", "Scenario", "build_trace", "workload.generate", True, len),
    ("repro.simulation.engine", "SimulationEngine", "run", "engine.run", True, None),
    ("repro.batching.rotation", "RotationForest", "select", "batching.rotation_select", False, None),
    ("repro.batching.rotation", "RotationForest", "commit_aging", "batching.rotation_commit_aging", False, None),
    ("repro.batching.rotation", "RotationForest", "flatten", "batching.rotation_flatten", False, None),
    ("repro.models.performance", "AnalyticalPerformanceModel", "token_latency", "models.token_latency", False, None),
    (
        "repro.models.performance", "AnalyticalPerformanceModel", "token_latency_series",
        "models.token_latency_series", False, None,
    ),
    ("repro.models.power", "PowerModel", "token_energy_series", "models.energy_series", False, None),
    ("repro.core.cluster_scheduler", "ClusterScheduler", "submit", "scheduler.submit", False, None),
    ("repro.core.cluster_scheduler", "MachinePool", "least_prompt_loaded", "scheduler.probe", False, None),
    ("repro.core.cluster_scheduler", "MachinePool", "least_decode_loaded", "scheduler.probe", False, None),
    ("repro.core.kv_transfer", "KVTransferModel", "kv_bytes", "kv.bytes", False, float),
    ("repro.metrics.slo", None, "evaluate_slo", "metrics.slo", True, None),
    ("repro.metrics.slo", None, "evaluate_slo_by_tenant", "metrics.slo", True, None),
    ("repro.metrics.summary", None, "summarize_requests", "metrics.summary", True, None),
    ("repro.experiments.fleet_sweep", None, "fleet_run_summary", "metrics.render", True, None),
    ("repro.fleet.router", "FleetRouter", "route", "fleet.route", False, None),
    ("repro.faults.plan", None, "compile_fault_plan", "faults.compile", True, None),
    ("repro.simulation.sharding", None, "plan_shards", "sharding.plan", True, None),
)

#: Shard-worker entry point; hooked so forked workers report their layers.
WORKER_ENTRY = ("repro.simulation.sharding", "_worker_main")


class Tracer:
    """In-memory span recorder and layer-wrapper installer.

    Args:
        dump_dir: Directory where forked shard workers leave their
            aggregates (``None`` disables the worker hook).
    """

    def __init__(self, dump_dir: Path | None = None) -> None:
        self.dump_dir = dump_dir
        self.op = ""
        #: Recorded spans: ``[name, start, end, parent index or -1, op]``.
        self.spans: list[list] = []
        #: Per layer name: ``[calls, total_s, self_s, value]``.
        self.stats: dict[str, list[float]] = {}
        self.engines: list = []  # (engine, PhaseProfiler) built while installed
        self.simulations: list = []  # ClusterSimulation objects built while installed
        self._frames: list[list[float]] = []  # per open call: [child_s]
        self._open_spans: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any, bool]] = []

    # -- span and stats recording -------------------------------------------------

    def _enter(self, name: str, record: bool) -> tuple[float, list[float], int]:
        index = -1
        if record:
            parent = self._open_spans[-1] if self._open_spans else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
            self._open_spans.append(index)
        frame = [0.0]
        self._frames.append(frame)
        start = time.perf_counter()
        if index >= 0:
            self.spans[index][1] = start
        return start, frame, index

    def _exit(self, name: str, start: float, frame: list[float], index: int, value: float = 0.0) -> None:
        end = time.perf_counter()
        self._frames.pop()
        elapsed = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        entry[3] += value
        if self._frames:
            self._frames[-1][0] += elapsed
        if index >= 0:
            self.spans[index][2] = end
            self._open_spans.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span (and its self time) around benchmark-side code."""
        start, frame, index = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, start, frame, index)

    def _wrapper(self, original: Callable, name: str, record: bool, measure: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start, frame, index = tracer._enter(name, record)
            value = 0.0
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    value = measure(result)
                return result
            finally:
                tracer._exit(name, start, frame, index, value)

        return traced

    # -- installing and restoring -----------------------------------------------------

    def _set(self, owner: Any, attribute: str, replacement: Any) -> None:
        had_own = attribute in vars(owner)
        original = vars(owner)[attribute] if had_own else getattr(owner, attribute)
        self._patches.append((owner, attribute, original, replacement, had_own))
        setattr(owner, attribute, replacement)

    def wrap_method(self, cls: type, attribute: str, name: str, record: bool = False,
                    measure: Callable | None = None) -> None:
        """Time calls of ``cls.attribute`` under layer ``name``."""
        self._set(cls, attribute, self._wrapper(getattr(cls, attribute), name, record, measure))

    def wrap_function(self, module: Any, attribute: str, name: str, record: bool = False,
                      measure: Callable | None = None) -> None:
        """Time a module-level function everywhere ``repro`` bound it by name."""
        original = getattr(module, attribute)
        replacement = self._wrapper(original, name, record, measure)
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, replacement)

    def hook_init(self, cls: type, callback: Callable[[Any], None]) -> None:
        """Call ``callback(instance)`` after every ``cls(...)`` construction."""
        original = cls.__init__

        @functools.wraps(original)
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            if type(instance) is cls:
                callback(instance)

        self._set(cls, "__init__", init)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest patch first.

        A module imported while the tracer was installed may have bound a
        wrapper by name; those bindings are reset to the original too.
        """
        for owner, attribute, original, replacement, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
            for holder in _repro_modules():
                for key, value in list(vars(holder).items()):
                    if value is replacement:
                        setattr(holder, key, original)
        self._patches.clear()
        for _engine, profiler in self.engines:
            profiler.detach()

    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`LAYER_PLAN` and hook object construction."""
        import importlib

        from repro.core.cluster import ClusterSimulation
        from repro.obs.profiler import PhaseProfiler
        from repro.simulation.engine import SimulationEngine

        for module_name, owner, attribute, name, record, measure in LAYER_PLAN:
            module = importlib.import_module(module_name)
            if owner is None:
                self.wrap_function(module, attribute, name, record, measure)
            else:
                self.wrap_method(getattr(module, owner), attribute, name, record, measure)

        def register_engine(engine) -> None:
            profiler = PhaseProfiler()
            profiler.attach(engine)
            self.engines.append((engine, profiler))

        self.hook_init(SimulationEngine, register_engine)
        self.hook_init(ClusterSimulation, lambda simulation: self.simulations.append(simulation))
        module_name, attribute = WORKER_ENTRY
        worker_module = importlib.import_module(module_name)
        if self.dump_dir is not None and hasattr(worker_module, attribute):
            self._set(worker_module, attribute, self._worker_hook(getattr(worker_module, attribute)))
        return self

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- harvesting ----------------------------------------------------------------------

    def _worker_hook(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def worker_main(*args, **kwargs):
            # Runs in the forked worker: start from empty books, report on exit.
            tracer.stats = {}
            tracer.spans = []
            tracer.engines = []
            tracer.simulations = []
            tracer._frames = []
            tracer._open_spans = []
            try:
                return original(*args, **kwargs)
            finally:
                path = tracer.dump_dir / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.harvest()))

        return worker_main

    def harvest(self) -> dict:
        """Collect and reset the books since the last harvest.

        Returns layer stats, summed engine counters, PhaseProfiler buckets and
        token-log boundaries; drops the references to engines and simulations
        so no finished run stays alive.
        """
        harvested = empty_harvest()
        engine, phases = harvested["engine"], harvested["phases"]
        for built, profiler in self.engines:
            engine["events"] += built.events_processed
            engine["events_coalesced"] += built.events_coalesced
            engine["events_cancelled"] += built.events_cancelled
            engine["heap_compactions"] += built.heap_compactions
            for bucket, wall in profiler.wall_s.items():
                entry = phases.setdefault(bucket, [0.0, 0])
                entry[0] += wall
                entry[1] += profiler.events.get(bucket, 0)
        harvested["token_log_boundaries"] = sum(
            sim.metrics.token_log.boundaries_recorded() for sim in self.simulations
        )
        harvested["stats"] = self.stats
        self.stats = {}
        self.engines = []
        self.simulations = []
        return harvested

    def absorb_worker_dumps(self, into: dict) -> int:
        """Merge and delete the aggregates left by shard workers; returns how many."""
        if self.dump_dir is None:
            return 0
        dumps = sorted(self.dump_dir.glob("worker-*.json"))
        for path in dumps:
            merge_harvest(into, json.loads(path.read_text()))
            path.unlink()
        return len(dumps)

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (name, start, end, parent, op)."""
        with path.open("w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


def _repro_modules() -> list[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def empty_harvest() -> dict:
    """A harvest with nothing in it (the identity of :func:`merge_harvest`)."""
    return {
        "stats": {},
        "engine": {"events": 0, "events_coalesced": 0, "events_cancelled": 0, "heap_compactions": 0},
        "phases": {},
        "token_log_boundaries": 0,
    }


def merge_harvest(into: dict, other: dict) -> dict:
    """Add ``other``'s counts and times into ``into`` (in place) and return it."""
    for name, values in other["stats"].items():
        entry = into["stats"].setdefault(name, [0, 0.0, 0.0, 0.0])
        for index, value in enumerate(values):
            entry[index] += value
    for key, value in other["engine"].items():
        into["engine"][key] += value
    for bucket, (wall, events) in other["phases"].items():
        entry = into["phases"].setdefault(bucket, [0.0, 0])
        entry[0] += wall
        entry[1] += events
    into["token_log_boundaries"] += other["token_log_boundaries"]
    return into
