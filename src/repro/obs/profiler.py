"""Wall-time attribution of engine events to subsystem phases.

The :class:`PhaseProfiler` answers "where does the *wall clock* go?" —
routing probes vs machine iteration stepping vs fault handling — without
touching the simulated clock.  It wraps ``engine.schedule_at`` (the single
choke point every ``schedule_after``/``schedule_recurring`` call routes
through) so each scheduled action is timed with
:func:`time.perf_counter` when it fires and charged to a bucket derived
from its event tag.

This is the one wall-clock consumer in ``repro.obs`` — it lives on the
perf-measurement side of the SIM002 line (allow-listed in
``repro.analysis.rules``) and is never armed by the simulation itself: only
the benchmark's traced run (``python3 perfbench/run.py --trace 1``)
attaches it.  Attribution is *self* time per event callback; an event that
schedules more events is not charged for them.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import SimulationEngine

#: ``(tag prefix, bucket)`` attribution table, checked in order.  Untagged
#: events are the machines' iteration start/finish callbacks — the decode
#: hot path — and fall through to ``machine-step``.
TAG_BUCKETS: tuple[tuple[str, str], ...] = (
    ("fleet-arrival:", "routing"),
    ("arrival:", "routing"),
    ("kv-transfer:", "kv-transfer"),
    ("fault:", "faults"),
    ("failure:", "faults"),
    ("ttft-deadline:", "lifecycle"),
    ("e2e-deadline:", "lifecycle"),
    ("hedge:", "lifecycle"),
    ("retry:", "lifecycle"),
    ("autoscaler", "autoscale"),
    ("fleet-provisioner", "provision"),
    ("cluster-start:", "provision"),
    ("metrics-tick", "observability"),
)

DEFAULT_BUCKET = "machine-step"


def bucket_for_tag(tag: str) -> str:
    """Map an event tag to its profiling bucket."""
    for prefix, bucket in TAG_BUCKETS:
        if tag.startswith(prefix):
            return bucket
    return DEFAULT_BUCKET


class PhaseProfiler:
    """Attaches to one engine and accumulates wall seconds per phase bucket.

    Usage::

        profiler = PhaseProfiler()
        profiler.attach(engine)
        ...run...
        profiler.detach()
        report = profiler.snapshot()
    """

    def __init__(self) -> None:
        self.wall_s: dict[str, float] = {}
        self.events: dict[str, int] = {}
        self._engine: "SimulationEngine | None" = None
        self._original_schedule_at: Callable | None = None

    @property
    def attached(self) -> bool:
        """Whether the profiler is currently wrapping an engine."""
        return self._engine is not None

    def attach(self, engine: "SimulationEngine") -> None:
        """Interpose on ``engine.schedule_at`` (idempotent per engine)."""
        if self._engine is not None:
            raise RuntimeError("profiler is already attached to an engine")
        self._engine = engine
        original = engine.schedule_at
        self._original_schedule_at = original
        wall_s = self.wall_s
        events = self.events
        perf_counter = time.perf_counter

        def timed_schedule_at(time_s, action, priority=0, tag=""):
            bucket = bucket_for_tag(tag)

            def timed_action():
                begin = perf_counter()
                try:
                    action()
                finally:
                    wall_s[bucket] = wall_s.get(bucket, 0.0) + (perf_counter() - begin)
                    events[bucket] = events.get(bucket, 0) + 1

            return original(time_s, timed_action, priority=priority, tag=tag)

        # Instance attribute shadows the bound method; schedule_after and
        # RecurringTask re-arms route through self.schedule_at, so one wrap
        # covers every scheduling path.
        engine.schedule_at = timed_schedule_at  # type: ignore[method-assign]

    def detach(self) -> None:
        """Remove the interposer, restoring the engine's own method."""
        if self._engine is None:
            return
        # Deleting the instance attribute re-exposes the class method; the
        # attribute is guaranteed to exist because attach() set it.
        del self._engine.schedule_at  # type: ignore[misc]
        self._engine = None
        self._original_schedule_at = None

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-bucket ``{"wall_s": ..., "events": ...}``, sorted by cost."""
        return {
            bucket: {
                "wall_s": round(self.wall_s[bucket], 6),
                "events": self.events.get(bucket, 0),
            }
            for bucket in sorted(self.wall_s, key=lambda b: -self.wall_s[b])
        }

    def total_wall_s(self) -> float:
        """Total attributed wall seconds."""
        return sum(self.wall_s.values())
