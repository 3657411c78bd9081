"""Event records for the discrete-event engine.

Events fire in ``(time, priority, sequence)`` order.  The sequence number is
assigned by the engine at scheduling time, which makes simulations fully
deterministic: two events at the same timestamp and priority fire in the
order they were scheduled.

Events support *tombstone cancellation*: :meth:`SimulationEngine.cancel
<repro.simulation.engine.SimulationEngine.cancel>` marks an event as
cancelled instead of removing it from the heap (an O(n) operation); the
engine silently discards cancelled events when they surface at the head of
the queue.
"""

from __future__ import annotations

from typing import Callable

# Same-timestamp ordering across the stack follows a fixed priority ladder
# (lower fires first).  Every ``engine.schedule_*`` call site must pass one of
# these named constants (or a module-local ``*_PRIORITY`` alias of one) —
# enforced by simlint rule SIM004 — so the ladder stays auditable in one place:
#
# 0. machine iteration finishes free capacity first,
# 1. machine start kicks and fault injections mutate the world second,
# 2. arrivals route against the post-fault state,
# 3. request-lifecycle timers (deadlines, hedges, retry backoffs) and
#    autoscaler ticks observe a settled instant — a completion beats its own
#    deadline,
# 4. the fleet provisioner reacts last, after every same-instant signal,
# 5. the observability metrics ticker samples after everything else — it is a
#    pure observer and must read an instant no controller will touch again.

FINISH_EVENT_PRIORITY = 0
START_EVENT_PRIORITY = 1
FAULT_EVENT_PRIORITY = 1
ARRIVAL_EVENT_PRIORITY = 2
LIFECYCLE_EVENT_PRIORITY = 3
AUTOSCALER_TICK_PRIORITY = 3
PROVISIONER_TICK_PRIORITY = 4
METRICS_TICK_PRIORITY = 5


class Event:
    """A scheduled callback (the engine's heap orders ``(time, priority, sequence, event)`` tuples).

    Attributes:
        time: Simulated time (seconds) at which the event fires.
        priority: Tie-break between events at the same time (lower first).
        sequence: Monotonic insertion counter (assigned by the engine).
        action: Zero-argument callable executed when the event fires.
        tag: Optional human-readable label for debugging and tracing.
        cancelled: Tombstone flag; cancelled events are skipped by the engine.
        fired: Whether the event has already executed (set by the engine).
    """

    __slots__ = ("time", "priority", "sequence", "action", "tag", "cancelled", "fired")

    def __init__(self, time: float, priority: int, sequence: int, action: Callable[[], None],
                 tag: str = "", cancelled: bool = False, fired: bool = False) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.tag = tag
        self.cancelled = cancelled
        self.fired = fired

    @property
    def live(self) -> bool:
        """Whether the event is still pending (neither fired nor cancelled)."""
        return not self.cancelled and not self.fired

    # The two status flags change only through these helpers (used by the engine).

    def _mark_cancelled(self) -> None:
        self.cancelled = True

    def _mark_fired(self) -> None:
        self.fired = True
