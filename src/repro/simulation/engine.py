"""The discrete-event simulation engine.

A minimal, deterministic event loop: schedule callbacks at absolute or
relative simulated times, then :meth:`SimulationEngine.run` until the queue
drains or a time horizon is reached.  All Splitwise cluster components
(machines, schedulers, transfers) advance exclusively through this engine, so
a whole cluster simulation is a single-threaded, reproducible computation.

The engine is the innermost loop of every cluster simulation, so it is built
for throughput:

* The heap stores ``(time, priority, sequence, event)`` tuples, so ordering
  is resolved by C-level tuple comparison instead of ``Event.__lt__``.
* Cancellation uses tombstones (:meth:`cancel`): the event stays in the heap
  but is discarded unexecuted when it reaches the head, which keeps
  cancellation O(1) instead of O(n).  When tombstones come to dominate the
  heap (cancel-heavy runs: deadlines, hedges, autoscaler timers) the heap is
  compacted in place — live entries keep their ``(time, priority, sequence)``
  keys, so compaction never reorders execution.
* :meth:`schedule_recurring` provides self-rescheduling periodic tasks
  without allocating a fresh closure per occurrence.

Same-timestamp ordering across the stack follows a fixed priority ladder:
machine iteration finishes fire at priority 0, fault injections at 1, fleet
arrivals at 2, and request-lifecycle timers (deadlines, hedges, retry
backoffs) at 3 — so at any instant capacity is freed first, the fault plane
mutates the world second, new work routes against the post-fault state, and
a completion beats its own deadline.
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Callable

from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only (analysis layers above simulation)
    from repro.analysis.sanitizer import RunSanitizer


class RecurringTask:
    """Handle for a periodic task created by :meth:`SimulationEngine.schedule_recurring`.

    The task reschedules itself after every firing until :meth:`cancel` is
    called.  A single bound-method callback is reused for every occurrence,
    so recurring work allocates no per-occurrence closures.
    """

    __slots__ = ("_engine", "interval", "action", "priority", "tag", "_event", "_cancelled", "fire_count")

    def __init__(
        self,
        engine: "SimulationEngine",
        interval: float,
        action: Callable[[], None],
        priority: int,
        tag: str,
        first_delay: float,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._engine = engine
        self.interval = interval
        self.action = action
        self.priority = priority
        self.tag = tag
        self._cancelled = False
        self.fire_count = 0
        self._event = engine.schedule_after(first_delay, self._fire, priority=priority, tag=tag)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        self.action()
        if not self._cancelled:  # the action itself may cancel the task
            self._event = self._engine.schedule_after(
                self.interval, self._fire, priority=self.priority, tag=self.tag
            )

    def cancel(self) -> None:
        """Stop the task; its pending event is tombstoned, never executed."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._event is not None:
            self._engine.cancel(self._event)
            self._event = None


class SimulationEngine:
    """Deterministic discrete-event simulator clock and queue.

    Args:
        sanitize: Arm a :class:`~repro.analysis.sanitizer.RunSanitizer` on
            this engine (event-time monotonicity, RNG-stream phase
            discipline, end-of-run census closure).  ``None`` defers to the
            ``REPRO_SANITIZE=1`` environment flag.  The sanitizer only
            observes — sanitized runs are bit-identical to unsanitized ones.
    """

    # Heap compaction policy: compact when at least COMPACT_MIN_TOMBSTONES
    # tombstones have accumulated AND tombstones outnumber live entries by
    # COMPACT_RATIO.  Class attributes so tests can tighten the trigger or
    # effectively disable compaction (set the minimum very high) on a
    # reference engine.
    COMPACT_MIN_TOMBSTONES: int = 256
    COMPACT_RATIO: float = 1.0

    def __init__(self, sanitize: bool | None = None) -> None:
        self._now = 0.0
        # Heap entries are (time, priority, sequence, event): comparison never
        # reaches the event because sequence numbers are unique.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._events_coalesced = 0
        self._tombstones = 0  # cancelled events still sitting in the heap
        self._heap_compactions = 0
        if sanitize is None:
            # Run-mode debug flag, deliberately env-driven so any entry point
            # can arm the sanitizer without plumbing; it only observes, so it
            # cannot make two equally-configured runs differ.
            sanitize = os.environ.get("REPRO_SANITIZE") == "1"  # simlint: disable=SIM007
        self._sanitizer: RunSanitizer | None = None
        if sanitize:
            from repro.analysis.sanitizer import RunSanitizer

            self._sanitizer = RunSanitizer()

    @property
    def sanitizer(self) -> RunSanitizer | None:
        """The armed sanitizer, or ``None`` on ordinary (unsanitized) runs."""
        return self._sanitizer

    @property
    def sanitize(self) -> bool:
        """Whether a sanitizer is armed."""
        return self._sanitizer is not None

    @sanitize.setter
    def sanitize(self, value: bool) -> None:
        if value and self._sanitizer is None:
            from repro.analysis.sanitizer import RunSanitizer

            self._sanitizer = RunSanitizer()
        elif not value:
            self._sanitizer = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events are not counted)."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of events cancelled before they could execute."""
        return self._events_cancelled

    @property
    def events_coalesced(self) -> int:
        """Logical events executed without their own queue entry.

        The decode fast-forward path collapses a run of steady-state decode
        iterations into one macro-event; every coalesced iteration beyond the
        macro-event itself is counted here, so ``events_processed +
        events_coalesced`` measures the simulated work actually performed.
        """
        return self._events_coalesced

    def note_coalesced(self, count: int) -> None:
        """Credit ``count`` logical events that were executed without being scheduled."""
        if count > 0:
            self._events_coalesced += count

    @property
    def heap_compactions(self) -> int:
        """Number of times the tombstoned heap has been compacted in place."""
        return self._heap_compactions

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the queue."""
        return len(self._queue) - self._tombstones

    # -- scheduling -----------------------------------------------------------

    def schedule_at(self, time: float, action: Callable[[], None], priority: int = 0, tag: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``.

        Raises:
            ValueError: if ``time`` is in the simulated past (or, on
                sanitized runs, :class:`~repro.analysis.sanitizer.SanitizerError`
                carrying the offending tag).
        """
        if time < self._now:
            if self._sanitizer is not None:
                self._sanitizer.check_schedule(self._now, time, tag)
            raise ValueError(f"cannot schedule event at {time:.6f}, current time is {self._now:.6f}")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time=time, priority=priority, sequence=sequence, action=action, tag=tag)
        heapq.heappush(self._queue, (time, priority, sequence, event))
        return event

    def schedule_after(self, delay: float, action: Callable[[], None], priority: int = 0, tag: str = "") -> Event:
        """Schedule ``action`` ``delay`` seconds from now.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, action, priority=priority, tag=tag)

    def schedule_recurring(
        self,
        interval: float,
        action: Callable[[], None],
        priority: int = 0,
        tag: str = "",
        first_delay: float | None = None,
    ) -> RecurringTask:
        """Schedule ``action`` every ``interval`` simulated seconds until cancelled.

        Args:
            interval: Spacing between occurrences (must be positive).
            action: Callback executed at each occurrence.
            priority: Event priority of every occurrence.
            tag: Debug label attached to every occurrence.
            first_delay: Delay before the first occurrence; defaults to
                ``interval``.

        Returns:
            A :class:`RecurringTask` handle whose ``cancel()`` stops the task.

        Raises:
            ValueError: if ``interval`` is not positive.
        """
        delay = interval if first_delay is None else first_delay
        return RecurringTask(self, interval, action, priority, tag, delay)

    def cancel(self, event: Event) -> bool:
        """Tombstone a pending event so it is discarded instead of executed.

        Returns:
            True if the event was live and is now cancelled; False if it had
            already fired or was already cancelled (a no-op).
        """
        if event.fired or event.cancelled:
            return False
        event._mark_cancelled()
        self._tombstones += 1
        self._events_cancelled += 1
        tombstones = self._tombstones
        if tombstones >= self.COMPACT_MIN_TOMBSTONES and tombstones >= self.COMPACT_RATIO * (
            len(self._queue) - tombstones
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop tombstoned entries and re-heapify, preserving execution order.

        Mutates ``self._queue`` in place because :meth:`run` and :meth:`step`
        hold local aliases to the list; rebinding would desynchronize them.
        Live entries keep their ``(time, priority, sequence)`` keys — a strict
        total order (sequence numbers are unique) — so the rebuilt heap pops
        in exactly the order the tombstoned heap would have.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[3].cancelled]
        heapq.heapify(self._queue)
        self._tombstones = 0
        self._heap_compactions += 1

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next live event.  Returns False when the queue is empty.

        Cancelled events surfacing at the head of the queue are discarded
        without executing, advancing the clock, or counting as processed.
        """
        queue = self._queue
        sanitizer = self._sanitizer
        while queue:
            time, _, _, event = heapq.heappop(queue)
            if event.cancelled:
                self._tombstones -= 1
                continue
            event._mark_fired()
            self._now = time
            self._events_processed += 1
            if sanitizer is None:
                event.action()
            else:
                sanitizer.before_fire(time, event.tag)
                try:
                    event.action()
                finally:
                    sanitizer.after_fire()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Args:
            until: Optional simulated-time horizon; events after it stay queued
                and the clock is advanced to exactly ``until``.
            max_events: Optional cap on the number of events to execute
                (cancelled events do not count toward the cap).

        Returns:
            The simulated time when the run stopped.
        """
        queue = self._queue
        executed = 0
        while queue:
            if max_events is not None and executed >= max_events:
                break
            head = queue[0]
            if head[3].cancelled:
                heapq.heappop(queue)
                self._tombstones -= 1
                continue
            if until is not None and head[0] > until:
                self._now = until
                break
            self.step()
            executed += 1
        if until is not None and self._now < until and not self._queue:
            self._now = until
        if self._sanitizer is not None:
            self._sanitizer.verify_closure(
                scheduled=self._sequence,
                processed=self._events_processed,
                cancelled=self._events_cancelled,
                pending=self.pending_events,
            )
        return self._now
