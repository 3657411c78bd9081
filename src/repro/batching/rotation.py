"""Steady-state decode rotation: O(batch) iterations over oversubscribed pools.

When a machine's token pool holds more requests than fit one decode batch,
the batching policy selects the first ``max_batch_size`` requests in priority
order and the aging pass boosts everyone left out (§IV-B), producing a fair
round-robin rotation.  Maintaining that order as a flat sorted list costs
O(pool) per iteration — the boost writes, the kept/boosted split, and the
two-run merge each walk the whole pool — which made saturated drains the
hottest loop in the simulator.

:class:`RotationForest` represents the same total order hierarchically so
each iteration costs O(batch) instead of O(pool):

* Members are grouped into **levels** by priority boost.  A level stores the
  boost relative to a forest-wide ``offset``; the aging pass ("everyone not
  selected gains +1") becomes ``offset += 1`` plus a ``-1`` on the handful of
  wholly-selected levels — O(selected levels), not O(pool).
* Within a level, members sit in **runs**: ``(arrival_time, request_id)``-
  sorted segments.  Selection takes whole levels from the top and splits at
  most one level via a lazy k-way extraction across its sibling runs, so the
  interleaving merge the flat list needed on every iteration is deferred
  until a split actually reaches it.
* Each level caches its live member count and total KV context, so the
  batch's context total — the input to the latency model — is accumulated
  from O(selected levels) cached sums plus the split remainder.

**Run context cache**: each run additionally carries ``context``, its
members' total KV context, maintained incrementally (bulk-added per service,
shed by completions and chops).  Extraction then walks only the **smaller
side** of a chop: the slice's context is summed directly when the slice is
smaller, or derived by subtracting the walked remainder from the cached
total when it is not — and a chop consuming a whole run costs O(1).

The forest only orders the pool: the machine composes and finishes a
forest-ordered iteration like any other, services the selected batch in its
one per-member finish loop (token time, generated count, phase,
completion), and hands the completers to :meth:`RotationForest.commit_aging`,
which keeps the run and level caches and ages the skipped.

The forest reproduces the flat view's order *exactly*: boosts are integer
counts of skipped iterations, effective boosts are ``stored + offset``, and
:meth:`RotationForest.flatten` materializes the identical
``(-priority_boost, arrival_time, request_id)`` order and writes back the
boosts the per-iteration simulator would have produced.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.simulation.request import Request

def _member_key(request: "Request") -> tuple[float, int]:
    """Within-level order: FCFS by arrival, request id as the total tie-break."""
    return (request.arrival_time, request.request_id)


class RotationRun:
    """A ``(arrival, id)``-sorted segment of live members within one level.

    ``members[start:]`` are the live entries; extraction consumes from the
    head by advancing ``start`` instead of slicing.  ``context`` is the run
    context cache (see the module docstring).
    """

    __slots__ = ("members", "start", "context")

    def __init__(self, members: list, start: int = 0) -> None:
        self.members = members
        self.start = start
        self.context = 0

    def __len__(self) -> int:
        return len(self.members) - self.start

    def live(self) -> list:
        """The live members in order (a copy only when consumed)."""
        return self.members if self.start == 0 else self.members[self.start :]


class RotationLevel:
    """All members sharing one effective boost, as sibling sorted runs.

    Attributes:
        stored: Boost relative to the forest offset (effective boost is
            ``stored + offset``).
        runs: Sibling runs; each is internally ordered but siblings may
            interleave — splits resolve the interleaving lazily.
        size: Live member count across runs.
        context: Total KV context (``prompt_tokens + generated_tokens``) of
            the live members, maintained incrementally.
    """

    __slots__ = ("stored", "runs", "size", "context")

    def __init__(self, stored: int, runs: list, size: int, context: int) -> None:
        self.stored = stored
        self.runs = runs
        self.size = size
        self.context = context


class Selection:
    """The batch for one rotation iteration plus the data aging needs."""

    __slots__ = (
        "batch",
        "segments",
        "context",
        "whole_levels",
        "split_level",
        "extracted",
        "extracted_context",
    )

    def __init__(self) -> None:
        self.batch: list = []
        #: One ``(level, run, stop)`` triple per contributing run, whose
        #: members end at ``batch[stop]``; ``level``/``run`` are ``None`` for
        #: the split extraction (not levelled until the aging commit).
        self.segments: list[tuple] = []
        self.context = 0
        self.whole_levels: list[RotationLevel] = []
        self.split_level: RotationLevel | None = None
        self.extracted: list = []
        self.extracted_context = 0

    def requests(self) -> list:
        """The batch: whole levels run by run, then the split extraction.

        The same members as the flat view's prefix; sibling runs of a
        wholly-selected level are listed one after another, not merged.
        """
        return self.batch


class RotationForest:
    """Priority-ordered token pool with O(batch) selection and O(1) aging."""

    __slots__ = ("levels", "offset")

    #: A level with more sibling runs than this is consolidated into one run
    #: on its next split, bounding k-way heap width (amortized rare).
    MAX_SIBLING_RUNS = 32

    def __init__(self) -> None:
        self.levels: list[RotationLevel] = []  # stored DESC == effective DESC
        self.offset = 0

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_ordered_view(cls, view: Iterable) -> "RotationForest":
        """Build a forest from a ``(-boost, arrival, id)``-ordered pool view."""
        forest = cls()
        levels = forest.levels
        members: list = []
        context = 0
        for request in view:
            if members and request.priority_boost != members[0].priority_boost:
                levels.append(forest._new_level(members[0].priority_boost, members, context))
                members = []
                context = 0
            members.append(request)
            context += request.prompt_tokens + request.generated_tokens
        if members:
            levels.append(forest._new_level(members[0].priority_boost, members, context))
        return forest

    def _new_level(self, stored: int, members: list, context: int) -> RotationLevel:
        run = RotationRun(members)
        run.context = context
        return RotationLevel(stored, [run], len(members), context)

    # -- selection ------------------------------------------------------------------

    def select(self, limit: int, kv_budget: int) -> Selection | None:
        """The first ``limit`` members in priority order, or ``None`` when the
        KV budget would force the policy to skip a member (caller falls back
        to the exact policy path for that iteration)."""
        selection = Selection()
        batch = selection.batch
        segments = selection.segments
        need = limit
        for level in self.levels:
            if need <= 0:
                break
            if level.size <= need:
                for run in level.runs:
                    batch.extend(run.live())
                    segments.append((level, run, len(batch)))
                selection.whole_levels.append(level)
                selection.context += level.context
                need -= level.size
            else:
                extracted, context = self._extract(level, need)
                selection.split_level = level
                selection.extracted = extracted
                selection.extracted_context = context
                batch.extend(extracted)
                segments.append((None, None, len(batch)))
                selection.context += context
                need = 0
        if selection.context > kv_budget:
            # The policy would skip (not truncate) here; hand the iteration
            # back to the exact selection loop.
            self._unextract(selection)
            return None
        return selection

    def _extract(self, level: RotationLevel, count: int) -> tuple[list, int]:
        """Consume the ``count`` smallest ``(arrival, id)`` members of ``level``.

        Multi-run levels use a galloping k-way merge: instead of moving one
        member per heap operation, the run holding the current minimum is
        consumed as a slice up to the second-smallest sibling head (found by
        bisection), so the cost is one heap operation per *run switch*, not
        per member — sibling runs hold mostly disjoint arrival bands, so
        switches are rare.

        Only the smaller side of each cut is walked for context (the larger
        side's total is derived from the run's cache), and a whole-run
        consumption costs O(1).
        """
        runs = level.runs
        if len(runs) == 1:
            run = runs[0]
            start = run.start
            stop = start + count
            members = run.members
            extracted = members[start:stop]
            if stop == len(members):
                # Whole live run consumed: O(1).
                context = run.context
                run.context = 0
            elif count <= len(members) - stop:
                # The slice is the smaller side: sum it directly.
                context = 0
                for request in extracted:
                    context += request.prompt_tokens + request.generated_tokens
                run.context -= context
            else:
                # The remainder is smaller: walk it and subtract.
                remainder_context = 0
                for request in members[stop:]:
                    remainder_context += request.prompt_tokens + request.generated_tokens
                context = run.context - remainder_context
                run.context = remainder_context
            run.start = stop
            level.size -= count
            level.context -= context
            if not len(run):
                level.runs = []
            return extracted, context
        if len(runs) > self.MAX_SIBLING_RUNS:
            self._consolidate(level)
            runs = level.runs
        if len(runs) == 1:
            return self._extract(level, count)
        heap = []
        for index, run in enumerate(runs):
            if len(run):
                head = run.members[run.start]
                heap.append((head.arrival_time, head.request_id, index))
        heapq.heapify(heap)
        extracted: list = []
        extend = extracted.extend
        taken = 0
        context = 0
        while taken < count:
            index = heap[0][2]
            run = runs[index]
            members = run.members
            start = run.start
            room = start + (count - taken)
            heap_size = len(heap)
            if heap_size == 1:
                stop = min(len(members), room)
            else:
                # Second-smallest head is the smaller root child; consume
                # this run up to it in one slice.
                limit = heap[1] if heap_size < 3 or heap[1] < heap[2] else heap[2]
                stop = bisect_left(
                    members,
                    (limit[0], limit[1]),
                    start + 1,
                    min(len(members), room),
                    key=_member_key,
                )
            if stop == len(members):
                # Whole rest of the run: O(1) from the cache.
                slice_context = run.context
                run.context = 0
            elif stop - start <= len(members) - stop:
                # The consumed slice is the smaller side: sum it directly.
                slice_context = 0
                for request in members[start:stop]:
                    slice_context += request.prompt_tokens + request.generated_tokens
                run.context -= slice_context
            else:
                # The run's remainder is smaller: walk it and subtract.
                remainder_context = 0
                for request in members[stop:]:
                    remainder_context += request.prompt_tokens + request.generated_tokens
                slice_context = run.context - remainder_context
                run.context = remainder_context
            context += slice_context
            extend(members[start:stop])
            taken += stop - start
            run.start = stop
            if stop == len(members):
                heapq.heappop(heap)
                if not heap:
                    break
            else:
                head = members[stop]
                heapq.heapreplace(heap, (head.arrival_time, head.request_id, index))
        level.size -= count
        level.context -= context
        level.runs = [run for run in level.runs if len(run)]
        return extracted, context

    def _unextract(self, selection: Selection) -> None:
        """Undo a split extraction after an aborted (over-budget) selection."""
        level = selection.split_level
        if level is None or not selection.extracted:
            return
        extracted = selection.extracted
        context = selection.extracted_context
        restored = RotationRun(extracted)
        restored.context = context
        level.runs.insert(0, restored)
        level.size += len(extracted)
        level.context += context
        self._consolidate(level)

    def _consolidate(self, level: RotationLevel) -> None:
        """Merge a level's sibling runs into one ordered run."""
        if len(level.runs) <= 1:
            return
        merged = list(heapq.merge(*(run.live() for run in level.runs), key=_member_key))
        run = RotationRun(merged)
        for source in level.runs:
            run.context += source.context
        level.runs = [run]

    # -- aging ----------------------------------------------------------------------

    def commit_aging(self, selection: Selection, completed: list) -> None:
        """Commit one served iteration, then age everyone not selected by +1.

        Every member of ``selection`` generated one token, and ``completed``
        are those it finished, in batch order.  Each serviced run and its
        level grow their context caches by one per member; a completer
        leaves its run with its whole context and keeps the effective boost
        it was served at (what the flat path leaves on it).

        Aging is relative: the forest offset rises by one while the
        wholly-selected levels and the split extraction's survivors step
        down one stored level, keeping their effective boost unchanged.
        """
        offset = self.offset
        # Completers come in batch order, so each segment's are one slice of
        # ``completed``, cut at the segment's stop.
        positions = []
        position = 0
        for request in completed:
            position = selection.batch.index(request, position)
            positions.append(position)
        survivors = selection.extracted
        survivors_context = 0
        start = 0
        first = 0
        for level, run, stop in selection.segments:
            growth = stop - start
            last = bisect_left(positions, stop, first) if positions else first
            if last > first:
                gone = completed[first:last]
                done = {id(request) for request in gone}
                owner = selection.split_level if level is None else level
                boost = owner.stored + offset
                for request in gone:
                    request.priority_boost = boost
                    growth -= request.prompt_tokens + request.generated_tokens
                if run is None:
                    survivors = [r for r in survivors if id(r) not in done]
                else:
                    level.size -= len(gone)
                    run.members = [r for r in run.live() if id(r) not in done]
                    run.start = 0
                first = last
            if run is None:
                survivors_context = selection.extracted_context + growth
            else:
                run.context += growth
                level.context += growth
            start = stop
        self.offset = offset + 1
        dirty = False
        previous_stored = None
        for level in selection.whole_levels:
            level.stored -= 1
            if level.size <= 0 or level.stored == previous_stored:
                dirty = True
            previous_stored = level.stored
        split = selection.split_level
        levels = self.levels
        if split is not None:
            if split.size <= 0 or split.stored == previous_stored:
                dirty = True
            if survivors:
                run = RotationRun(survivors)
                run.context = survivors_context
                index = levels.index(split)
                below = levels[index + 1] if index + 1 < len(levels) else None
                if below is not None and below.stored == split.stored - 1 and below.size > 0:
                    # The survivor level collides with its neighbour almost
                    # every iteration; merge in place (same content the full
                    # normalize pass would produce) instead of rebuilding the
                    # whole level list.
                    below.runs.insert(0, run)
                    below.size += len(survivors)
                    below.context += survivors_context
                else:
                    new_level = RotationLevel(
                        split.stored - 1, [run], len(survivors), survivors_context
                    )
                    levels.insert(index + 1, new_level)
        # Wholly-selected levels may step onto the level below them, and
        # completions can empty a serviced level; both need the full merge
        # pass.  The common survivor collision was handled above, so the
        # rebuild only runs when the cheap per-selected checks saw a change.
        if dirty or (selection.whole_levels and self._selected_prefix_collides(selection)):
            self._normalize()

    def _selected_prefix_collides(self, selection: Selection) -> bool:
        """Whether a stepped-down selected level now collides with a neighbour."""
        last = selection.whole_levels[-1]
        levels = self.levels
        try:
            index = levels.index(last)
        except ValueError:  # pragma: no cover - defensive; selection is current
            return True
        return index + 1 < len(levels) and levels[index + 1].stored == last.stored

    def _normalize(self) -> None:
        merged: list[RotationLevel] = []
        for level in self.levels:
            if level.size <= 0:
                continue
            if merged and merged[-1].stored == level.stored:
                previous = merged[-1]
                previous.runs.extend(level.runs)
                previous.size += level.size
                previous.context += level.context
            else:
                merged.append(level)
        self.levels = merged

    # -- membership -----------------------------------------------------------------

    def insert(self, request) -> None:
        """Add a newly admitted member at its current boost."""
        stored = request.priority_boost - self.offset
        context = request.prompt_tokens + request.generated_tokens
        levels = self.levels
        for index, level in enumerate(levels):
            if level.stored == stored:
                last = level.runs[-1]
                tail = last.members[-1] if len(last) else None
                if tail is not None and _member_key(tail) < _member_key(request):
                    last.members.append(request)
                    target = last
                else:
                    target = RotationRun([request])
                    level.runs.append(target)
                target.context += context
                level.size += 1
                level.context += context
                return
            if level.stored < stored:
                levels.insert(index, self._new_level(stored, [request], context))
                return
        levels.append(self._new_level(stored, [request], context))

    # -- materialization ------------------------------------------------------------

    def flatten(self, inflight: Selection | None = None) -> list:
        """The pool in exact flat-view order, with boosts written back.

        Pure with respect to the forest structure (safe to call between any
        two iterations, and — with ``inflight`` — mid-iteration: the
        in-flight selection's consumed split extraction is merged back into
        its level like any sibling run, since members admitted since may
        sort inside it).
        """
        flat: list = []
        offset = self.offset
        split = inflight.split_level if inflight is not None else None
        for level in self.levels:
            boost = level.stored + offset
            runs = [run.live() for run in level.runs]
            if level is split:
                runs.append(inflight.extracted)
            members = runs[0] if len(runs) == 1 else heapq.merge(*runs, key=_member_key)
            for request in members:
                request.priority_boost = boost
                flat.append(request)
        return flat
