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

**Run service caches** (used with the columnar token log — see
:mod:`repro.metrics.token_log`): each run additionally carries

* ``min_remaining`` — a conservative lower bound on any live member's
  outstanding output tokens.  The stepper decrements it once per service and
  walks the members for exact completions only at the boundaries where the
  earliest member can actually finish, so the per-member completion check
  disappears from the steady-state loop.  The bound never overestimates:
  services decrement it in lockstep with every member's true remaining,
  admissions lower it, and chops inherit it (removing members can only make
  it conservative).
* ``context`` — the run's total *effective* KV context, maintained
  incrementally (bulk-added per service, shed by completions and chops).
  Extraction then walks only the **smaller side** of a chop: the slice's
  context is summed directly when the slice is smaller, or derived by
  subtracting the walked remainder from the cached total when it is not —
  and a chop consuming a whole run costs O(1).

The forest reproduces the flat view's order *exactly*: effective boosts are
``stored + offset`` (integer-valued, as produced by +1.0 aging steps), and
:meth:`RotationForest.flatten` materializes the identical
``(-priority_boost, arrival_time, request_id)`` order and writes back the
float boosts the per-iteration simulator would have produced.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.simulation.request import Request

#: ``min_remaining`` sentinel for runs whose bound is not constraining
#: (never triggers a completion walk).
NO_COMPLETION_BOUND = 1 << 60


def _member_key(request: "Request") -> tuple[float, int]:
    """Within-level order: FCFS by arrival, request id as the total tie-break."""
    return (request.arrival_time, request.request_id)


class RotationRun:
    """A ``(arrival, id)``-sorted segment of live members within one level.

    ``members[start:]`` are the live entries; extraction consumes from the
    head by advancing ``start`` instead of slicing.  ``min_remaining`` and
    ``context`` are the run service caches (see the module docstring).
    """

    __slots__ = ("members", "start", "min_remaining", "context")

    def __init__(self, members: list, start: int = 0) -> None:
        self.members = members
        self.start = start
        self.min_remaining = NO_COMPLETION_BOUND
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
        "segments",
        "count",
        "context",
        "whole_levels",
        "split_level",
        "split_bound",
        "extracted",
        "extracted_context",
    )

    def __init__(self) -> None:
        #: One ``(level, run, members)`` triple per contributing run;
        #: ``level``/``run`` are ``None`` for the split extraction (its
        #: members are not levelled until the aging commit).
        self.segments: list[tuple] = []
        self.count = 0
        self.context = 0
        self.whole_levels: list[RotationLevel] = []
        self.split_level: RotationLevel | None = None
        #: Completion bound carried by the split extraction (min over the
        #: bounds of the runs it consumed from).
        self.split_bound = NO_COMPLETION_BOUND
        self.extracted: list = []
        self.extracted_context = 0

    def requests(self) -> list:
        """The batch in priority order (matches the flat view's selection)."""
        flat: list = []
        for _, _, members in self.segments:
            flat.extend(members)
        return flat


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
    def from_ordered_view(cls, view: Iterable) -> "RotationForest | None":
        """Build a forest from a ``(-boost, arrival, id)``-ordered pool view.

        Returns ``None`` if any boost is not integer-valued (aging only ever
        adds 1.0, so non-integer boosts mean an external writer is involved
        and the flat representation must be kept).  Members are settled at
        entry (the machine exits any previous rotation through a settling
        flatten), so plain attribute reads are exact here.
        """
        forest = cls()
        levels = forest.levels
        current_boost: float | None = None
        members: list = []
        context = 0
        min_remaining = NO_COMPLETION_BOUND
        for request in view:
            boost = request.priority_boost
            if boost != current_boost:
                if not float(boost).is_integer():
                    return None
                if members:
                    levels.append(forest._new_level(int(current_boost), members, context, min_remaining))
                current_boost = boost
                members = []
                context = 0
                min_remaining = NO_COMPLETION_BOUND
            members.append(request)
            context += request.prompt_tokens + request.generated_tokens
            remaining = request.output_tokens - request.generated_tokens
            if remaining < min_remaining:
                min_remaining = remaining
        if members:
            levels.append(forest._new_level(int(current_boost), members, context, min_remaining))
        return forest

    def _new_level(self, stored: int, members: list, context: int, min_remaining: int) -> RotationLevel:
        run = RotationRun(members)
        run.context = context
        run.min_remaining = min_remaining
        return RotationLevel(stored, [run], len(members), context)

    # -- selection ------------------------------------------------------------------

    def select(self, limit: int, kv_budget: int) -> Selection | None:
        """The first ``limit`` members in priority order, or ``None`` when the
        KV budget would force the policy to skip a member (caller falls back
        to the exact policy path for that iteration)."""
        selection = Selection()
        segments = selection.segments
        need = limit
        for level in self.levels:
            if need <= 0:
                break
            if level.size <= need:
                for run in level.runs:
                    segments.append((level, run, run.live()))
                selection.whole_levels.append(level)
                selection.count += level.size
                selection.context += level.context
                need -= level.size
            else:
                extracted, context, bound = self._extract(level, need)
                selection.split_level = level
                selection.split_bound = bound
                selection.extracted = extracted
                selection.extracted_context = context
                segments.append((None, None, extracted))
                selection.count += need
                selection.context += context
                need = 0
        if selection.context > kv_budget:
            # The policy would skip (not truncate) here; hand the iteration
            # back to the exact selection loop.
            self._unextract(selection)
            return None
        return selection

    def _extract(self, level: RotationLevel, count: int) -> tuple[list, int, int]:
        """Consume the ``count`` smallest ``(arrival, id)`` members of ``level``.

        Multi-run levels use a galloping k-way merge: instead of moving one
        member per heap operation, the run holding the current minimum is
        consumed as a slice up to the second-smallest sibling head (found by
        bisection), so the cost is one heap operation per *run switch*, not
        per member — sibling runs hold mostly disjoint arrival bands, so
        switches are rare.

        Only the smaller side of each cut is walked for context (the larger
        side's total is derived from the run's cache), a whole-run
        consumption costs O(1), and the returned bound is the minimum
        completion bound over the runs the extraction touched.
        """
        runs = level.runs
        if len(runs) == 1:
            run = runs[0]
            start = run.start
            stop = start + count
            members = run.members
            extracted = members[start:stop]
            bound = run.min_remaining
            if stop == len(members):
                # Whole live run consumed: O(1).
                context = run.context
                run.context = 0
            elif count <= len(members) - stop:
                # The slice is the smaller side: sum it directly.  The
                # inlined reads are the canonical columnar-deferral formula
                # (generated == _svc_base + len(_svc_indices) while a
                # request's index column is open — see
                # repro.simulation.request); this walk is the hottest
                # per-member work left in the rotation.
                context = 0
                for request in extracted:
                    if request._svc_block is None:
                        context += request.prompt_tokens + request.generated_tokens
                    else:
                        context += request.prompt_tokens + request._svc_base + len(request._svc_indices)
                run.context -= context
            else:
                # The remainder is smaller: walk it and subtract.
                remainder_context = 0
                for request in members[stop:]:
                    if request._svc_block is None:
                        remainder_context += request.prompt_tokens + request.generated_tokens
                    else:
                        remainder_context += request.prompt_tokens + request._svc_base + len(request._svc_indices)
                context = run.context - remainder_context
                run.context = remainder_context
            run.start = stop
            level.size -= count
            level.context -= context
            if not len(run):
                level.runs = []
            return extracted, context, bound
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
        bound = NO_COMPLETION_BOUND
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
            if run.min_remaining < bound:
                bound = run.min_remaining
            if stop == len(members):
                # Whole rest of the run: O(1) from the cache.
                slice_context = run.context
                run.context = 0
            elif stop - start <= len(members) - stop:
                # The consumed slice is the smaller side: sum it directly.
                slice_context = 0
                for request in members[start:stop]:
                    if request._svc_block is None:
                        slice_context += request.prompt_tokens + request.generated_tokens
                    else:
                        slice_context += (
                            request.prompt_tokens + request._svc_base + len(request._svc_indices)
                        )
                run.context -= slice_context
            else:
                # The run's remainder is smaller: walk it and subtract.
                remainder_context = 0
                for request in members[stop:]:
                    if request._svc_block is None:
                        remainder_context += request.prompt_tokens + request.generated_tokens
                    else:
                        remainder_context += (
                            request.prompt_tokens + request._svc_base + len(request._svc_indices)
                        )
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
        return extracted, context, bound

    def _unextract(self, selection: Selection) -> None:
        """Undo a split extraction after an aborted (over-budget) selection."""
        level = selection.split_level
        if level is None or not selection.extracted:
            return
        extracted = selection.extracted
        context = selection.extracted_context
        restored = RotationRun(extracted)
        restored.context = context
        restored.min_remaining = selection.split_bound
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
            if source.min_remaining < run.min_remaining:
                run.min_remaining = source.min_remaining
        level.runs = [run]

    # -- aging ----------------------------------------------------------------------

    def commit_aging(
        self,
        selection: Selection,
        survivors: list,
        survivors_context: int,
        survivors_bound: int = NO_COMPLETION_BOUND,
    ) -> None:
        """Apply one aging pass: everyone not selected gains +1 boost.

        Implemented relatively: the forest offset rises by one while the
        wholly-selected levels and the split extraction (its ``survivors``,
        i.e. extracted members that did not complete this iteration, whose
        post-service context total and completion bound the caller tracks)
        step down one stored level, keeping their effective boost unchanged.
        """
        self.offset += 1
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
                run.min_remaining = survivors_bound
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
        """Add a newly admitted member at its current (integer) boost.

        The newcomer is settled (it was just admitted), so plain attribute
        reads are exact.
        """
        effective = int(request.priority_boost)
        stored = effective - self.offset
        context = request.prompt_tokens + request.generated_tokens
        remaining = request.output_tokens - request.generated_tokens
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
                if remaining < target.min_remaining:
                    target.min_remaining = remaining
                level.size += 1
                level.context += context
                return
            if level.stored < stored:
                levels.insert(index, self._new_level(stored, [request], context, remaining))
                return
        levels.append(self._new_level(stored, [request], context, remaining))

    # -- materialization ------------------------------------------------------------

    def flatten(self, inflight: Selection | None = None) -> list:
        """The pool in exact flat-view order, with float boosts written back.

        Pure with respect to the forest structure (safe to call between any
        two iterations, and — with ``inflight`` — mid-iteration: the
        in-flight selection's consumed split extraction is spliced back in at
        its level's head, where those members sort).  Columnar callers settle
        deferred member state themselves (see
        ``SimulatedMachine._materialize_rotation``).
        """
        flat: list = []
        offset = self.offset
        split = inflight.split_level if inflight is not None else None
        for level in self.levels:
            boost = float(level.stored + offset)
            if level is split:
                for request in inflight.extracted:
                    request.priority_boost = boost
                    flat.append(request)
            runs = level.runs
            members = runs[0].live() if len(runs) == 1 else heapq.merge(*(run.live() for run in runs), key=_member_key)
            for request in members:
                request.priority_boost = boost
                flat.append(request)
        return flat

    def total_size(self) -> int:
        """Live member count (for cross-checks)."""
        return sum(level.size for level in self.levels)
