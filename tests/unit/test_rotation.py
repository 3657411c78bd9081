"""Unit tests for the steady-state rotation forest (`repro.batching.rotation`).

The forest must reproduce the flat ``(-priority_boost, arrival, id)`` order
exactly through any sequence of selections, aging passes, insertions, and
flattenings — the machine-level parity tests in
``tests/property/test_accounting_invariants.py`` exercise it end-to-end;
these tests pin the structural invariants directly.
"""

from __future__ import annotations

import random

from repro.batching.policies import priority_key
from repro.batching.rotation import RotationForest
from repro.simulation.request import Request
from repro.workload.trace import RequestDescriptor


def _request(request_id: int, arrival: float, boost: float = 0.0, prompt: int = 100, output: int = 50) -> Request:
    request = Request(
        descriptor=RequestDescriptor(
            request_id=request_id, arrival_time_s=arrival, prompt_tokens=prompt, output_tokens=output
        )
    )
    request.priority_boost = boost
    return request


def _service(selection) -> None:
    """One decode service with no completions, plus the stepper's cache upkeep.

    Every selected member generates one token, so each levelled run and its
    level grow their cached context by one per member.  The split
    extraction is not levelled yet: ``commit_aging`` accounts its survivors.
    """
    for level, run, members in selection.segments:
        for request in members:
            request.generated_tokens += 1
        if level is not None:
            run.context += len(members)
            level.context += len(members)


def _ordered_pool(count: int, rng: random.Random) -> list[Request]:
    pool = [
        _request(i, arrival=rng.random() * 10.0, boost=float(rng.randrange(4)), output=rng.randrange(5, 60))
        for i in range(count)
    ]
    pool.sort(key=priority_key)
    return pool


class TestRotationForest:
    def test_flatten_roundtrips_the_view(self):
        rng = random.Random(1)
        pool = _ordered_pool(50, rng)
        forest = RotationForest.from_ordered_view(pool)
        assert forest is not None
        assert forest.total_size() == 50
        assert forest.flatten() == pool

    def test_non_integer_boosts_are_rejected(self):
        pool = [_request(0, 1.0, boost=0.5)]
        assert RotationForest.from_ordered_view(pool) is None

    def test_selection_is_the_view_prefix(self):
        rng = random.Random(2)
        pool = _ordered_pool(40, rng)
        forest = RotationForest.from_ordered_view(pool)
        selection = forest.select(16, 10**9)
        assert selection is not None
        assert selection.requests() == pool[:16]
        assert selection.context == sum(r.prompt_tokens + r.generated_tokens for r in pool[:16])

    def test_selection_respects_kv_budget(self):
        pool = _ordered_pool(10, random.Random(3))
        forest = RotationForest.from_ordered_view(pool)
        # A budget below the prefix context forces the policy's skip logic,
        # which the forest cannot reproduce: it must decline (and leave the
        # forest untouched for the exact fallback path).
        assert forest.select(8, 1) is None
        assert forest.flatten() == pool

    def test_aging_matches_flat_semantics(self):
        """Selection + aging over the forest == the same over a flat list."""
        rng = random.Random(4)
        pool = _ordered_pool(30, rng)
        mirror = {r.request_id: r.priority_boost for r in pool}
        forest = RotationForest.from_ordered_view(pool)
        batch = 8
        for _ in range(25):
            selection = forest.select(batch, 10**9)
            selected = selection.requests()
            selected_ids = {r.request_id for r in selected}
            # Flat reference: everyone skipped gains +1.
            for request_id in mirror:
                if request_id not in selected_ids:
                    mirror[request_id] += 1.0
            _service(selection)
            survivors = selection.extracted
            survivors_context = selection.extracted_context + len(survivors)
            forest.commit_aging(selection, survivors, survivors_context)
        flat = forest.flatten()
        assert [r.request_id for r in flat] == [
            r.request_id for r in sorted(flat, key=priority_key)
        ]
        for request in flat:
            assert request.priority_boost == mirror[request.request_id]

    def test_insert_keeps_order(self):
        rng = random.Random(5)
        pool = _ordered_pool(20, rng)
        forest = RotationForest.from_ordered_view(pool)
        newcomer = _request(1000, arrival=rng.random() * 10.0, boost=0.0)
        forest.insert(newcomer)
        flat = forest.flatten()
        assert len(flat) == 21
        assert [priority_key(r) for r in flat] == sorted(priority_key(r) for r in flat)

    def test_galloping_extraction_across_sibling_runs(self):
        """Force same-level sibling runs and verify k-way extraction order."""
        rng = random.Random(6)
        pool = _ordered_pool(64, rng)
        forest = RotationForest.from_ordered_view(pool)
        for _ in range(40):
            expected = forest.flatten()  # the exact flat-view order before selecting
            selection = forest.select(7, 10**9)
            # Wholly-selected levels list sibling runs in run order, so the
            # selection is set-identical (not order-identical) to the view
            # prefix; every order-sensitive consumer re-derives order from
            # the flattened view.
            assert {r.request_id for r in selection.requests()} == {
                r.request_id for r in expected[:7]
            }
            assert selection.context == sum(
                r.prompt_tokens + r.generated_tokens for r in expected[:7]
            )
            _service(selection)
            survivors = selection.extracted
            forest.commit_aging(
                selection, survivors, selection.extracted_context + len(survivors)
            )
