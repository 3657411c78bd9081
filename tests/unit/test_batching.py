"""Unit tests for the batching policies (Fig. 2)."""

from __future__ import annotations

from collections import deque

import pytest

from repro.batching.policies import (
    BatchConstraints,
    BatchPlan,
    ContinuousBatching,
    MixedContinuousBatching,
    RequestLevelBatching,
    make_policy,
)
from repro.core.cluster import ClusterSimulation
from repro.core.designs import baseline_h100, splitwise_hh
from repro.metrics.collectors import census
from repro.workload.generator import generate_trace


def _request(make_request, request_id, prompt=100, output=4, arrival=0.0):
    return make_request(request_id=request_id, arrival=arrival, prompt=prompt, output=output)


def _decoding(make_request, request_id, prompt=100, output=4, arrival=0.0):
    """A request already past its prompt phase (one token generated)."""
    request = _request(make_request, request_id, prompt, output, arrival)
    request.start_prompt(arrival, "m")
    request.finish_prompt(arrival + 0.1)
    return request


class TestBatchConstraints:
    def test_defaults_match_paper(self):
        constraints = BatchConstraints()
        assert constraints.max_prompt_tokens == 2048
        assert constraints.max_batch_size == 64

    @pytest.mark.parametrize("kwargs", [
        {"max_prompt_tokens": 0},
        {"max_batch_size": 0},
        {"max_kv_tokens": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BatchConstraints(**kwargs)

    def test_zero_kv_tokens_means_unlimited(self):
        constraints = BatchConstraints(max_kv_tokens=0)
        assert constraints.kv_capacity > 10**15


class TestBatchPlan:
    def test_aggregates(self, make_request):
        prompts = [_request(make_request, 0, prompt=300), _request(make_request, 1, prompt=200)]
        tokens = [_decoding(make_request, 2, prompt=100, output=5)]
        plan = BatchPlan(prompt_requests=prompts, token_requests=tokens)
        assert plan.prompt_tokens == 500
        assert plan.active_tokens == 501
        assert plan.context_tokens == 101

    def test_empty(self):
        assert BatchPlan().is_empty


class TestMixedContinuousBatching:
    def test_combines_prompts_and_tokens(self, make_request):
        policy = MixedContinuousBatching()
        pending = deque([_request(make_request, 0, prompt=500)])
        decoding = [_decoding(make_request, 1), _decoding(make_request, 2)]
        plan = policy.plan_iteration(pending, decoding, BatchConstraints())
        assert len(plan.prompt_requests) == 1
        assert len(plan.token_requests) == 2
        assert not pending  # the admitted prompt was popped

    def test_prompt_token_budget_respected(self, make_request):
        policy = MixedContinuousBatching()
        pending = deque([
            _request(make_request, 0, prompt=1500),
            _request(make_request, 1, prompt=1000),
            _request(make_request, 2, prompt=100),
        ])
        plan = policy.plan_iteration(pending, [], BatchConstraints(max_prompt_tokens=2048))
        # The second prompt would exceed 2048 batched tokens, so only one runs.
        assert [r.request_id for r in plan.prompt_requests] == [0]
        assert len(pending) == 2

    def test_single_oversized_prompt_still_admitted(self, make_request):
        policy = MixedContinuousBatching()
        pending = deque([_request(make_request, 0, prompt=8000)])
        plan = policy.plan_iteration(pending, [], BatchConstraints(max_prompt_tokens=2048))
        assert len(plan.prompt_requests) == 1

    def test_batch_size_limit_counts_prompts_and_tokens(self, make_request):
        policy = MixedContinuousBatching()
        pending = deque([_request(make_request, i, prompt=10) for i in range(3)])
        decoding = [_decoding(make_request, 10 + i) for i in range(5)]
        plan = policy.plan_iteration(pending, decoding, BatchConstraints(max_batch_size=4))
        assert len(plan.prompt_requests) + len(plan.token_requests) <= 4
        assert len(plan.prompt_requests) == 3  # prompts admitted first

    def test_kv_budget_limits_token_selection(self, make_request):
        policy = MixedContinuousBatching()
        decoding = [_decoding(make_request, i, prompt=1000) for i in range(4)]
        plan = policy.plan_iteration(deque(), decoding, BatchConstraints(max_kv_tokens=2500))
        assert len(plan.token_requests) == 2

    def test_priority_boost_reorders_tokens(self, make_request):
        policy = MixedContinuousBatching()
        first = _decoding(make_request, 0, arrival=0.0)
        second = _decoding(make_request, 1, arrival=1.0)
        second.priority_boost = 5.0
        plan = policy.plan_iteration(deque(), [first, second], BatchConstraints(max_batch_size=1))
        assert plan.token_requests == [second]


class TestContinuousBatching:
    def test_prompts_preempt_tokens(self, make_request):
        policy = ContinuousBatching()
        pending = deque([_request(make_request, 0)])
        decoding = [_decoding(make_request, 1)]
        plan = policy.plan_iteration(pending, decoding, BatchConstraints())
        assert plan.prompt_requests and not plan.token_requests

    def test_tokens_run_when_no_prompts(self, make_request):
        policy = ContinuousBatching()
        decoding = [_decoding(make_request, 1), _decoding(make_request, 2)]
        plan = policy.plan_iteration(deque(), decoding, BatchConstraints())
        assert not plan.prompt_requests
        assert len(plan.token_requests) == 2


class TestRequestLevelBatching:
    def test_new_batch_admitted_only_when_previous_drains(self, make_request):
        policy = RequestLevelBatching()
        first = _request(make_request, 0, prompt=100, output=2)
        second = _request(make_request, 1, prompt=100, output=2)
        pending = deque([first, second])

        plan1 = policy.plan_iteration(pending, [], BatchConstraints())
        assert plan1.prompt_requests == [first, second]

        # Simulate both finishing their prompt phase and still decoding.
        for request in (first, second):
            request.start_prompt(0.0, "m")
            request.finish_prompt(0.1)
        late = _request(make_request, 2, arrival=0.2)
        pending.append(late)

        plan2 = policy.plan_iteration(pending, [first, second], BatchConstraints())
        assert not plan2.prompt_requests  # the late request must wait
        assert set(plan2.token_requests) == {first, second}

        # Batch completes; the next iteration admits the waiting request.
        for request in (first, second):
            request.generate_token(0.2)
        plan3 = policy.plan_iteration(pending, [], BatchConstraints())
        assert plan3.prompt_requests == [late]

    def test_token_pool_members_outside_batch_ignored(self, make_request):
        policy = RequestLevelBatching()
        member = _request(make_request, 0, output=3)
        pending = deque([member])
        policy.plan_iteration(pending, [], BatchConstraints())
        member.start_prompt(0.0, "m")
        member.finish_prompt(0.1)
        foreign = _decoding(make_request, 99)
        plan = policy.plan_iteration(pending, [member, foreign], BatchConstraints())
        assert foreign not in plan.token_requests

    def test_split_design_rejected(self):
        # A Splitwise token machine receives its requests by KV transfer,
        # never through the prompt queue this policy batches from, so it
        # would strand them.
        with pytest.raises(ValueError, match="Splitwise-HH"):
            ClusterSimulation(splitwise_hh(1, 1), batching="request-level")
        with pytest.raises(ValueError, match="request-level"):
            ClusterSimulation(splitwise_hh(1, 1), batching="Request-Level")

    def test_unsplit_design_drains(self):
        trace = generate_trace("conversation", rate_rps=2.0, duration_s=10.0, seed=0)
        result = ClusterSimulation(baseline_h100(1), batching="request-level").run(trace)
        assert census(result.requests)["completed"] == len(trace)


class TestPolicyFactory:
    @pytest.mark.parametrize("name,cls", [
        ("mixed", MixedContinuousBatching),
        ("mixed-continuous", MixedContinuousBatching),
        ("continuous", ContinuousBatching),
        ("request-level", RequestLevelBatching),
    ])
    def test_known_policies(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="Unknown batching policy"):
            make_policy("clockwork")
