"""Unit tests for the provisioning framework (§IV-D, Fig. 12)."""

from __future__ import annotations

import pytest

from repro.core.designs import baseline_h100, splitwise_hh, splitwise_hhcap
from repro.core.provisioning import (
    CandidateEvaluation,
    OptimizationGoal,
    Provisioner,
    estimate_pool_sizes,
    find_max_throughput,
)
from repro.hardware.machine import DGX_A100


@pytest.fixture(scope="module")
def provisioner() -> Provisioner:
    """A fast provisioner: short traces, coding workload."""
    return Provisioner(workload="coding", trace_duration_s=20.0, seed=3)


class TestEvaluate:
    def test_feasible_at_low_load(self, provisioner):
        candidate = provisioner.evaluate(splitwise_hh(2, 1), rate_rps=1.0)
        assert candidate.feasible
        assert candidate.completion_rate >= 0.98
        assert candidate.slo_report.satisfied
        assert candidate.cost_per_hour == splitwise_hh(2, 1).cost_per_hour

    def test_infeasible_at_overload(self, provisioner):
        candidate = provisioner.evaluate(splitwise_hh(1, 1), rate_rps=40.0)
        assert not candidate.feasible

    def test_trace_cache_reused(self, provisioner):
        first = provisioner.trace_at(2.0)
        second = provisioner.trace_at(2.0)
        assert first is second


class TestMaxThroughput:
    def test_monotone_frontier(self, provisioner):
        rate, evaluations = provisioner.max_throughput(splitwise_hh(2, 1), rates=(1.0, 3.0, 40.0))
        assert rate >= 1.0
        assert any(e.feasible for e in evaluations)

    def test_returns_zero_when_nothing_feasible(self, provisioner):
        rate, _ = provisioner.max_throughput(splitwise_hh(1, 1), rates=(50.0,))
        assert rate == 0.0

    def test_convenience_wrapper(self):
        rate = find_max_throughput(
            baseline_h100(2), rates=(1.0, 2.0), workload="coding", trace_duration_s=15.0, seed=3
        )
        assert rate in (0.0, 1.0, 2.0)


class TestSizeForThroughput:
    def test_cost_optimal_configuration_found(self, provisioner):
        result = provisioner.size_for_throughput(
            "Splitwise-HH", target_rps=2.0, prompt_counts=(1, 2), token_counts=(1,), goal=OptimizationGoal.COST
        )
        assert result.candidates
        assert result.best is not None
        feasible_costs = [c.cost_per_hour for c in result.candidates if c.feasible]
        assert result.best.cost_per_hour == min(feasible_costs)

    def test_power_goal_selects_lowest_power(self, provisioner):
        result = provisioner.size_for_throughput(
            "Splitwise-HHcap",
            target_rps=2.0,
            prompt_counts=(1, 2),
            token_counts=(1,),
            goal=OptimizationGoal.POWER,
        )
        if result.best is not None:
            feasible_power = [c.provisioned_power_kw for c in result.candidates if c.feasible]
            assert result.best.provisioned_power_kw == min(feasible_power)

    def test_baseline_family_ignores_token_counts(self, provisioner):
        result = provisioner.size_for_throughput(
            "Baseline-H100", target_rps=2.0, prompt_counts=(1, 2), token_counts=(0,), goal=OptimizationGoal.COST
        )
        assert all(not c.design.split for c in result.candidates)

    def test_infeasible_search_returns_no_best(self, provisioner):
        result = provisioner.size_for_throughput(
            "Splitwise-HH", target_rps=80.0, prompt_counts=(1,), token_counts=(1,)
        )
        assert result.best is None
        assert not any(c.feasible for c in result.candidates)


def _scripted(feasible_rates=(), feasible_sizes=None):
    """A provisioner whose evaluate() answers from a script, recording every call.

    A (design, rate) point is feasible when its rate is in ``feasible_rates``
    or, with ``feasible_sizes`` given, when its ``(num_prompt, num_token)``
    is listed.
    """
    provisioner = Provisioner(workload="coding", trace_duration_s=1.0)
    provisioner.calls = []

    def evaluate(design, rate_rps):
        provisioner.calls.append((design.num_prompt, design.num_token, rate_rps))
        feasible = rate_rps in feasible_rates
        if feasible_sizes is not None:
            feasible = (design.num_prompt, design.num_token) in feasible_sizes
        return CandidateEvaluation(
            design=design,
            rate_rps=rate_rps,
            feasible=feasible,
            slo_report=None,
            metrics=None,
            completion_rate=1.0,
        )

    provisioner.evaluate = evaluate
    return provisioner


class TestRateScan:
    """max_throughput's scan order and stopping rule, on scripted feasibility."""

    def test_rates_are_scanned_in_ascending_order(self):
        provisioner = _scripted(feasible_rates={1.0, 2.0, 3.0})
        rate, evaluations = provisioner.max_throughput(splitwise_hh(2, 1), rates=(3.0, 1.0, 2.0))
        assert rate == 3.0
        assert [e.rate_rps for e in evaluations] == [1.0, 2.0, 3.0]

    def test_scan_stops_at_the_first_infeasible_rate_above_a_feasible_one(self):
        # 4.0 would pass too: the frontier is not monotone, the scan does not look.
        provisioner = _scripted(feasible_rates={1.0, 2.0, 4.0})
        rate, evaluations = provisioner.max_throughput(splitwise_hh(2, 1), rates=(1.0, 2.0, 3.0, 4.0, 5.0))
        assert rate == 2.0
        assert [e.rate_rps for e in evaluations] == [1.0, 2.0, 3.0]

    def test_infeasible_low_rates_do_not_stop_the_scan(self):
        provisioner = _scripted(feasible_rates={3.0})
        rate, evaluations = provisioner.max_throughput(splitwise_hh(2, 1), rates=(1.0, 2.0, 3.0, 4.0))
        assert rate == 3.0
        assert [e.feasible for e in evaluations] == [False, False, True, False]

    def test_reference_model_is_an_uncontended_dgx_a100(self):
        provisioner = Provisioner(workload="conversation", trace_duration_s=1.0)
        assert provisioner.reference_model.machine is DGX_A100
        assert provisioner.reference_model.model is provisioner.model


class TestCandidateGrid:
    @pytest.mark.parametrize(
        "family, num_prompt, num_token, machines",
        [
            ("Splitwise-HH", 2, 1, 3),
            ("Splitwise-HH", 2, 0, None),
            ("Splitwise-HH", 0, 2, None),
            ("Splitwise-HH", 1, -1, None),
            ("Baseline-H100", 2, 0, 2),
            ("Baseline-A100", 2, 1, 3),
        ],
    )
    def test_make_design_skips_empty_pools(self, family, num_prompt, num_token, machines):
        design = Provisioner._make_design(family, num_prompt, num_token)
        if machines is None:
            assert design is None
        else:
            assert design.num_machines == machines
            assert design.label.startswith(family)

    def test_grid_evaluates_each_distinct_size_once_at_the_target(self):
        provisioner = _scripted()
        result = provisioner.size_for_throughput(
            "Splitwise-HH", target_rps=5.0, prompt_counts=(2, 1, 2), token_counts=(0, 1, 2)
        )
        # (n, 0) leaves the token pool empty and is never simulated.
        assert provisioner.calls == [(1, 1, 5.0), (1, 2, 5.0), (2, 1, 5.0), (2, 2, 5.0)]
        assert [(c.design.num_prompt, c.design.num_token) for c in result.candidates] == [
            (1, 1), (1, 2), (2, 1), (2, 2)
        ]
        assert result.best is None


class TestSelectBest:
    def test_cost_goal_takes_the_cheapest_feasible(self):
        provisioner = _scripted(feasible_sizes={(3, 2), (2, 2)})
        result = provisioner.size_for_throughput(
            "Splitwise-HH", target_rps=5.0, prompt_counts=(1, 2, 3), token_counts=(1, 2)
        )
        assert result.goal is OptimizationGoal.COST
        assert (result.best.design.num_prompt, result.best.design.num_token) == (2, 2)
        assert result.best.cost_per_hour == splitwise_hh(2, 2).cost_per_hour

    def test_power_goal_takes_the_lowest_provisioned_power(self):
        # Same machine count; HHcap's token machines draw less power than its prompt machines.
        assert splitwise_hhcap(2, 2).provisioned_power_kw < splitwise_hhcap(3, 1).provisioned_power_kw
        provisioner = _scripted(feasible_sizes={(2, 2), (3, 1)})
        result = provisioner.size_for_throughput(
            "Splitwise-HHcap",
            target_rps=5.0,
            prompt_counts=(2, 3),
            token_counts=(1, 2),
            goal=OptimizationGoal.POWER,
        )
        assert sum(c.feasible for c in result.candidates) == 2
        assert (result.best.design.num_prompt, result.best.design.num_token) == (2, 2)


class TestPoolSizeEstimation:
    def test_coding_is_prompt_heavy(self):
        prompt, token = estimate_pool_sizes("Splitwise-HH", rate_rps=70, workload="coding")
        assert prompt > token

    def test_conversation_needs_more_token_machines_than_coding(self):
        _, coding_tokens = estimate_pool_sizes("Splitwise-HH", rate_rps=70, workload="coding")
        _, conversation_tokens = estimate_pool_sizes("Splitwise-HH", rate_rps=70, workload="conversation")
        assert conversation_tokens > coding_tokens

    def test_baseline_returns_single_pool(self):
        total, token = estimate_pool_sizes("Baseline-A100", rate_rps=30, workload="coding")
        assert token == 0
        assert total >= 1

    def test_a100_needs_more_machines_than_h100(self):
        a100_prompt, _ = estimate_pool_sizes("Splitwise-AA", rate_rps=50, workload="coding")
        h100_prompt, _ = estimate_pool_sizes("Splitwise-HH", rate_rps=50, workload="coding")
        assert a100_prompt > h100_prompt

    def test_sizes_scale_with_rate(self):
        small_p, small_t = estimate_pool_sizes("Splitwise-HH", rate_rps=10, workload="conversation")
        big_p, big_t = estimate_pool_sizes("Splitwise-HH", rate_rps=100, workload="conversation")
        assert big_p >= small_p
        assert big_t > small_t

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_pool_sizes("Splitwise-HH", rate_rps=0)
        with pytest.raises(ValueError):
            estimate_pool_sizes("Splitwise-HH", rate_rps=10, utilization_target=0)
