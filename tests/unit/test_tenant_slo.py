"""Unit tests for per-tenant SLO grouping and the fleet roll-up report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.machine import DGX_A100
from repro.metrics.slo import evaluate_slo, evaluate_slo_by_tenant
from repro.models.llm import LLAMA2_70B
from repro.models.performance import AnalyticalPerformanceModel
from repro.simulation.request import Request
from repro.workload.trace import RequestDescriptor


@pytest.fixture
def reference():
    return AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)


def _complete_uncontended(request, reference, slowdown=1.0):
    """Drive a request through its lifecycle at ``slowdown`` x the reference."""
    ttft = reference.ttft(request.prompt_tokens) * slowdown
    tbt = reference.tbt(1, request.prompt_tokens) * slowdown
    request.start_prompt(request.arrival_time, "m")
    request.finish_prompt(request.arrival_time + ttft)
    for i in range(1, request.output_tokens):
        request.generate_token(request.arrival_time + ttft + i * tbt)
    return request


class TestEvaluateSloByTenant:
    def test_groups_by_tenant(self, make_request, reference):
        requests = [
            _complete_uncontended(
                make_request(request_id=i, tenant="gold" if i % 2 else "bronze"), reference
            )
            for i in range(8)
        ]
        report = evaluate_slo_by_tenant(requests, reference)
        assert sorted(report.tenants) == ["bronze", "gold"]
        assert report.satisfied
        assert report.fleet.satisfied
        assert report.unsatisfied_tenants() == []
        for tenant_report in report.tenants.values():
            assert tenant_report.samples["ttft"] == 4 and tenant_report.samples["e2e"] == 4

    def test_one_slow_tenant_fails_alone(self, make_request, reference):
        fast = [
            _complete_uncontended(make_request(request_id=i, tenant="fast"), reference)
            for i in range(4)
        ]
        slow = [
            _complete_uncontended(
                make_request(request_id=10 + i, tenant="slow"), reference, slowdown=50.0
            )
            for i in range(4)
        ]
        report = evaluate_slo_by_tenant(fast + slow, reference)
        assert not report.satisfied
        assert report.unsatisfied_tenants() == ["slow"]
        assert report.tenants["fast"].satisfied

    def test_empty_tenant_series_is_nan_and_never_satisfied(self, make_request, reference):
        completed = [
            _complete_uncontended(make_request(request_id=0, tenant="served"), reference)
        ]
        # The starved tenant submitted but completed nothing.
        starved = make_request(request_id=1, tenant="starved")
        report = evaluate_slo_by_tenant(completed + [starved], reference)
        assert not report.satisfied
        assert report.unsatisfied_tenants() == ["starved"]
        starved_report = report.tenants["starved"]
        assert all(np.isnan(v) for v in starved_report.slowdowns.values())
        assert starved_report.samples == {"ttft": 0, "tbt": 0, "e2e": 0}
        assert starved_report.missing_series() == ["e2e", "tbt", "ttft"]

    def test_no_requests_at_all_not_satisfied(self, reference):
        report = evaluate_slo_by_tenant([], reference)
        assert not report.satisfied
        assert report.tenants == {}
        assert not report.fleet.satisfied

    def test_as_dict_is_json_ready(self, make_request, reference):
        import json

        requests = [
            _complete_uncontended(make_request(request_id=i, tenant="t"), reference)
            for i in range(3)
        ]
        payload = evaluate_slo_by_tenant(requests, reference).as_dict()
        json.dumps(payload)  # must not raise
        assert payload["satisfied"] is True
        assert payload["tenants"]["t"]["samples"]["ttft"] == 3


class TestEmptySloReport:
    def test_all_nan_and_unsatisfied(self, reference):
        report = evaluate_slo_by_tenant([], reference).fleet
        assert not report.satisfied
        assert all(np.isnan(v) for v in report.slowdowns.values())
        assert report.missing_series() == ["e2e", "tbt", "ttft"]
        assert np.isnan(report.worst_margin())
        # Every limit is reported as a violation (unevaluable != passing).
        assert set(report.violations()) == set(report.limits)


def _completed_with_jitter(request, reference, slowdown, rng):
    """Complete ``request`` at ``slowdown`` x the reference, each gap jittered."""
    ttft = reference.ttft(request.prompt_tokens) * slowdown
    tbt = reference.tbt(1, request.prompt_tokens) * slowdown
    request.start_prompt(request.arrival_time, "m")
    now = request.arrival_time + ttft
    request.finish_prompt(now)
    for _ in range(1, request.output_tokens):
        now += tbt * float(rng.uniform(0.5, 3.0))
        request.generate_token(now)
    return request


def _layout(tenants, outputs=(4, 9, 2, 17, 6), starved=(), unfinished_every=0, seed=3):
    """Requests tagged with ``tenants`` in submission order, mostly completed.

    ``starved`` tenants complete nothing; with ``unfinished_every`` set,
    every that-many-th request of the others is left in its token phase.
    """
    reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
    rng = np.random.default_rng(seed)
    requests = []
    for i, tenant in enumerate(tenants):
        request = Request(
            descriptor=RequestDescriptor(
                request_id=i,
                arrival_time_s=0.25 * i,
                prompt_tokens=int(rng.integers(64, 2048)),
                output_tokens=outputs[i % len(outputs)],
                tenant=tenant,
            )
        )
        if tenant in starved:
            pass  # submitted, never served
        elif unfinished_every and i % unfinished_every == 0:
            request.start_prompt(request.arrival_time, "m")
            request.finish_prompt(request.arrival_time + 0.5)
        else:
            _completed_with_jitter(request, reference, float(rng.uniform(0.8, 8.0)), rng)
        requests.append(request)
    return requests


LAYOUTS = {
    "interleaved": lambda: _layout(["gold", "silver", "bronze"] * 6),
    "blocks-in-reverse-tag-order": lambda: _layout(["zeta"] * 7 + ["mu"] * 5 + ["alpha"] * 6),
    "one-tenant": lambda: _layout(["solo"] * 11),
    "starved-tenant-between": lambda: _layout(["a", "b", "c"] * 5, starved=("b",)),
    "single-token-tenant": lambda: _layout(["short", "long"] * 6, outputs=(1, 5)),
    "unfinished-requests": lambda: _layout(["x", "y"] * 9, unfinished_every=4),
}


def _bits(report):
    """Every slowdown of ``report`` as raw float64 bytes, with its sample counts and limits."""
    return (
        {key: np.float64(value).tobytes() for key, value in report.slowdowns.items()},
        dict(report.samples),
        dict(report.limits),
    )


class TestOnePassMatchesPerTenantEvaluation:
    """The one-pass tenant report keeps the bits of evaluating each group alone."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_tenant_reports_match_evaluate_slo(self, layout, reference):
        requests = LAYOUTS[layout]()
        report = evaluate_slo_by_tenant(requests, reference)
        assert sorted(report.tenants) == sorted({r.tenant for r in requests})
        for tenant, tenant_report in report.tenants.items():
            group = [r for r in requests if r.tenant == tenant]
            if any(r.is_complete for r in group):
                assert _bits(tenant_report) == _bits(evaluate_slo(group, reference))
            else:
                assert all(np.isnan(v) for v in tenant_report.slowdowns.values())

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_rollup_matches_evaluate_slo_over_every_request(self, layout, reference):
        requests = LAYOUTS[layout]()
        report = evaluate_slo_by_tenant(requests, reference)
        assert _bits(report.fleet) == _bits(evaluate_slo(requests, reference))

    def test_evaluation_leaves_token_times_untouched(self, reference):
        requests = LAYOUTS["interleaved"]()
        before = [bytes(r.token_times) for r in requests]
        first = evaluate_slo_by_tenant(requests, reference)
        assert [bytes(r.token_times) for r in requests] == before
        second = evaluate_slo_by_tenant(requests, reference)
        assert _bits(second.fleet) == _bits(first.fleet)
        assert {t: _bits(r) for t, r in second.tenants.items()} == {
            t: _bits(r) for t, r in first.tenants.items()
        }

    def test_goodput_counts_submitted_requests_per_tenant(self, reference):
        requests = LAYOUTS["unfinished-requests"]()
        report = evaluate_slo_by_tenant(requests, reference)
        for tenant in ("x", "y"):
            group = [r for r in requests if r.tenant == tenant]
            assert report.goodput[tenant] == sum(r.is_complete for r in group) / len(group)
        assert report.fleet_goodput == sum(r.is_complete for r in requests) / len(requests)
        assert 0.0 < report.fleet_goodput < 1.0

    def test_degraded_and_expired_requests_are_counted_per_tenant(self, make_request, reference):
        served = [
            _complete_uncontended(make_request(request_id=i, tenant="t"), reference) for i in range(4)
        ]
        served[1].degraded = True
        lost = make_request(request_id=9, tenant="u")
        lost.expire(1.0)
        report = evaluate_slo_by_tenant(served + [lost], reference)
        assert report.degraded_goodput == {"t": 0.25}
        assert report.fleet_degraded_goodput == pytest.approx(1 / 5)
        assert report.expired_by_tenant == {"u": 1}
        assert report.goodput == {"t": 1.0, "u": 0.0}
        assert report.as_dict()["fleet"]["expired"] == 1
