"""Unit tests for the request-lifecycle reliability layer.

Covers the four configs (retry / hedge / deadline / degraded), the
request-level state transitions (``expire``, ``adopt_result``), and fleet
runs exercising each mechanism deterministically: budgeted cross-cluster
retries under an explicit machine failure, deadline expiry, degraded
admission, and the exactly-once attempt semantics in SLO accounting.
"""

from __future__ import annotations

import pytest

from repro.core.designs import splitwise_hh
from repro.fleet import (
    AdmissionConfig,
    DeadlineConfig,
    DegradedConfig,
    FleetSimulation,
    HedgeConfig,
    RetryPolicy,
)
from repro.fleet.reliability import _CLONE_OFFSET
from repro.metrics.collectors import census
from repro.simulation.request import RequestPhase
from repro.workload.arrival import PoissonArrivalProcess
from repro.workload.distributions import CODING_WORKLOAD, CONVERSATION_WORKLOAD
from repro.workload.generator import TraceGenerator, generate_trace
from repro.workload.scenarios import mix_traces
from repro.workload.trace import RequestDescriptor, Trace


def _small_fleet(num_clusters=2, **kwargs):
    return FleetSimulation(splitwise_hh(1, 1), num_clusters=num_clusters, **kwargs)


def _quick_trace(rate=2.0, duration=15.0, seed=0):
    return generate_trace("conversation", rate_rps=rate, duration_s=duration, seed=seed)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"retries_by_tenant": {"t": -1}},
            {"backoff_base_s": 0.0},
            {"backoff_multiplier": 0.5},
            {"backoff_max_s": 0.1, "backoff_base_s": 0.5},
            {"jitter_fraction": 1.0},
            {"jitter_fraction": -0.1},
        ],
    )
    def test_invalid_retry_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p99_multiplier": 0.0},
            {"min_delay_s": 0.0},
            {"max_delay_s": 0.1, "min_delay_s": 0.5},
        ],
    )
    def test_invalid_hedge_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HedgeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ttft_s": 0.0},
            {"e2e_s": -1.0},
            {"ttft_by_tenant": {"t": 0.0}},
            {"e2e_by_tenant": {"t": -5.0}},
        ],
    )
    def test_invalid_deadline_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeadlineConfig(**kwargs)

    def test_invalid_degraded_config_rejected(self):
        with pytest.raises(ValueError):
            DegradedConfig(max_output_tokens=0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_multiplier=2.0, backoff_max_s=3.0)
        assert policy.backoff_s(1) == pytest.approx(0.5)
        assert policy.backoff_s(2) == pytest.approx(1.0)
        assert policy.backoff_s(3) == pytest.approx(2.0)
        assert policy.backoff_s(4) == pytest.approx(3.0)  # capped
        assert policy.backoff_s(10) == pytest.approx(3.0)

    def test_retry_budget_per_tenant(self):
        policy = RetryPolicy(max_retries=2, retries_by_tenant={"gold": 5})
        assert policy.budget("gold") == 5
        assert policy.budget("anyone-else") == 2

    def test_hedge_delay_clamped(self):
        hedge = HedgeConfig(p99_multiplier=2.0, min_delay_s=1.0, max_delay_s=4.0)
        assert hedge.delay_s(0.0) == pytest.approx(1.0)  # no samples -> floor
        assert hedge.delay_s(1.0) == pytest.approx(2.0)
        assert hedge.delay_s(100.0) == pytest.approx(4.0)  # ceiling

    def test_deadline_resolution_per_tenant(self):
        deadlines = DeadlineConfig(ttft_s=10.0, e2e_s=60.0, ttft_by_tenant={"gold": 2.0})
        assert deadlines.ttft_for("gold") == pytest.approx(2.0)
        assert deadlines.ttft_for("bronze") == pytest.approx(10.0)
        assert deadlines.e2e_for("gold") == pytest.approx(60.0)


class TestRequestTransitions:
    def test_expire_is_terminal_and_flagged(self, make_request):
        request = make_request()
        request.expire(5.0)
        assert request.phase is RequestPhase.EXPIRED
        assert request.expired and not request.is_complete

    def test_completed_request_cannot_expire(self, make_request):
        request = make_request(output=2)
        request.start_prompt(0.0, "m")
        request.finish_prompt(1.0)
        request.generate_token(2.0)
        assert request.is_complete
        with pytest.raises(RuntimeError, match="already completed"):
            request.expire(3.0)

    def test_adopt_result_takes_winner_series_and_drops_loser_partial(self, make_request):
        primary = make_request(request_id=7, output=3)
        # The loser attempt produced one stale token before being cancelled.
        primary.start_prompt(0.0, "loser-m")
        primary.finish_prompt(1.0)

        winner = make_request(request_id=7 + (1 << 40), output=3)
        winner.start_prompt(0.5, "winner-m")
        winner.finish_prompt(2.0)
        winner.generate_token(2.5)
        winner.generate_token(3.0)
        assert winner.is_complete

        primary.adopt_result(winner)
        assert primary.phase is RequestPhase.COMPLETED
        assert primary.prompt_machine == "winner-m"
        assert primary.first_token_time == pytest.approx(2.0)
        assert primary.completion_time == pytest.approx(3.0)
        # The loser's partial series is gone: the adopted series is exactly
        # the winner's, and latencies measure from the original arrival.
        assert list(primary.token_times) == [2.0, 2.5, 3.0]
        assert primary.generated_tokens == 3
        assert primary.e2e_latency == pytest.approx(3.0 - primary.arrival_time)

    def test_trace_round_trips_deadlines(self, tmp_path):
        trace = Trace(
            requests=(
                RequestDescriptor(0, 0.0, 100, 10, ttft_deadline_s=1.5, e2e_deadline_s=30.0),
                RequestDescriptor(1, 1.0, 100, 10),
            ),
            name="deadline-trace",
        )
        loaded = Trace.from_csv(trace.to_csv(tmp_path / "t.csv"))
        assert loaded.requests[0].ttft_deadline_s == pytest.approx(1.5)
        assert loaded.requests[0].e2e_deadline_s == pytest.approx(30.0)
        assert loaded.requests[1].ttft_deadline_s is None
        assert loaded.requests[1].e2e_deadline_s is None


class TestRetriesInFleet:
    FAILURE = ((5.0, "cluster-0/prompt-0"),)

    def test_failed_attempts_retry_on_another_cluster(self):
        fleet = _small_fleet(retry=RetryPolicy(max_retries=3, backoff_base_s=0.2))
        result = fleet.run(_quick_trace(), failures=self.FAILURE)
        lifecycle = result.lifecycle
        assert lifecycle.retries_fired > 0, "the machine failure displaced nothing"
        assert result.completion_rate == 1.0
        # Every displaced request restarted and still appears exactly once.
        ids = [r.request_id for r in result.requests]
        assert len(ids) == len(set(ids))
        routed_ids = sorted(r.request_id for c in result.clusters for r in c.requests)
        assert routed_ids == sorted(ids)

    def test_zero_budget_expires_displaced_requests(self):
        fleet = _small_fleet(retry=RetryPolicy(max_retries=0))
        result = fleet.run(_quick_trace(), failures=self.FAILURE)
        lifecycle = result.lifecycle
        assert lifecycle.retries_exhausted > 0
        assert lifecycle.retries_exhausted == result.requests_expired
        outcomes = census(result.requests, result.requests_shed, result.requests_expired)
        assert outcomes["expired"] > 0
        assert outcomes["completed"] + outcomes["expired"] == outcomes["submitted"]
        for request in [r for r in result.requests if r.expired]:
            assert request.phase is RequestPhase.EXPIRED and not request.is_complete

    def test_no_stale_token_times_after_restart(self):
        fleet = _small_fleet(retry=RetryPolicy(max_retries=3, backoff_base_s=0.2))
        result = fleet.run(_quick_trace(), failures=self.FAILURE)
        restarted = [r for r in result.requests if r.restarts]
        assert restarted, "no request restarted; the scenario lost its point"
        for request in restarted:
            times = list(request.token_times)
            # Exactly the final attempt's tokens: one timestamp per output
            # token, strictly ordered, all after the final prompt start.
            assert len(times) == request.output_tokens
            assert times == sorted(times)
            assert times[0] >= request.prompt_start_time

    def test_exactly_once_in_slo_accounting(self):
        fleet = _small_fleet(retry=RetryPolicy(max_retries=3, backoff_base_s=0.2))
        result = fleet.run(_quick_trace(), failures=self.FAILURE)
        report = result.tenant_slo_report()
        # One e2e sample per submitted request — retried requests are not
        # double-counted and their latency runs from the original arrival.
        assert report.fleet.samples["e2e"] == len(result.requests)
        assert report.fleet_goodput == pytest.approx(1.0)

    def test_retry_seed_changes_backoffs_not_workload(self):
        results = []
        for retry_seed in (0, 1):
            fleet = _small_fleet(
                retry=RetryPolicy(max_retries=3, backoff_base_s=0.2, seed=retry_seed)
            )
            results.append(fleet.run(_quick_trace(), failures=self.FAILURE))
        first, second = results
        # Same trace, same fault: identical census and identical arrivals...
        assert [r.request_id for r in first.requests] == [r.request_id for r in second.requests]
        assert first.completion_rate == second.completion_rate == 1.0
        # ...but the jittered backoffs differ, so some retried completion
        # lands at a different instant.
        restarted_pairs = [
            (a.completion_time, b.completion_time)
            for a, b in zip(first.requests, second.requests)
            if a.restarts
        ]
        assert restarted_pairs and any(a != b for a, b in restarted_pairs)


class TestDeadlinesInFleet:
    def test_impossible_e2e_deadline_expires_everything(self):
        fleet = _small_fleet(deadlines=DeadlineConfig(e2e_s=0.001))
        result = fleet.run(_quick_trace())
        outcomes = census(result.requests, result.requests_shed, result.requests_expired)
        assert outcomes["completed"] == 0
        assert outcomes["expired"] == outcomes["submitted"]
        report = result.tenant_slo_report()
        assert report.fleet_goodput == 0.0
        assert report.as_dict()["fleet"]["expired"] == outcomes["submitted"]

    def test_loose_deadline_changes_nothing(self):
        trace = _quick_trace()
        plain = _small_fleet().run(trace)
        deadlined = _small_fleet(deadlines=DeadlineConfig(ttft_s=1e4, e2e_s=1e5)).run(
            _quick_trace()
        )
        assert [r.completion_time for r in plain.requests] == [
            r.completion_time for r in deadlined.requests
        ]
        assert deadlined.requests_expired == 0

    def test_descriptor_deadline_overrides_tenant_default(self):
        # Fleet default is impossible, but the descriptor grants this one
        # request a generous deadline — only the other request expires.
        trace = Trace(
            requests=(
                RequestDescriptor(0, 0.0, 64, 4, e2e_deadline_s=1e4),
                RequestDescriptor(1, 0.1, 64, 4),
            ),
            name="override",
        )
        fleet = _small_fleet(deadlines=DeadlineConfig(e2e_s=0.001))
        result = fleet.run(trace)
        by_id = {r.request_id: r for r in result.requests}
        assert by_id[0].is_complete
        assert by_id[1].expired


class TestDegradedService:
    def _overload(self, degraded):
        trace = mix_traces(
            TraceGenerator(CODING_WORKLOAD, PoissonArrivalProcess(14.0), seed=3, tenant="low").generate(30.0),
            TraceGenerator(
                CONVERSATION_WORKLOAD, PoissonArrivalProcess(4.0), seed=4, tenant="high"
            ).generate(30.0),
        )
        fleet = _small_fleet(
            admission=AdmissionConfig(
                max_outstanding=12, tenant_priorities={"high": 2}, shed_headroom=1.0
            ),
            degraded=degraded,
        )
        return fleet.run(trace)

    def test_degrade_on_shed_raises_goodput(self):
        dropped = self._overload(DegradedConfig(on_shed=False))
        served = self._overload(DegradedConfig(max_output_tokens=16, on_shed=True))
        assert served.lifecycle.degraded_admissions > 0
        assert len(served.degraded_requests) > 0
        for request in served.degraded_requests:
            assert request.output_tokens <= 16
            assert len(request.token_times) == request.output_tokens
        report_served = served.tenant_slo_report()
        report_dropped = dropped.tenant_slo_report()
        assert report_served.fleet_goodput > report_dropped.fleet_goodput
        assert report_served.fleet_degraded_goodput > 0.0
        payload = report_served.as_dict()
        assert payload["fleet"]["degraded_goodput"] == pytest.approx(
            report_served.fleet_degraded_goodput
        )

    def test_census_closed_with_degradation(self):
        result = self._overload(DegradedConfig(max_output_tokens=16, on_shed=True))
        outcomes = census(result.requests, result.requests_shed, result.requests_expired)
        assert (
            outcomes["completed"] + outcomes["expired"] + outcomes["shed"] == outcomes["submitted"]
        )
        assert (
            len(result.completed_requests) + result.requests_shed + result.requests_expired
            == len(result.requests)
        )


class TestHedgingInFleet:
    def test_hedge_timers_leave_uncontended_run_untouched(self):
        # A healthy fleet starts every request well before any plausible
        # hedge delay, so hedging must be a pure no-op: same completions,
        # nothing launched, and the no-op timers must not stretch the run.
        trace = _quick_trace()
        plain = _small_fleet().run(trace)
        hedged = _small_fleet(hedge=HedgeConfig(min_delay_s=30.0)).run(_quick_trace())
        assert hedged.lifecycle.hedges_launched == 0
        assert [r.completion_time for r in plain.requests] == [
            r.completion_time for r in hedged.requests
        ]
        assert hedged.duration_s == pytest.approx(plain.duration_s)

    def test_hedge_clone_keeps_tenant_and_deadlines(self):
        base = _quick_trace(rate=6.0, duration=20.0)
        trace = Trace(
            requests=tuple(r.replace(tenant="chat", ttft_deadline_s=500.0, e2e_deadline_s=900.0) for r in base),
            name="tagged",
        )
        fleet = _small_fleet(hedge=HedgeConfig(min_delay_s=0.05, p99_multiplier=0.1))
        clones = []
        submit = fleet._submit_attempt

        def recording_submit(request, exclude=None):
            if request.request_id >= _CLONE_OFFSET:
                clones.append(request)
            submit(request, exclude=exclude)

        fleet._submit_attempt = recording_submit
        result = fleet.run(trace)
        assert clones and len(clones) == result.lifecycle.hedges_launched
        by_id = {r.request_id: r for r in result.requests}
        for clone in clones:
            primary = by_id[clone.request_id - _CLONE_OFFSET]
            assert clone.descriptor == primary.descriptor.replace(request_id=clone.request_id)
            assert (clone.tenant, clone.ttft_deadline_s, clone.e2e_deadline_s) == ("chat", 500.0, 900.0)

    def test_hedge_fires_and_stays_census_closed_under_slow_cluster(self):
        # An aggressive hedge delay on a loaded fleet forces launches; every
        # logical request must still appear exactly once, on exactly one
        # cluster, with duplicates resolved first-wins.
        trace = _quick_trace(rate=6.0, duration=20.0)
        fleet = _small_fleet(hedge=HedgeConfig(min_delay_s=0.05, p99_multiplier=0.1))
        result = fleet.run(trace)
        assert result.lifecycle.hedges_launched > 0
        assert result.completion_rate == 1.0
        routed_ids = sorted(r.request_id for c in result.clusters for r in c.requests)
        assert routed_ids == sorted(r.request_id for r in result.requests)
        report = result.tenant_slo_report()
        assert report.fleet.samples["e2e"] == len(result.requests)
        if result.lifecycle.hedges_won:
            assert result.lifecycle.hedge_wasted_tokens >= 0
