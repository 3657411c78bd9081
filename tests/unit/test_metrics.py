"""Unit tests for metrics: summaries, occupancy tracking, and SLOs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import simulate_design
from repro.hardware.machine import DGX_A100
from repro.metrics.collectors import BatchOccupancyTracker, MetricsCollector, census
from repro.metrics.slo import DEFAULT_SLO, SloPolicy, SloReport, evaluate_slo
from repro.metrics.summary import LatencySummary, summarize_requests
from repro.models.llm import LLAMA2_70B
from repro.models.performance import AnalyticalPerformanceModel


class TestLatencySummary:
    def test_from_values(self):
        summary = LatencySummary.from_values(list(range(1, 101)))
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.max == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.from_values([])


class TestSummarizeRequests:
    def _completed_request(self, make_request, request_id, arrival, ttft, tbt, tokens):
        request = make_request(request_id=request_id, arrival=arrival, prompt=100, output=tokens)
        request.start_prompt(arrival, "m")
        request.finish_prompt(arrival + ttft)
        for i in range(1, tokens):
            request.generate_token(arrival + ttft + i * tbt)
        return request

    def test_summary_over_mixed_requests(self, make_request):
        done = self._completed_request(make_request, 0, 0.0, 0.1, 0.05, 5)
        pending = make_request(request_id=1)
        metrics = summarize_requests([done, pending], duration_s=10.0)
        assert metrics.completed == 1
        assert metrics.total == 2
        assert metrics.ttft.p50 == pytest.approx(0.1)
        assert metrics.tbt.p50 == pytest.approx(0.05)
        assert metrics.throughput_rps == pytest.approx(0.1)

    def test_no_completed_requests_raises(self, make_request):
        with pytest.raises(ValueError, match="no completed requests"):
            summarize_requests([make_request()])

    def test_duration_defaults_to_last_completion(self, make_request):
        done = self._completed_request(make_request, 0, 0.0, 0.1, 0.05, 3)
        metrics = summarize_requests([done])
        assert metrics.throughput_rps == pytest.approx(1.0 / done.completion_time)


class TestBatchOccupancyTracker:
    def test_cdf_accumulates_time(self):
        tracker = BatchOccupancyTracker()
        tracker.record(1, 3.0)
        tracker.record(10, 1.0)
        tracker.record(100, 1.0)
        assert tracker.total_time == pytest.approx(5.0)
        assert tracker.fraction_at_or_below(1) == pytest.approx(0.6)
        assert tracker.fraction_at_or_below(10) == pytest.approx(0.8)
        cdf = tracker.cdf()
        assert cdf[-1] == (100, pytest.approx(1.0))

    def test_zero_duration_ignored(self):
        tracker = BatchOccupancyTracker()
        tracker.record(5, 0.0)
        assert tracker.total_time == 0.0
        assert tracker.cdf() == []
        assert tracker.fraction_at_or_below(10) == 0.0

    def test_invalid_inputs(self):
        tracker = BatchOccupancyTracker()
        with pytest.raises(ValueError):
            tracker.record(-1, 1.0)
        with pytest.raises(ValueError):
            tracker.record(1, -1.0)

    def test_merge(self):
        a = BatchOccupancyTracker()
        b = BatchOccupancyTracker()
        a.record(1, 1.0)
        b.record(1, 1.0)
        b.record(50, 2.0)
        a.merge(b)
        assert a.total_time == pytest.approx(4.0)
        assert a.as_mapping()[1] == pytest.approx(2.0)


class TestCensus:
    def test_drained_run_closes(self, small_splitwise_design, tiny_trace):
        result = simulate_design(small_splitwise_design, tiny_trace)
        assert census(result.requests) == {
            "submitted": 4, "completed": 4, "shed": 0, "expired": 0, "degraded": 0,
        }

    def test_request_in_flight_raises(self, make_request):
        # Neither completed, shed nor expired: no terminal outcome.
        done = make_request(request_id=0)
        done.complete(1.0)
        in_flight = make_request(request_id=1)
        in_flight.start_prompt(0.0, "m")
        with pytest.raises(ValueError, match="census does not close"):
            census([done, in_flight])

    def test_request_both_completed_and_shed_raises(self, make_request):
        request = make_request()
        request.complete(1.0)
        request.shed = True
        with pytest.raises(ValueError, match="census does not close"):
            census([request])

    @pytest.mark.parametrize("totals", [{"shed_total": 1}, {"expired_total": 1}])
    def test_run_totals_disagreeing_with_flags_raise(self, make_request, totals):
        request = make_request()
        request.complete(1.0)
        assert census([request], shed_total=0, expired_total=0)["completed"] == 1
        with pytest.raises(ValueError, match="census does not close"):
            census([request], **totals)


class TestMetricsCollector:
    def test_per_machine_accumulation(self):
        collector = MetricsCollector()
        m0, m1 = collector.machine_stats("m0"), collector.machine_stats("m1")
        m0.add_iteration(duration_s=0.1, active_tokens=100, energy_wh=0.5, prompt_tokens=100, tokens_generated=0)
        m0.add_iteration(duration_s=0.2, active_tokens=4, energy_wh=0.2, prompt_tokens=0, tokens_generated=4)
        m1.add_iteration(duration_s=0.3, active_tokens=1, energy_wh=0.1, prompt_tokens=0, tokens_generated=0)
        stats = collector.machine_stats("m0")
        assert stats.busy_time_s == pytest.approx(0.3)
        assert stats.iterations == 2
        assert stats.prompt_tokens_processed == 100
        assert stats.tokens_generated == 4
        assert collector.total_energy_wh() == pytest.approx(0.8)
        assert list(collector.export_machine_stats()) == ["m0", "m1"]

    def test_group_occupancy_merges(self):
        collector = MetricsCollector()
        collector.machine_stats("a").add_iteration(1.0, 1, 0.0, 0, 0)
        collector.machine_stats("b").add_iteration(1.0, 100, 0.0, 0, 0)
        merged = collector.group_occupancy(["a", "b"])
        assert merged.fraction_at_or_below(1) == pytest.approx(0.5)


class TestSlo:
    def _request_with_slowdown(self, make_request, reference, slowdown, prompt=1000, output=10):
        request = make_request(request_id=0, arrival=0.0, prompt=prompt, output=output)
        ttft = reference.ttft(prompt) * slowdown
        tbt = reference.tbt(1, prompt) * slowdown
        request.start_prompt(0.0, "m")
        request.finish_prompt(ttft)
        for i in range(1, output):
            request.generate_token(ttft + i * tbt)
        return request

    def test_limits_match_table_vi(self):
        limits = DEFAULT_SLO.limits()
        assert limits[("ttft", 50.0)] == 2.0
        assert limits[("ttft", 99.0)] == 6.0
        assert limits[("tbt", 90.0)] == 1.5
        assert limits[("e2e", 50.0)] == 1.25
        assert len(limits) == 9

    def test_uncontended_requests_satisfy_slo(self, make_request):
        reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
        requests = [self._request_with_slowdown(make_request, reference, 1.0) for _ in range(5)]
        report = evaluate_slo(requests, reference)
        assert report.satisfied
        assert report.violations() == {}
        assert report.worst_margin() <= 1.0

    def test_heavily_slowed_requests_violate(self, make_request):
        reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
        requests = [self._request_with_slowdown(make_request, reference, 4.0) for _ in range(5)]
        report = evaluate_slo(requests, reference)
        assert not report.satisfied
        assert ("tbt", 50.0) in report.violations()
        assert report.worst_margin() > 1.0

    def test_no_completed_requests_raises(self, make_request):
        reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
        with pytest.raises(ValueError):
            evaluate_slo([make_request()], reference)

    def test_custom_policy(self, make_request):
        reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
        lax = SloPolicy(ttft={50: 100.0}, tbt={50: 100.0}, e2e={50: 100.0})
        requests = [self._request_with_slowdown(make_request, reference, 4.0) for _ in range(3)]
        assert evaluate_slo(requests, reference, lax).satisfied

    def test_missing_tbt_series_never_passes_vacuously(self, make_request):
        """Single-output-token requests produce no TBT gaps: the report must
        not claim the TBT SLO is met on zero evidence."""
        reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
        request = make_request(request_id=0, arrival=0.0, prompt=1000, output=1)
        request.start_prompt(0.0, "m")
        request.finish_prompt(reference.ttft(1000))  # completes: output == 1
        report = evaluate_slo([request], reference)
        assert not report.satisfied
        assert report.missing_series() == ["tbt"]
        assert report.samples["tbt"] == 0
        assert all(np.isnan(report.slowdowns[("tbt", pct)]) for pct in (50.0, 90.0, 99.0))
        assert ("tbt", 99.0) in report.violations()
        assert np.isnan(report.worst_margin())

    def test_samples_counted_per_metric(self, make_request):
        reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
        requests = [self._request_with_slowdown(make_request, reference, 1.0, output=10) for _ in range(4)]
        report = evaluate_slo(requests, reference)
        assert report.samples["ttft"] == 4
        assert report.samples["e2e"] == 4
        # Per-token pooling: 9 gaps per 10-token request.
        assert report.samples["tbt"] == 4 * 9

    def test_per_token_tbt_catches_stalls(self, make_request):
        """A few long stalls inside otherwise-fast requests must show up in the
        paper-faithful per-token TBT P99 (per-request means would hide them)."""
        reference = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
        prompt, output = 1000, 101
        ref_tbt = reference.tbt(1, prompt)
        requests = []
        for request_id in range(3):
            request = make_request(request_id=request_id, arrival=0.0, prompt=prompt, output=output)
            ttft = reference.ttft(prompt)
            request.start_prompt(0.0, "m")
            request.finish_prompt(ttft)
            time = ttft
            for i in range(1, output):
                # 97 uncontended gaps and three 40x stalls (3% of tokens): the
                # per-request mean stays ~2.2x, under the 5.0 P99 limit.
                time += ref_tbt * (40.0 if i in (25, 50, 75) else 1.0)
                request.generate_token(time)
            requests.append(request)
        per_token = evaluate_slo(requests, reference)
        assert ("tbt", 99.0) in per_token.violations()


class TestSloReportVerdicts:
    """SloReport's verdict helpers on hand-built slowdowns."""

    LIMITS = {("ttft", 50.0): 2.0, ("ttft", 99.0): 6.0, ("tbt", 50.0): 1.25, ("e2e", 90.0): 1.5}

    def _report(self, slowdowns):
        """Every limit's slowdown at 1.0, except those given."""
        return SloReport(slowdowns={**dict.fromkeys(self.LIMITS, 1.0), **slowdowns}, limits=self.LIMITS)

    def test_worst_margin_is_the_largest_ratio_to_its_limit(self):
        report = self._report({("ttft", 99.0): 4.5, ("tbt", 50.0): 1.5})
        # 4.5 / 6 = 0.75 loses to 1.5 / 1.25 = 1.2.
        assert report.worst_margin() == 1.5 / 1.25
        assert not report.satisfied
        assert report.violations() == {("tbt", 50.0): 1.5}

    def test_slowdown_at_its_limit_passes(self):
        report = self._report({("ttft", 50.0): 2.0, ("e2e", 90.0): 1.5})
        assert report.satisfied
        assert report.worst_margin() == 1.0
        assert report.violations() == {}

    def test_nan_metric_is_missing_and_violated(self):
        report = self._report({("e2e", 90.0): float("nan")})
        assert report.missing_series() == ["e2e"]
        assert list(report.violations()) == [("e2e", 90.0)]
        assert np.isnan(report.worst_margin())
        assert not report.satisfied

    def test_custom_policy_flattens_every_percentile(self):
        policy = SloPolicy(ttft={50: 3}, tbt={90: 2.0, 99: 4}, e2e={})
        assert policy.limits() == {("ttft", 50.0): 3.0, ("tbt", 90.0): 2.0, ("tbt", 99.0): 4.0}
        assert all(type(v) is float for v in policy.limits().values())


class TestCoalescedRecording:
    def test_record_coalesced_equals_sequential_add_iteration(self):
        """Bulk recording must match per-iteration recording bit for bit."""
        durations = [0.0301, 0.0302, 0.0303, 0.0304]
        energies = [0.011, 0.012, 0.013, 0.014]
        sequential = MetricsCollector()
        for duration, energy in zip(durations, energies):
            sequential.machine_stats("m0").add_iteration(duration, 48, energy, 0, 48)
        bulk = MetricsCollector()
        bulk.record_coalesced("m0", len(durations), 48, durations, energies, 48)
        a = sequential.machine_stats("m0")
        b = bulk.machine_stats("m0")
        assert a.busy_time_s == b.busy_time_s
        assert a.energy_wh == b.energy_wh
        assert a.iterations == b.iterations
        assert a.tokens_generated == b.tokens_generated
        assert a.occupancy.as_mapping() == b.occupancy.as_mapping()

    def test_record_coalesced_zero_count_is_a_noop(self):
        collector = MetricsCollector()
        collector.record_coalesced("m0", 0, 8, [], [], 8)
        assert collector.machine_stats("m0").iterations == 0

    def test_occupancy_record_bulk_matches_sequential(self):
        sequential = BatchOccupancyTracker()
        for duration in (0.1, 0.2, 0.3):
            sequential.record(7, duration)
        bulk = BatchOccupancyTracker()
        bulk.record_bulk(7, [0.1, 0.2, 0.3])
        assert sequential.as_mapping() == bulk.as_mapping()
