"""Unit tests for time-varying arrival processes, composition, and presets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.generator import generate_trace
from repro.workload.scenarios import (
    SCENARIO_PRESETS,
    MarkovModulatedArrival,
    PiecewiseRateArrival,
    SinusoidalDiurnalArrival,
    get_scenario,
    mix_traces,
)


class TestPiecewiseRateArrival:
    def test_arrivals_sorted_and_within_duration(self):
        arrival = PiecewiseRateArrival(schedule=((10.0, 5.0), (10.0, 1.0)))
        times = arrival.arrival_times(np.random.default_rng(3), 20.0)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0.0 and times.max() < 20.0

    def test_rate_concentrates_in_high_segments(self):
        arrival = PiecewiseRateArrival(schedule=((10.0, 20.0), (10.0, 0.5)))
        times = arrival.arrival_times(np.random.default_rng(5), 20.0)
        high = int((times < 10.0).sum())
        low = int((times >= 10.0).sum())
        assert high > 10 * max(1, low)

    def test_zero_rate_segment_is_silent(self):
        arrival = PiecewiseRateArrival(schedule=((5.0, 0.0), (5.0, 4.0)))
        times = arrival.arrival_times(np.random.default_rng(0), 10.0)
        assert (times >= 5.0).all()

    def test_schedule_cycles_past_its_length(self):
        arrival = PiecewiseRateArrival(schedule=((5.0, 8.0), (5.0, 0.0)))
        times = arrival.arrival_times(np.random.default_rng(1), 20.0)
        # Second cycle's active segment is [10, 15).
        assert ((times >= 10.0) & (times < 15.0)).any()
        assert not (((times >= 5.0) & (times < 10.0)) | (times >= 15.0)).any()

    def test_average_rate_and_expected_requests(self):
        arrival = PiecewiseRateArrival(schedule=((10.0, 6.0), (30.0, 2.0)))
        assert arrival.rate_rps == pytest.approx(3.0)
        assert arrival.expected_requests(40.0) == pytest.approx(120.0)
        assert arrival.expected_requests(50.0) == pytest.approx(180.0)  # wraps into segment 1

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseRateArrival(schedule=())
        with pytest.raises(ValueError):
            PiecewiseRateArrival(schedule=((0.0, 1.0),))
        with pytest.raises(ValueError):
            PiecewiseRateArrival(schedule=((1.0, -1.0),))


class TestSinusoidalDiurnalArrival:
    def test_mean_rate_is_base(self):
        arrival = SinusoidalDiurnalArrival(base_rps=4.0, amplitude_rps=3.0, period_s=50.0)
        assert arrival.rate_rps == 4.0
        assert arrival.expected_requests(100.0) == pytest.approx(400.0)  # full periods

    def test_peak_half_busier_than_trough_half(self):
        # phase=-pi/2 puts the trough first and the peak in the middle.
        arrival = SinusoidalDiurnalArrival(
            base_rps=5.0, amplitude_rps=4.5, period_s=100.0, phase=-np.pi / 2
        )
        times = arrival.arrival_times(np.random.default_rng(7), 100.0)
        # The peak quarter-periods are [25, 75); the trough wraps the edges.
        mid = int(((times >= 25.0) & (times < 75.0)).sum())
        assert mid > (len(times) - mid) * 2

    def test_amplitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            SinusoidalDiurnalArrival(base_rps=2.0, amplitude_rps=3.0, period_s=10.0)
        with pytest.raises(ValueError):
            SinusoidalDiurnalArrival(base_rps=0.0, amplitude_rps=0.0, period_s=10.0)


class TestMarkovModulatedArrival:
    def test_stationary_rate_mixes_dwell_times(self):
        arrival = MarkovModulatedArrival(
            base_rps=1.0, burst_rps=10.0, mean_base_dwell_s=30.0, mean_burst_dwell_s=10.0
        )
        assert arrival.rate_rps == pytest.approx((1.0 * 30 + 10.0 * 10) / 40)

    def test_bursts_concentrate_arrivals(self):
        arrival = MarkovModulatedArrival(
            base_rps=0.2, burst_rps=40.0, mean_base_dwell_s=20.0, mean_burst_dwell_s=4.0
        )
        times = arrival.arrival_times(np.random.default_rng(11), 200.0)
        # Under a strongly bimodal rate, inter-arrival gaps are bimodal too:
        # the storm gaps are far below the quiet-state mean gap.
        gaps = np.diff(times)
        assert len(times) > 50
        assert np.median(gaps) < 0.25  # most arrivals are storm arrivals


class TestTraceComposition:
    def _trace(self, rate, seed, duration=10.0, workload="conversation"):
        return generate_trace(workload, rate_rps=rate, duration_s=duration, seed=seed)

    def test_mix_superposes_and_sorts(self):
        first, second = self._trace(2.0, 0), self._trace(3.0, 1)
        mixed = mix_traces(first, second)
        assert len(mixed) == len(first) + len(second)
        arrivals = [r.arrival_time_s for r in mixed]
        assert arrivals == sorted(arrivals)
        assert len({r.request_id for r in mixed}) == len(mixed)

class TestScenarioPresets:
    def test_all_presets_build_deterministic_traces(self):
        for name in SCENARIO_PRESETS:
            preset = get_scenario(name)
            first = preset.build_trace(seed=42, scale=0.5)
            second = preset.build_trace(seed=42, scale=0.5)
            assert len(first) > 0
            assert [(r.arrival_time_s, r.prompt_tokens, r.output_tokens) for r in first] == [
                (r.arrival_time_s, r.prompt_tokens, r.output_tokens) for r in second
            ]
            assert first.metadata["scenario"] == name

    def test_different_seeds_differ(self):
        preset = get_scenario("diurnal")
        assert [r.arrival_time_s for r in preset.build_trace(seed=0)] != [
            r.arrival_time_s for r in preset.build_trace(seed=1)
        ]

    def test_machine_counts_scale(self):
        preset = get_scenario("diurnal")
        assert preset.machine_counts(1.0) == (3, 2)
        prompt_half, token_half = preset.machine_counts(0.5)
        assert 1 <= prompt_half <= 2 and token_half >= 1

    def test_failure_preset_injects_failures(self):
        preset = get_scenario("failure-under-load")
        failures = preset.failures()
        assert failures
        for time_s, name in failures:
            assert 0 < time_s < preset.duration_s
            assert name.startswith(("prompt-", "token-"))

    def test_mixed_tenant_mixes_two_workloads(self):
        trace = get_scenario("mixed-tenant").build_trace(seed=3)
        assert trace.metadata["composed"] == "mix"

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("full-moon")
