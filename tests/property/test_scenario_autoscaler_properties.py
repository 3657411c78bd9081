"""Property tests for scenario generation and autoscaler invariants.

Scenario generation must be bit-deterministic under a seed and its rate
schedules must integrate to the expected request count; the autoscaler must
never lose or double-own a request across a re-purpose, must conserve the
machine census, and must leave decode fast-forwarding bit-exact (an
autoscaled run with coalescing on produces the same results as with it off).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.core.cluster import ClusterSimulation
from repro.core.designs import splitwise_hh
from repro.workload.distributions import get_workload
from repro.workload.generator import TraceGenerator
from repro.workload.scenarios import (
    SCENARIO_PRESETS,
    MarkovModulatedArrival,
    PiecewiseRateArrival,
    SinusoidalDiurnalArrival,
    get_scenario,
)


class TestScenarioDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_piecewise_bit_deterministic(self, seed):
        arrival = PiecewiseRateArrival(schedule=((8.0, 6.0), (8.0, 1.0), (8.0, 3.0)))
        first = arrival.arrival_times(np.random.default_rng(seed), 24.0)
        second = arrival.arrival_times(np.random.default_rng(seed), 24.0)
        assert first.tolist() == second.tolist()

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_sinusoidal_and_mmpp_bit_deterministic(self, seed):
        diurnal = SinusoidalDiurnalArrival(base_rps=4.0, amplitude_rps=3.0, period_s=30.0)
        mmpp = MarkovModulatedArrival(
            base_rps=1.0, burst_rps=12.0, mean_base_dwell_s=10.0, mean_burst_dwell_s=3.0
        )
        for arrival in (diurnal, mmpp):
            first = arrival.arrival_times(np.random.default_rng(seed), 30.0)
            second = arrival.arrival_times(np.random.default_rng(seed), 30.0)
            assert first.tolist() == second.tolist()

    @given(seed=st.integers(min_value=0, max_value=2**10))
    @settings(max_examples=5, deadline=None)
    def test_preset_traces_bit_deterministic(self, seed):
        for name in SCENARIO_PRESETS:
            preset = get_scenario(name)
            first = preset.build_trace(seed=seed, scale=0.4)
            second = preset.build_trace(seed=seed, scale=0.4)
            assert [
                (r.request_id, r.arrival_time_s, r.prompt_tokens, r.output_tokens) for r in first
            ] == [(r.request_id, r.arrival_time_s, r.prompt_tokens, r.output_tokens) for r in second]


class TestRateIntegration:
    @given(
        rates=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=20.0)),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_piecewise_counts_integrate_the_schedule(self, rates, seed):
        """Realized counts stay within Poisson noise of the schedule integral."""
        schedule = tuple((10.0, rate) for rate in rates)
        arrival = PiecewiseRateArrival(schedule=schedule)
        duration = 10.0 * len(rates)
        expected = arrival.expected_requests(duration)
        count = len(arrival.arrival_times(np.random.default_rng(seed), duration))
        # 6-sigma Poisson bound: essentially never trips for a correct
        # generator, always trips for a rate off by a constant factor.
        tolerance = 6.0 * np.sqrt(expected) + 6.0
        assert abs(count - expected) <= tolerance

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_sinusoidal_counts_integrate_the_rate(self, seed):
        arrival = SinusoidalDiurnalArrival(base_rps=6.0, amplitude_rps=5.0, period_s=40.0)
        duration = 120.0
        expected = arrival.expected_requests(duration)
        count = len(arrival.arrival_times(np.random.default_rng(seed), duration))
        assert abs(count - expected) <= 6.0 * np.sqrt(expected) + 6.0


def _scenario_trace(seed: int):
    """A busy/quiet/busy square wave that triggers both scale directions."""
    arrival = PiecewiseRateArrival(schedule=((20.0, 6.0), (30.0, 0.3), (20.0, 5.0)))
    generator = TraceGenerator(workload=get_workload("conversation"), arrival=arrival, seed=seed)
    return generator.generate(70.0)


class TestAutoscalerInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**12))
    @settings(max_examples=6, deadline=None)
    def test_no_request_lost_or_double_completed(self, seed):
        trace = _scenario_trace(seed)
        config = AutoscalerConfig(interval_s=3.0, hysteresis_ticks=1, cooldown_s=5.0)
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=config)
        result = simulation.run(trace)
        assert result.completion_rate == 1.0
        completed_ids = simulation.scheduler.completed_request_ids
        assert len(completed_ids) == len(set(completed_ids)) == len(trace)
        for request in result.requests:
            assert request.generated_tokens == request.output_tokens

    @given(seed=st.integers(min_value=0, max_value=2**12))
    @settings(max_examples=4, deadline=None)
    def test_machine_census_conserved_with_failures(self, seed):
        trace = _scenario_trace(seed)
        config = AutoscalerConfig(interval_s=3.0, hysteresis_ticks=1, cooldown_s=5.0)
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=config)
        result = simulation.run(trace, failures=[(25.0, "prompt-2")])
        sizes = simulation.scheduler.pool_sizes()
        assert sum(sizes.values()) + len(simulation.scheduler.failed_machines) == 5
        assert result.completion_rate == 1.0

    def test_autoscaled_runs_are_seed_reproducible(self):
        outputs = []
        for _ in range(2):
            simulation = ClusterSimulation(
                splitwise_hh(3, 2), autoscaler=AutoscalerConfig(interval_s=4.0, hysteresis_ticks=1)
            )
            result = simulation.run(_scenario_trace(seed=77))
            outputs.append(
                (
                    [(r.request_id, r.completion_time, tuple(r.token_times)) for r in result.requests],
                    [
                        (e.time_s, e.machine, e.action, e.from_pool, e.to_pool)
                        for e in result.autoscaler.timeline
                    ],
                    result.autoscaler.machine_hours_saved(),
                    result.duration_s,
                )
            )
        assert outputs[0] == outputs[1]


class TestFastForwardParityWithAutoscaling:
    """Coalescing must stay invisible when the autoscaler is churning pools."""

    def _run(self, trace, fast_forward):
        config = AutoscalerConfig(interval_s=3.0, hysteresis_ticks=1, cooldown_s=5.0)
        simulation = ClusterSimulation(
            splitwise_hh(3, 2), autoscaler=PoolAutoscaler(config), fast_forward=fast_forward
        )
        for machine in simulation.machines:
            machine.debug_accounting = True
        result = simulation.run(trace)
        return simulation, result

    def test_bit_parity_under_autoscaling(self):
        for seed in (7, 1234):
            trace = _scenario_trace(seed)
            sim_ref, res_ref = self._run(trace, fast_forward=False)
            sim_fast, res_fast = self._run(trace, fast_forward=True)
            assert res_ref.duration_s == res_fast.duration_s
            for ref, fast in zip(res_ref.requests, res_fast.requests):
                assert ref.request_id == fast.request_id
                assert ref.completion_time == fast.completion_time
                assert ref.first_token_time == fast.first_token_time
                assert list(ref.token_times) == list(fast.token_times)
                assert ref.phase is fast.phase
            assert sim_ref.metrics.total_energy_wh() == sim_fast.metrics.total_energy_wh()
            # The control loop itself must make identical decisions.
            ref_timeline = [
                (e.time_s, e.machine, e.action, e.from_pool, e.to_pool)
                for e in res_ref.autoscaler.timeline
            ]
            fast_timeline = [
                (e.time_s, e.machine, e.action, e.from_pool, e.to_pool)
                for e in res_fast.autoscaler.timeline
            ]
            assert ref_timeline == fast_timeline
            assert res_ref.autoscaler.machine_hours_saved() == res_fast.autoscaler.machine_hours_saved()
            assert sim_fast.engine.events_processed <= sim_ref.engine.events_processed
