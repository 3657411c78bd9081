"""Unit tests for the dynamic pool autoscaler and the scheduler's re-purposing hooks."""

from __future__ import annotations

import pytest

from repro.core.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.core.cluster import ClusterSimulation
from repro.core.cluster_scheduler import ClusterScheduler
from repro.core.designs import baseline_h100, splitwise_hh
from repro.core.machine import MachineRole, SimulatedMachine
from repro.hardware.machine import DGX_H100
from repro.metrics.collectors import MetricsCollector
from repro.models.llm import LLAMA2_70B
from repro.simulation.engine import SimulationEngine
from repro.simulation.request import Request
from repro.workload.scenarios import PiecewiseRateArrival, get_scenario
from repro.workload.distributions import get_workload
from repro.workload.generator import TraceGenerator
from repro.workload.trace import RequestDescriptor


def _machine(name: str, engine: SimulationEngine, role: MachineRole, metrics: MetricsCollector):
    return SimulatedMachine(
        name=name, spec=DGX_H100, model=LLAMA2_70B, engine=engine, role=role, metrics=metrics
    )


def _request(request_id: int, prompt: int = 512, output: int = 8) -> Request:
    return Request(
        descriptor=RequestDescriptor(
            request_id=request_id, arrival_time_s=0.0, prompt_tokens=prompt, output_tokens=output
        )
    )


@pytest.fixture
def split_cluster():
    engine = SimulationEngine()
    metrics = MetricsCollector()
    machines = [
        _machine("prompt-0", engine, MachineRole.PROMPT, metrics),
        _machine("prompt-1", engine, MachineRole.PROMPT, metrics),
        _machine("token-0", engine, MachineRole.TOKEN, metrics),
        _machine("token-1", engine, MachineRole.TOKEN, metrics),
    ]
    scheduler = ClusterScheduler(engine=engine, machines=machines, model=LLAMA2_70B, split=True)
    return engine, scheduler, machines


class TestSchedulerHooks:
    def test_park_and_unpark_idle_machine(self, split_cluster):
        _, scheduler, machines = split_cluster
        machine = machines[0]
        scheduler.park_machine(machine)
        assert machine in scheduler.parked_pool
        assert machine not in scheduler.prompt_pool
        assert scheduler.pool_sizes() == {"prompt": 1, "token": 2, "mixed": 0, "parked": 1}
        scheduler.unpark_machine(machine)
        assert machine in scheduler.prompt_pool
        assert scheduler.pool_sizes()["parked"] == 0

    def test_park_rejects_busy_machine(self, split_cluster):
        engine, scheduler, machines = split_cluster
        scheduler.submit(_request(0))
        engine.run(until=0.01)
        busy = next(m for m in machines if m.has_prompt_work() or m.is_busy)
        with pytest.raises(ValueError, match="only idle machines"):
            scheduler.park_machine(busy)

    def test_parked_machine_not_routed_to(self, split_cluster):
        engine, scheduler, machines = split_cluster
        scheduler.park_machine(machines[0])
        for request_id in range(6):
            decision = scheduler.submit(_request(request_id))
            assert decision.prompt_machine is not machines[0]
            assert decision.token_machine is not machines[0]

    def test_retarget_idle_machine_switches_pool_immediately(self, split_cluster):
        _, scheduler, machines = split_cluster
        machine = machines[3]  # idle token machine
        scheduler.retarget_home(machine, MachineRole.PROMPT)
        assert machine.home_role is MachineRole.PROMPT
        assert machine in scheduler.prompt_pool
        assert machine not in scheduler.token_pool
        assert scheduler.count_home_machines(MachineRole.PROMPT) == 3

    def test_retarget_busy_machine_drains_through_mixed_pool(self, split_cluster):
        engine, scheduler, machines = split_cluster
        # Give token-0 long-lived decode work, then re-purpose it toward the
        # prompt pool while that work is still draining.
        request = _request(0, prompt=256, output=400)
        decision = scheduler.submit(request)
        engine.run(until=0.2)  # prompt done, KV transfer queued/underway
        token_machine = decision.token_machine
        engine.run(until=0.5)
        if not token_machine.has_token_work():
            pytest.skip("decode finished before the re-purpose could be exercised")
        scheduler.retarget_home(token_machine, MachineRole.PROMPT)
        # Drain-before-switch: still serving foreign (token) work from mixed.
        assert token_machine in scheduler.mixed_pool
        assert token_machine.role is MachineRole.MIXED
        engine.run()
        assert request.is_complete
        assert token_machine in scheduler.prompt_pool
        assert token_machine.role is MachineRole.PROMPT

    def test_retarget_to_mixed_rejected(self, split_cluster):
        _, scheduler, machines = split_cluster
        with pytest.raises(ValueError):
            scheduler.retarget_home(machines[0], MachineRole.MIXED)

    def test_failed_machine_leaves_parked_pool(self, split_cluster):
        _, scheduler, machines = split_cluster
        scheduler.park_machine(machines[0])
        scheduler.fail_machine(machines[0])
        assert scheduler.pool_sizes()["parked"] == 0
        assert machines[0] in scheduler.failed_machines


def _square_wave_trace(seed=0):
    """Busy half then idle half: forces scale-down and keeps determinism."""
    arrival = PiecewiseRateArrival(schedule=((40.0, 5.0), (80.0, 0.2)))
    generator = TraceGenerator(workload=get_workload("conversation"), arrival=arrival, seed=seed)
    return generator.generate(120.0)


class TestPoolAutoscaler:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(interval_s=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(hysteresis_ticks=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_prompt_machines=0)

    def test_requires_split_cluster(self):
        simulation = ClusterSimulation(baseline_h100(2), autoscaler=True)
        with pytest.raises(RuntimeError, match="split"):
            simulation.run(_square_wave_trace())

    def test_parks_idle_machines_and_accounts_hours(self):
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=True)
        result = simulation.run(_square_wave_trace())
        autoscaler = result.autoscaler
        assert result.completion_rate == 1.0
        assert any(event.action == "park" for event in autoscaler.timeline)
        assert autoscaler.machine_hours_saved() > 0
        static_hours = result.design.num_machines * result.duration_s / 3600.0
        assert result.machine_hours() == pytest.approx(static_hours - autoscaler.machine_hours_saved())
        assert result.machine_hours() < static_hours

    def test_respects_minimum_pool_sizes(self):
        config = AutoscalerConfig(min_prompt_machines=2, min_token_machines=2)
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=config)
        result = simulation.run(_square_wave_trace())
        scheduler = result.scheduler
        assert result.completion_rate == 1.0
        assert scheduler.count_home_machines(MachineRole.PROMPT) >= 2
        assert scheduler.count_home_machines(MachineRole.TOKEN) >= 2
        # Only the third prompt machine was ever eligible for parking.
        parked_names = {event.machine for event in result.autoscaler.timeline if event.action == "park"}
        assert len(parked_names) <= 1

    def test_machine_counts_conserved_through_run(self):
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=True)
        trace = _square_wave_trace(seed=5)
        simulation.autoscaler.attach(simulation.engine, simulation.scheduler)
        engine = simulation.engine
        for request in [Request(descriptor=d) for d in trace]:
            engine.schedule_at(request.arrival_time, lambda r=request: simulation.scheduler.submit(r), priority=2)
        steps = 0
        while engine.step():
            steps += 1
            if steps % 50 == 0:
                sizes = simulation.scheduler.pool_sizes()
                assert sum(sizes.values()) == 5
        assert sum(simulation.scheduler.pool_sizes().values()) == 5

    def test_busy_idle_busy_wave_exercises_every_action(self):
        """A re-spiking load must recall parked capacity (unpark) and shift
        machines between pools (repurpose), not just park them."""
        arrival = PiecewiseRateArrival(schedule=((30.0, 5.0), (40.0, 0.2), (30.0, 6.0)))
        trace = TraceGenerator(
            workload=get_workload("conversation"), arrival=arrival, seed=21
        ).generate(100.0)
        config = AutoscalerConfig(interval_s=3.0, hysteresis_ticks=1, cooldown_s=5.0)
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=config)
        result = simulation.run(trace)
        assert result.completion_rate == 1.0
        actions = {event.action for event in result.autoscaler.timeline}
        assert actions == {"park", "unpark", "repurpose"}
        assert result.autoscaler.repurpose_count() >= 2
        assert result.autoscaler.machine_hours_saved() > 0

    def test_disabled_parking_only_repurposes(self):
        config = AutoscalerConfig(park_idle_machines=False, interval_s=2.0, hysteresis_ticks=1)
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=config)
        result = simulation.run(_square_wave_trace())
        assert all(event.action != "park" for event in result.autoscaler.timeline)
        assert result.autoscaler.machine_hours_saved() == 0.0

    def test_timeline_as_dicts_is_json_friendly(self):
        simulation = ClusterSimulation(splitwise_hh(3, 2), autoscaler=True)
        result = simulation.run(_square_wave_trace())
        for entry in result.autoscaler.timeline_as_dicts():
            assert set(entry) == {"time_s", "machine", "action", "from", "to", "reason"}

    def test_static_run_has_no_autoscaler(self):
        simulation = ClusterSimulation(splitwise_hh(1, 1))
        result = simulation.run(_square_wave_trace())
        assert result.autoscaler is None
        assert result.machine_hours() == pytest.approx(2 * result.duration_s / 3600.0)


class TestScenarioExperiment:
    def test_prepared_scenario_runs_report_savings(self):
        from repro.experiments.scenarios import cluster_run_summary, prepare_scenario_run

        summaries = {}
        for autoscaled in (False, True):
            simulation, trace, failures = prepare_scenario_run(
                get_scenario("diurnal"), seed=0, scale=0.7, autoscaled=autoscaled
            )
            result = simulation.run(trace, failures=failures)
            summaries[autoscaled] = cluster_run_summary(result, result.slo_report())
        static, autoscaled = summaries[False], summaries[True]
        assert static["completion_rate"] == 1.0
        assert autoscaled["completion_rate"] == 1.0
        assert autoscaled["slo_samples"]["tbt"] > 0
        assert static["machine_hours"] - autoscaled["machine_hours"] >= 0.0

    def test_preset_overrides_flow_into_config(self):
        preset = get_scenario("burst-storm")
        config = AutoscalerConfig(**dict(preset.autoscaler_overrides))
        assert config.interval_s == 2.0
        assert config.park_idle_machines is False
