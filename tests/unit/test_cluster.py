"""Unit tests for the end-to-end cluster simulation wrapper."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.cluster import ClusterSimulation, simulate_design
from repro.core.machine import AccountingError, MachineRole
from repro.models.llm import LLAMA2_70B
from repro.workload.trace import Trace


class TestClusterConstruction:
    def test_split_design_builds_named_pools(self, small_splitwise_design):
        simulation = ClusterSimulation(small_splitwise_design)
        names = sorted(m.name for m in simulation.machines)
        assert names == ["prompt-0", "prompt-1", "token-0"]
        roles = {m.name: m.home_role for m in simulation.machines}
        assert roles["prompt-0"] is MachineRole.PROMPT
        assert roles["token-0"] is MachineRole.TOKEN

    def test_baseline_design_builds_mixed_machines(self, small_baseline_design):
        simulation = ClusterSimulation(small_baseline_design)
        assert all(m.home_role is MachineRole.MIXED for m in simulation.machines)

    def test_prompt_machines_carry_transfer_model(self, small_splitwise_design):
        simulation = ClusterSimulation(small_splitwise_design)
        prompt_machines = [m for m in simulation.machines if m.home_role is MachineRole.PROMPT]
        token_machines = [m for m in simulation.machines if m.home_role is MachineRole.TOKEN]
        assert all(m.kv_transfer is not None for m in prompt_machines)
        assert all(m.kv_transfer is None for m in token_machines)

    def test_scheduler_thresholds_forwarded(self, small_splitwise_design):
        simulation = ClusterSimulation(
            small_splitwise_design, prompt_queue_threshold=999, decode_queue_threshold=888
        )
        assert simulation.scheduler.prompt_queue_threshold == 999
        assert simulation.scheduler.decode_queue_threshold == 888


class TestSimulationRun:
    def test_all_requests_complete_when_drained(self, small_splitwise_design, tiny_trace):
        result = simulate_design(small_splitwise_design, tiny_trace)
        assert result.completion_rate == 1.0
        assert len(result.completed_requests) == len(tiny_trace)
        assert result.duration_s >= tiny_trace.duration_s

    def test_run_drains_past_the_last_arrival(self, small_splitwise_design):
        # The long request arrives last: the run's window ends at its completion.
        trace = Trace.from_records([(0.0, 512, 8), (0.2, 256, 4), (0.4, 1024, 300)], name="tail")
        simulation = ClusterSimulation(small_splitwise_design)
        result = simulation.run(trace)
        assert simulation.engine.pending_events == 0
        assert result.completion_rate == 1.0
        last_completion = max(r.completion_time for r in result.requests)
        assert last_completion > trace.duration_s + 1.0
        assert result.duration_s == last_completion

    def test_run_window_counts_a_failure_after_the_last_completion(self, small_splitwise_design, tiny_trace):
        # The failure fires after every request has completed: the engine
        # still runs its event, so the window ends there.
        result = simulate_design(small_splitwise_design, tiny_trace, failures=[(120.0, "prompt-1")])
        assert result.completion_rate == 1.0
        assert max(r.completion_time for r in result.requests) < 120.0
        assert result.duration_s == 120.0

    def test_metrics_and_energy_populated(self, small_splitwise_design, tiny_trace):
        result = simulate_design(small_splitwise_design, tiny_trace)
        assert result.total_energy_wh() > 0
        busy = [result.metrics.machine_stats(m.name).busy_time_s for m in result.scheduler.machines]
        assert 0 < sum(busy) / (len(busy) * result.duration_s) <= 1.0
        metrics = result.request_metrics()
        assert metrics.completed == len(tiny_trace)
        assert metrics.ttft.p50 > 0
        assert metrics.e2e.p50 > metrics.ttft.p50

    def test_slo_report_for_lightly_loaded_cluster(self, small_splitwise_design, tiny_trace):
        result = simulate_design(small_splitwise_design, tiny_trace)
        report = result.slo_report()
        assert report.satisfied

    def test_occupancy_by_home_role(self, small_splitwise_design, tiny_trace):
        result = simulate_design(small_splitwise_design, tiny_trace)
        prompt_occupancy = result.occupancy_by_home_role(MachineRole.PROMPT)
        token_occupancy = result.occupancy_by_home_role(MachineRole.TOKEN)
        assert prompt_occupancy.total_time > 0
        assert token_occupancy.total_time > 0

    def test_empty_trace_produces_no_metrics(self, small_splitwise_design):
        result = simulate_design(small_splitwise_design, Trace(requests=(), name="empty"))
        assert result.requests == []
        with pytest.raises(ValueError):
            result.request_metrics()

    def test_determinism_same_trace_same_results(self, small_splitwise_design, tiny_trace):
        first = simulate_design(small_splitwise_design, tiny_trace)
        second = simulate_design(small_splitwise_design, tiny_trace)
        first_e2e = [r.e2e_latency for r in first.completed_requests]
        second_e2e = [r.e2e_latency for r in second.completed_requests]
        assert first_e2e == second_e2e

    def test_bloom_model_supported(self, small_splitwise_design, tiny_trace):
        from repro.models.llm import BLOOM_176B

        result = simulate_design(small_splitwise_design, tiny_trace, model=BLOOM_176B)
        assert result.completion_rate == 1.0
        llama_result = simulate_design(small_splitwise_design, tiny_trace, model=LLAMA2_70B)
        assert (
            result.request_metrics().e2e.p50 > llama_result.request_metrics().e2e.p50
        )


class TestDrainedCheck:
    def test_finished_run_frees_its_machines_without_a_collection(self, small_splitwise_design, tiny_trace):
        # The machines' completion callbacks are bound methods of the
        # scheduler that holds the machines; once finish() clears them, a
        # dropped result and simulation free the machines by refcount alone.
        gc.disable()
        try:
            simulation = ClusterSimulation(small_splitwise_design)
            result = simulation.run(tiny_trace)
            machine = weakref.ref(simulation.machines[0])
            del result, simulation
            assert machine() is None
        finally:
            gc.enable()

    def test_finish_names_a_machine_with_an_in_flight_macro_event(self, small_splitwise_design, small_trace):
        # Step the engine by hand and stop while a token machine is inside a
        # coalesced fast-forward run: closing the run there must raise.
        from repro.simulation.request import Request

        simulation = ClusterSimulation(small_splitwise_design)
        requests = [Request(descriptor=descriptor) for descriptor in small_trace]
        simulation.prepare()
        for request in requests:
            simulation.engine.schedule_at(
                request.arrival_time, lambda req=request: simulation.scheduler.submit(req)
            )
        token = next(m for m in simulation.machines if m.home_role is MachineRole.TOKEN)
        while simulation.engine.pending_events and token._ff_boundaries is None:
            simulation.engine.step()
        assert token._ff_boundaries is not None
        with pytest.raises(AccountingError, match=f"machine {token.name}: .*_ff_boundaries"):
            simulation.finish(requests, small_trace.name, simulation.engine.now)

    @pytest.mark.parametrize("record", ["_running_plan", "_ff_boundaries", "_rot_forest", "_rot_selection"])
    def test_finish_names_each_in_flight_record(self, small_splitwise_design, tiny_trace, record):
        simulation = ClusterSimulation(small_splitwise_design)
        result = simulation.run(tiny_trace)
        machine = simulation.machines[1]
        setattr(machine, record, object())
        with pytest.raises(
            AccountingError, match=f"^machine {machine.name}: run ended with {record} still in flight$"
        ):
            simulation.finish(result.requests, tiny_trace.name, result.duration_s)

    def test_finish_lists_every_record_a_machine_holds(self, small_splitwise_design, tiny_trace):
        simulation = ClusterSimulation(small_splitwise_design)
        result = simulation.run(tiny_trace)
        first, second = simulation.machines[:2]
        first._rot_forest = first._rot_selection = object()
        second._running_plan = object()
        # The first machine in roster order is named, with both of its records.
        with pytest.raises(
            AccountingError, match=f"machine {first.name}: .*_rot_forest, _rot_selection still"
        ):
            simulation.finish(result.requests, tiny_trace.name, result.duration_s)
