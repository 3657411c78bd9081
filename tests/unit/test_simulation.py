"""Unit tests for the discrete-event engine and the request state machine."""

from __future__ import annotations

import math

import pytest

from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event
from repro.simulation.request import Request, RequestPhase


class TestEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Event(time=-1.0, priority=0, sequence=0, action=lambda: None)


class TestSimulationEngine:
    def test_clock_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_events_execute_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(2.0, lambda: order.append("late"))
        engine.schedule_at(1.0, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]
        assert engine.now == 2.0

    def test_same_time_events_fire_in_scheduling_order(self):
        engine = SimulationEngine()
        order = []
        for i in range(5):
            engine.schedule_at(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(1.0, lambda: order.append("low"), priority=5)
        engine.schedule_at(1.0, lambda: order.append("high"), priority=0)
        engine.run()
        assert order == ["high", "low"]

    def test_schedule_after_uses_relative_delay(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_after(3.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.0]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: engine.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError, match="cannot schedule"):
            engine.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            SimulationEngine().schedule_after(-1.0, lambda: None)

    def test_events_can_schedule_new_events(self):
        engine = SimulationEngine()
        log = []

        def chain(depth: int) -> None:
            log.append(engine.now)
            if depth:
                engine.schedule_after(1.0, lambda: chain(depth - 1))

        engine.schedule_at(0.0, lambda: chain(3))
        engine.run()
        assert log == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_stops_at_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_run_until_past_queue_advances_clock(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_max_events_limits_execution(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule_at(float(i), lambda: None)
        engine.run(max_events=4)
        assert engine.events_processed == 4
        assert engine.pending_events == 6

    def test_step_returns_false_on_empty_queue(self):
        assert SimulationEngine().step() is False

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2


class TestEventCancellation:
    def test_cancelled_event_never_executes(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule_at(1.0, lambda: fired.append("cancelled"))
        engine.schedule_at(2.0, lambda: fired.append("kept"))
        assert engine.cancel(event) is True
        engine.run()
        assert fired == ["kept"]
        assert engine.events_processed == 1
        assert engine.events_cancelled == 1

    def test_pending_events_excludes_tombstones(self):
        engine = SimulationEngine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.cancel(event)
        assert engine.pending_events == 1

    def test_cancel_is_idempotent_and_rejects_fired_events(self):
        engine = SimulationEngine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.run()
        assert engine.cancel(event) is False  # already fired
        pending = engine.schedule_at(5.0, lambda: None)
        assert engine.cancel(pending) is True
        assert engine.cancel(pending) is False  # already cancelled

    def test_cancelled_event_does_not_advance_clock(self):
        engine = SimulationEngine()
        event = engine.schedule_at(10.0, lambda: None)
        engine.schedule_at(1.0, lambda: None)
        engine.cancel(event)
        engine.run()
        assert engine.now == 1.0

    def test_run_drains_queue_of_only_tombstones(self):
        engine = SimulationEngine()
        events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(3)]
        for event in events:
            engine.cancel(event)
        engine.run()
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.events_processed == 0


class TestScheduleRecurring:
    def test_fires_at_interval_until_cancelled(self):
        engine = SimulationEngine()
        times = []
        task = engine.schedule_recurring(1.0, lambda: times.append(engine.now))
        engine.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]
        task.cancel()
        engine.run(until=10.0)
        assert times == [1.0, 2.0, 3.0]
        assert task.fire_count == 3

    def test_first_delay_overrides_interval(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_recurring(2.0, lambda: times.append(engine.now), first_delay=0.5)
        engine.run(until=5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_action_can_cancel_its_own_task(self):
        engine = SimulationEngine()
        times = []
        holder = {}

        def action():
            times.append(engine.now)
            if len(times) == 2:
                holder["task"].cancel()

        holder["task"] = engine.schedule_recurring(1.0, action)
        engine.run(until=10.0)
        assert times == [1.0, 2.0]
        assert engine.pending_events == 0

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            SimulationEngine().schedule_recurring(0.0, lambda: None)


class TestRequestLifecycle:
    def test_initial_state(self, make_request):
        request = make_request(prompt=100, output=5)
        assert request.phase is RequestPhase.QUEUED
        assert request.remaining_tokens == 5
        assert request.ttft is None
        assert request.e2e_latency is None
        assert request.context_tokens == 100

    def test_prompt_phase_produces_first_token(self, make_request):
        request = make_request(arrival=1.0, prompt=100, output=5)
        request.start_prompt(2.0, "prompt-0")
        assert request.phase is RequestPhase.PROMPT_RUNNING
        assert request.prompt_start_time - request.arrival_time == pytest.approx(1.0)
        request.finish_prompt(2.5)
        assert request.generated_tokens == 1
        assert request.ttft == pytest.approx(1.5)
        assert not request.is_complete

    def test_single_token_request_completes_at_prompt(self, make_request):
        request = make_request(prompt=50, output=1)
        request.start_prompt(0.0, "m")
        request.finish_prompt(0.2)
        assert request.is_complete
        assert request.e2e_latency == pytest.approx(0.2)

    def test_token_generation_until_complete(self, make_request):
        request = make_request(prompt=10, output=3)
        request.start_prompt(0.0, "p0")
        request.finish_prompt(0.1)
        request.generate_token(0.2)
        assert request.phase is RequestPhase.TOKEN_RUNNING
        request.generate_token(0.35)
        assert request.is_complete
        assert request.completion_time == pytest.approx(0.35)
        assert request.generated_tokens == 3

    def test_generate_beyond_completion_raises(self, make_request):
        request = make_request(output=1)
        request.start_prompt(0.0, "p0")
        request.finish_prompt(0.1)
        with pytest.raises(RuntimeError, match="already complete"):
            request.generate_token(0.2)

    def test_tbt_series(self, make_request):
        request = make_request(prompt=10, output=4)
        request.start_prompt(0.0, "p0")
        request.finish_prompt(0.1)
        for t in (0.2, 0.35, 0.45):
            request.generate_token(t)
        assert request.token_intervals_np.tolist() == pytest.approx([0.1, 0.15, 0.1])
        assert request.mean_tbt == pytest.approx(0.35 / 3)

    def test_tbt_none_for_single_token(self, make_request):
        request = make_request(output=1)
        request.start_prompt(0.0, "p0")
        request.finish_prompt(0.1)
        assert request.mean_tbt is None
        assert request.token_intervals_np.size == 0

    def test_kv_transfer_transitions(self, make_request):
        request = make_request(prompt=100, output=5)
        request.start_prompt(0.0, "p0")
        request.finish_prompt(0.1)
        request.start_kv_transfer(0.1)
        assert request.phase is RequestPhase.KV_TRANSFER
        request.finish_kv_transfer(0.12)
        assert request.phase is RequestPhase.TOKEN_QUEUED
        assert request.kv_transfer_end == pytest.approx(0.12)

    def test_kv_transfer_after_completion_keeps_completed(self, make_request):
        request = make_request(output=1)
        request.start_prompt(0.0, "p0")
        request.finish_prompt(0.1)
        request.start_kv_transfer(0.1)
        request.finish_kv_transfer(0.2)
        assert request.is_complete

    def test_context_grows_with_generated_tokens(self, make_request):
        request = make_request(prompt=100, output=5)
        request.start_prompt(0.0, "p0")
        request.finish_prompt(0.1)
        request.generate_token(0.2)
        assert request.context_tokens == 102


class TestTokenIntervals:
    def test_intervals_match_numpy_view(self):
        from repro.workload.trace import RequestDescriptor

        request = Request(
            descriptor=RequestDescriptor(request_id=0, arrival_time_s=0.0, prompt_tokens=8, output_tokens=4)
        )
        for time in (1.0, 1.1, 1.25, 1.35):
            request.token_times.append(time)
        assert request.token_intervals_np.tolist() == pytest.approx([0.1, 0.15, 0.1])

    def test_mean_tbt_adds_gaps_left_to_right(self):
        from repro.workload.trace import RequestDescriptor

        request = Request(
            descriptor=RequestDescriptor(request_id=0, arrival_time_s=0.0, prompt_tokens=8, output_tokens=5)
        )
        for time in (0.656, 0.894, 1.89, 2.166, 2.225):
            request.token_times.append(time)
        gaps = request.token_intervals_np.tolist()
        total = 0.0
        for gap in gaps:
            total += gap
        # Gaps whose compensated sum (built-in ``sum`` from Python 3.12 on)
        # differs from the left-to-right one.
        assert total != math.fsum(gaps)
        assert request.mean_tbt == total / len(gaps)
        assert request.mean_tbt != math.fsum(gaps) / len(gaps)

    def test_token_times_is_a_packed_array(self):
        from array import array

        from repro.workload.trace import RequestDescriptor

        request = Request(
            descriptor=RequestDescriptor(request_id=0, arrival_time_s=0.0, prompt_tokens=8, output_tokens=4)
        )
        assert isinstance(request.token_times, array)
        request.generate_token(0.5)
        request.reset_for_restart()
        assert isinstance(request.token_times, array)
        assert len(request.token_times) == 0


class TestShardRequestRows:
    def test_row_round_trip_carries_every_simulated_field(self):
        from repro.simulation.sharding import apply_request_row, request_row
        from repro.workload.trace import RequestDescriptor

        descriptor = RequestDescriptor(request_id=3, arrival_time_s=0.5, prompt_tokens=64, output_tokens=6)
        simulated = Request(descriptor=descriptor)
        simulated.start_prompt(0.5, "p0")
        simulated.finish_prompt(0.8)
        simulated.reset_for_restart()
        simulated.start_prompt(1.0, "p1")
        simulated.finish_prompt(1.25)
        simulated.start_kv_transfer(1.25)
        simulated.finish_kv_transfer(1.3)
        simulated.token_machine = "t0"
        simulated.priority_boost = 2.0
        for time in (1.4, 1.5):
            simulated.generate_token(time)

        row = request_row(7, simulated)
        assert row[0] == 7
        hydrated = Request(descriptor=descriptor)
        apply_request_row(hydrated, row)
        fields = (
            "phase", "prompt_machine", "token_machine", "prompt_start_time", "first_token_time",
            "completion_time", "generated_tokens", "kv_transfer_start", "kv_transfer_end",
            "priority_boost", "restarts",
        )
        assert {f: getattr(hydrated, f) for f in fields} == {f: getattr(simulated, f) for f in fields}
        assert hydrated.restarts == 1
        assert hydrated.phase is RequestPhase.TOKEN_RUNNING
        assert list(hydrated.token_times) == [1.25, 1.4, 1.5]
        assert len(hydrated.token_times) == hydrated.generated_tokens
