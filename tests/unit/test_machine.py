"""Unit tests for the simulated machine and its machine-level scheduler (§IV-B)."""

from __future__ import annotations

import pytest

from repro.core.machine import AccountingError, MachineRole, SimulatedMachine
from repro.hardware.machine import DGX_H100
from repro.metrics.collectors import MetricsCollector
from repro.models.llm import LLAMA2_70B
from repro.simulation.engine import SimulationEngine
from repro.simulation.request import Request, RequestPhase
from repro.workload.trace import RequestDescriptor


def _request(request_id: int, prompt: int = 512, output: int = 4, arrival: float = 0.0) -> Request:
    return Request(
        descriptor=RequestDescriptor(
            request_id=request_id, arrival_time_s=arrival, prompt_tokens=prompt, output_tokens=output
        )
    )


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def machine(engine) -> SimulatedMachine:
    return SimulatedMachine(
        name="m0",
        spec=DGX_H100,
        model=LLAMA2_70B,
        engine=engine,
        role=MachineRole.MIXED,
        metrics=MetricsCollector(),
    )


class TestQueueAccounting:
    def test_enqueue_prompt_updates_queue_metrics(self, machine):
        machine.enqueue_prompt(_request(0, prompt=300))
        machine.enqueue_prompt(_request(1, prompt=200))
        assert machine.pending_prompt_tokens == 500
        assert len(machine.pending_prompts) == 2
        assert machine.has_prompt_work()

    def test_expected_transfers_count_toward_decode_queue(self, machine):
        request = _request(0, output=10)
        machine.expect_transfer(request)
        assert machine.pending_decode_tokens == 10
        machine.cancel_transfer(request)
        assert machine.pending_decode_tokens == 0

    def test_admit_token_request_moves_from_transfer_to_pool(self, machine):
        request = _request(0, prompt=100, output=5)
        request.start_prompt(0.0, "other")
        request.finish_prompt(0.1)
        machine.expect_transfer(request)
        machine.admit_token_request(request)
        assert machine.active_token_requests == 1
        assert not machine.in_transfer
        assert machine.pending_decode_tokens == 4  # one token already produced

    def test_admitting_completed_request_is_a_noop(self, machine):
        request = _request(0, output=1)
        request.start_prompt(0.0, "other")
        request.finish_prompt(0.1)
        machine.admit_token_request(request)
        assert machine.active_token_requests == 0

    def test_kv_tokens_and_headroom(self, machine):
        request = _request(0, prompt=1000, output=5)
        request.start_prompt(0.0, "other")
        request.finish_prompt(0.1)
        machine.admit_token_request(request)
        assert machine.kv_tokens_in_use == 1001
        assert 0.0 < machine.memory_headroom_fraction < 1.0

    def test_unconfigured_memory_model_reports_full_headroom(self, machine):
        # Regression: max_kv_tokens == 0 (unconfigured memory model) used to
        # read as "machine full" (0.0 headroom), skewing the cluster
        # scheduler's overflow decisions toward never using the machine.
        from repro.batching.policies import BatchConstraints

        machine.constraints = BatchConstraints(max_kv_tokens=0)
        assert machine.memory_headroom_fraction == 1.0
        request = _request(0, prompt=1000, output=5)
        request.start_prompt(0.0, "other")
        request.finish_prompt(0.1)
        machine.admit_token_request(request)
        assert machine.memory_headroom_fraction == 1.0

    def test_incremental_counters_match_recount(self, machine):
        machine.debug_accounting = True
        for i in range(4):
            machine.enqueue_prompt(_request(i, prompt=100 * (i + 1), output=3))
        transferring = _request(10, prompt=50, output=7)
        machine.expect_transfer(transferring)
        # Property reads self-verify under debug_accounting.
        assert machine.pending_prompt_tokens == 100 + 200 + 300 + 400
        assert machine.pending_decode_tokens == 7
        machine.verify_accounting()

    def test_withdraw_updates_counters(self, machine):
        queued = _request(0, prompt=300, output=4)
        decoding = _request(1, prompt=100, output=6)
        decoding.start_prompt(0.0, "other")
        decoding.finish_prompt(0.1)
        machine.enqueue_prompt(queued)
        machine.admit_token_request(decoding)
        machine.debug_accounting = True
        machine.withdraw(queued)
        machine.withdraw(decoding)
        assert machine.pending_prompt_tokens == 0
        assert machine.pending_decode_tokens == 0
        assert machine.kv_tokens_in_use == 0
        assert machine.find_queued(0) is None and machine.find_queued(1) is None
        # Withdrawing an absent request is a no-op.
        machine.withdraw(queued)
        machine.verify_accounting()

    def test_recount_catches_token_series_drift(self, machine):
        request = _request(0, prompt=100, output=5)
        request.start_prompt(0.0, "other")
        request.finish_prompt(0.1)
        machine.admit_token_request(request)
        machine.verify_accounting()
        # A timestamp recorded without a generated token (or the reverse)
        # leaves every queue counter intact; only the series check sees it.
        request.token_times.append(0.2)
        with pytest.raises(AccountingError, match="2 token times for 1 tokens"):
            machine.verify_accounting()


class TestRoleTracking:
    def test_prompt_machine_reports_foreign_token_work(self, engine):
        machine = SimulatedMachine("p0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.PROMPT)
        assert not machine.has_foreign_work()
        request = _request(0)
        request.start_prompt(0.0, "x")
        request.finish_prompt(0.1)
        machine.admit_token_request(request)
        assert machine.has_foreign_work()

    def test_token_machine_reports_foreign_prompt_work(self, engine):
        machine = SimulatedMachine("t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN)
        machine.enqueue_prompt(_request(0))
        assert machine.has_foreign_work()

    def test_mixed_home_role_never_foreign(self, machine):
        machine.enqueue_prompt(_request(0))
        assert not machine.has_foreign_work()


class TestIterationExecution:
    def test_single_request_runs_to_completion(self, engine, machine):
        completed = []
        machine.on_request_complete = lambda req, m: completed.append(req.request_id)
        # Baseline-style local handoff from prompt phase to token pool.
        machine.on_prompt_complete = lambda req, m, lat: (
            m.admit_token_request(req) if not req.is_complete else None
        )
        request = _request(0, prompt=512, output=3)
        machine.enqueue_prompt(request)
        engine.run()
        assert completed == [0]
        assert request.is_complete
        assert request.ttft is not None and request.ttft > 0
        assert len(request.token_times) == 3
        assert not machine.is_busy

    def test_iteration_metrics_recorded(self, engine, machine):
        machine.on_prompt_complete = lambda req, m, lat: (
            m.admit_token_request(req) if not req.is_complete else None
        )
        machine.enqueue_prompt(_request(0, prompt=512, output=3))
        engine.run()
        stats = machine.metrics.machine_stats("m0")
        assert stats.iterations >= 3  # one prompt + at least two decode iterations
        assert stats.busy_time_s > 0
        assert stats.energy_wh > 0
        assert stats.prompt_tokens_processed == 512

    def test_prompts_batched_within_token_limit(self, engine, machine):
        machine.on_prompt_complete = lambda req, m, lat: None
        finish_times = {}
        machine.on_request_complete = lambda req, m: finish_times.setdefault(req.request_id, engine.now)
        small = [_request(i, prompt=500, output=1) for i in range(3)]
        big = _request(3, prompt=1500, output=1)
        for request in small + [big]:
            machine.enqueue_prompt(request)
        engine.run()
        # The three small prompts (1500 tokens total) batch together; the big
        # prompt would exceed 2048 tokens so it runs in a second iteration.
        assert finish_times[0] == finish_times[1] == finish_times[2]
        assert finish_times[3] > finish_times[0]

    def test_first_tokens_of_batch_share_timestamp(self, engine, machine):
        machine.on_prompt_complete = lambda req, m, lat: None
        requests = [_request(i, prompt=200, output=1) for i in range(4)]
        for request in requests:
            machine.enqueue_prompt(request)
        engine.run()
        first_token_times = {r.first_token_time for r in requests}
        assert len(first_token_times) == 1

    def test_aging_boosts_skipped_token_requests(self, engine):
        machine = SimulatedMachine(
            "t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN, max_batch_size=1
        )
        first = _request(0, prompt=100, output=3, arrival=0.0)
        second = _request(1, prompt=100, output=3, arrival=0.1)
        for request in (first, second):
            request.start_prompt(0.0, "p")
            request.finish_prompt(0.1)
            machine.admit_token_request(request)
        engine.run(max_events=4)
        # With batch size 1 only one request decodes per iteration; the other
        # must have accumulated priority boost.
        assert max(first.priority_boost, second.priority_boost) >= 1.0

    def test_machine_goes_idle_when_queue_empty(self, engine, machine):
        machine.on_prompt_complete = lambda req, m, lat: None
        machine.enqueue_prompt(_request(0, prompt=100, output=1))
        engine.run()
        assert not machine.is_busy
        assert machine.pending_prompt_tokens == 0

    def test_on_iteration_complete_callback_fires(self, engine, machine):
        calls = []
        machine.on_iteration_complete = lambda m: calls.append(engine.now)
        machine.on_prompt_complete = lambda req, m, lat: None
        machine.enqueue_prompt(_request(0, prompt=100, output=1))
        engine.run()
        assert len(calls) == 1

    def test_withdraw_mid_iteration_does_not_touch_restarted_request(self, engine):
        # Regression: a request withdrawn (failure restart) while its token
        # machine was mid-iteration used to receive a phantom token when the
        # iteration finished, corrupting the restarted request's timeline.
        machine = SimulatedMachine("t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN)
        request = _request(0, prompt=100, output=5)
        request.start_prompt(0.0, "p")
        request.finish_prompt(0.1)
        machine.admit_token_request(request)
        engine.step()  # run the start event: the iteration is now in flight
        assert machine.is_busy
        machine.withdraw(request)
        request.reset_for_restart()
        engine.run()  # the stale finish event fires
        assert request.generated_tokens == 0
        assert list(request.token_times) == []
        assert request.phase is RequestPhase.QUEUED
        machine.verify_accounting()

    def test_stale_finish_skips_request_readmitted_after_withdrawal(self, engine):
        # Regression: if a withdrawn request restarts fast enough to be
        # re-admitted to the same machine before the old iteration's finish
        # event fires, a request_id-based membership check matches again and
        # the dead iteration injects a phantom token into the new timeline.
        machine = SimulatedMachine("t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN)
        request = _request(0, prompt=100, output=4)
        request.start_prompt(0.0, "p")
        request.finish_prompt(0.1)
        machine.admit_token_request(request)
        engine.step()  # start event: the iteration is now in flight
        assert machine.is_busy
        machine.withdraw(request)
        request.reset_for_restart()
        # Restarted prompt finishes elsewhere and JSQ routes it back here
        # while the stale iteration is still running.
        request.start_prompt(engine.now, "p")
        request.finish_prompt(engine.now)
        machine.admit_token_request(request)
        engine.run()
        assert request.is_complete
        assert request.generated_tokens == request.output_tokens
        assert len(request.token_times) == request.output_tokens
        assert list(request.token_times) == sorted(request.token_times)
        machine.verify_accounting()

    def test_enqueue_bursts_schedule_single_start_event(self, engine, machine):
        # Regression: every enqueue used to schedule its own zero-delay start
        # event even when one was already pending, inflating events_processed.
        machine.on_prompt_complete = lambda req, m, lat: None
        for i in range(5):
            machine.enqueue_prompt(_request(i, prompt=100, output=1))
        assert engine.pending_events == 1  # one collapsed start event
        engine.run()
        assert not machine.is_busy
        assert machine.pending_prompt_tokens == 0

    def test_transfer_interference_extends_prompt_iteration(self, engine):
        from repro.core.kv_transfer import KVTransferModel
        from repro.hardware.interconnect import INFINIBAND_400

        plain = SimulatedMachine("a", DGX_H100, LLAMA2_70B, engine, role=MachineRole.PROMPT)
        with_transfer = SimulatedMachine(
            "b",
            DGX_H100,
            LLAMA2_70B,
            engine,
            role=MachineRole.PROMPT,
            kv_transfer=KVTransferModel(model=LLAMA2_70B, link=INFINIBAND_400),
        )
        for machine in (plain, with_transfer):
            machine.on_prompt_complete = lambda req, m, lat: None
            machine.enqueue_prompt(_request(0, prompt=2048, output=1))
        engine.run()
        plain_busy = plain.metrics.machine_stats("a").busy_time_s
        transfer_busy = with_transfer.metrics.machine_stats("b").busy_time_s
        assert transfer_busy > plain_busy


class TestIterationLatency:
    """An iteration lasts prompt latency x KV-transfer interference + token latency."""

    @staticmethod
    def _one_iteration(engine, machine):
        engine.step()  # the start event puts one iteration in flight
        plan = machine._running_plan
        started = engine.now
        engine.step()  # its finish event
        return plan, engine.now - started

    @staticmethod
    def _decoding(request_id, prompt, output):
        request = _request(request_id, prompt=prompt, output=output)
        request.start_prompt(0.0, "p")
        request.finish_prompt(0.0)
        return request

    def _prompt_machine(self, engine):
        from repro.core.kv_transfer import KVTransferModel
        from repro.hardware.interconnect import INFINIBAND_400

        machine = SimulatedMachine(
            "p0",
            DGX_H100,
            LLAMA2_70B,
            engine,
            role=MachineRole.PROMPT,
            kv_transfer=KVTransferModel(model=LLAMA2_70B, link=INFINIBAND_400),
        )
        machine.on_prompt_complete = lambda req, m, lat: None
        return machine

    def test_mixed_batch_adds_prompt_and_token_latency(self, engine, machine):
        machine.on_prompt_complete = lambda req, m, lat: None
        for i in range(3):
            machine.admit_token_request(self._decoding(i, prompt=700 + 100 * i, output=8))
        machine.enqueue_prompt(_request(9, prompt=900, output=4))
        plan, duration = self._one_iteration(engine, machine)
        assert plan.prompt_requests and len(plan.token_requests) == 3
        performance = machine.performance
        assert duration == performance.prompt_latency(900) + performance.token_latency(3, plan.context_tokens)

    def test_token_only_iteration_is_the_token_latency(self, engine):
        machine = SimulatedMachine(
            "t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN, fast_forward=False
        )
        for i in range(4):
            machine.admit_token_request(self._decoding(i, prompt=256 * (i + 1), output=6))
        plan, duration = self._one_iteration(engine, machine)
        assert not plan.prompt_requests and plan.context_tokens == 256 * 10 + 4
        assert duration == machine.performance.token_latency(4, plan.context_tokens)

    def test_per_layer_prompt_is_slowed_by_the_interference(self, engine):
        machine = self._prompt_machine(engine)
        threshold = machine.kv_transfer.serialized_threshold_tokens
        machine.enqueue_prompt(_request(0, prompt=threshold, output=2))
        _, duration = self._one_iteration(engine, machine)
        factor = 1.0 + machine.kv_transfer.per_layer_interference
        assert factor > 1.0
        assert duration == machine.performance.prompt_latency(threshold) * factor

    def test_serialized_prompt_runs_at_the_prompt_latency(self, engine):
        machine = self._prompt_machine(engine)
        prompt = machine.kv_transfer.serialized_threshold_tokens - 1
        machine.enqueue_prompt(_request(0, prompt=prompt, output=2))
        _, duration = self._one_iteration(engine, machine)
        assert duration == machine.performance.prompt_latency(prompt)

    def test_batch_interference_is_its_worst_prompt(self, engine):
        machine = self._prompt_machine(engine)
        threshold = machine.kv_transfer.serialized_threshold_tokens
        small, large = 64, max(threshold, 1024)
        machine.enqueue_prompt(_request(0, prompt=small, output=2))
        machine.enqueue_prompt(_request(1, prompt=large, output=2))
        plan, duration = self._one_iteration(engine, machine)
        assert len(plan.prompt_requests) == 2
        factor = 1.0 + machine.kv_transfer.per_layer_interference
        assert duration == machine.performance.prompt_latency(small + large) * factor


def _decode_pool_machine(engine, outputs, fast_forward=True, max_batch_size=64):
    machine = SimulatedMachine(
        "t0",
        DGX_H100,
        LLAMA2_70B,
        engine,
        role=MachineRole.TOKEN,
        max_batch_size=max_batch_size,
        fast_forward=fast_forward,
    )
    for index, output in enumerate(outputs):
        request = _request(index, prompt=200, output=output, arrival=index * 0.001)
        request.start_prompt(0.0, "p")
        request.finish_prompt(0.0)
        machine.admit_token_request(request)
    return machine


class TestDecodeFastForward:
    def _run_pair(self, outputs, max_batch_size=64, mid_run=None):
        results = []
        for fast_forward in (False, True):
            engine = SimulationEngine()
            machine = _decode_pool_machine(
                engine, outputs, fast_forward=fast_forward, max_batch_size=max_batch_size
            )
            if mid_run is not None:
                mid_run(engine, machine)
            engine.run()
            machine.verify_accounting()
            results.append((engine, machine))
        return results

    def test_steady_pool_coalesces_and_stays_bit_identical(self):
        outputs = [5, 9, 13, 21]
        (engine_off, machine_off), (engine_on, machine_on) = self._run_pair(outputs)
        req_off = sorted(machine_off.metrics.machine_stats("t0").occupancy.as_mapping().items())
        req_on = sorted(machine_on.metrics.machine_stats("t0").occupancy.as_mapping().items())
        assert req_off == req_on
        assert engine_on.events_coalesced > 0
        assert engine_on.events_processed < engine_off.events_processed
        stats_off = machine_off.metrics.machine_stats("t0")
        stats_on = machine_on.metrics.machine_stats("t0")
        assert stats_off.iterations == stats_on.iterations
        assert stats_off.busy_time_s == stats_on.busy_time_s
        assert stats_off.energy_wh == stats_on.energy_wh

    def test_run_ends_at_its_first_completion_in_one_event(self):
        series, counts = [], []
        for fast_forward in (False, True):
            engine = SimulationEngine()
            machine = SimulatedMachine(
                "t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN, fast_forward=fast_forward
            )
            requests = [_decoding(index, output=output) for index, output in enumerate([5, 9, 13])]
            for request in requests:
                machine.admit_token_request(request)
            engine.run()
            series.append([list(request.token_times) for request in requests])
            counts.append((engine.events_processed, engine.events_coalesced))
        # The members owe 4, 8 and 12 tokens: one start event, then one
        # macro-event per completion that also steps the completing iteration.
        assert counts == [(13, 0), (4, 9)]
        assert series[0] == series[1]

    def test_mid_run_admission_interrupts_without_drift(self):
        outputs = [10, 14, 18]
        timelines = []
        for fast_forward in (False, True):
            engine = SimulationEngine()
            machine = _decode_pool_machine(engine, outputs, fast_forward=fast_forward)
            late = _request(99, prompt=150, output=6, arrival=0.05)
            late.start_prompt(0.0, "p")
            late.finish_prompt(0.0)
            engine.schedule_at(0.08, lambda m=machine, r=late: m.admit_token_request(r))
            engine.run()
            machine.verify_accounting()
            timelines.append(
                {r.request_id: list(r.token_times) for r in [late]}
            )
        assert timelines[0] == timelines[1]

    def test_oversubscribed_pool_enters_rotation_and_matches(self):
        outputs = [6 + (i % 9) for i in range(12)]
        per_request = []
        rotations = 0
        for fast_forward in (False, True):
            engine = SimulationEngine()
            machine = _decode_pool_machine(
                engine, outputs, fast_forward=fast_forward, max_batch_size=4
            )
            engine.run()
            machine.verify_accounting()
            stats = machine.metrics.machine_stats("t0")
            per_request.append((stats.iterations, stats.busy_time_s, stats.energy_wh))
            rotations += machine.rotation_runs
        assert per_request[0] == per_request[1]
        assert rotations > 0

    def test_admission_inside_inflight_split_keeps_flat_order(self):
        """A newcomer sorting inside the in-flight extraction stays in view order.

        Six members rotate through four slots, so the first iteration
        extracts ids 1-4 from the one level.  Request 99 then arrives with
        an ``(arrival, id)`` between ids 2 and 3, a withdrawal flattens the
        forest mid-iteration, and request 98 lands in the rebuilt flat view.
        """
        series = []
        for fast_forward in (False, True):
            engine = SimulationEngine()
            machine = SimulatedMachine(
                "t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN,
                max_batch_size=4, fast_forward=fast_forward,
            )
            requests = {}
            for request_id in (1, 2, 3, 4, 5, 6, 99, 98):
                arrival = {99: 0.025, 98: 0.035}.get(request_id, 0.01 * request_id)
                request = _request(request_id, prompt=200, output=12, arrival=arrival)
                request.start_prompt(0.0, "p")
                request.finish_prompt(0.0)
                requests[request_id] = request
            for request_id in range(1, 7):
                machine.admit_token_request(requests[request_id])

            def admit_and_verify(m=machine, r=requests[99]):
                m.admit_token_request(r)
                m.verify_accounting()

            engine.schedule_at(0.001, admit_and_verify)
            engine.schedule_at(0.002, lambda m=machine, r=requests[6]: m.withdraw(r))
            engine.schedule_at(0.003, lambda m=machine, r=requests[98]: m.admit_token_request(r))
            engine.run()
            machine.verify_accounting()
            series.append({request_id: list(r.token_times) for request_id, r in requests.items()})
        assert series[0] == series[1]

    def test_withdraw_mid_fast_forward_matches_reference(self):
        outputs = [12, 16, 20]
        snapshots = []
        for fast_forward in (False, True):
            engine = SimulationEngine()
            machine = _decode_pool_machine(engine, outputs, fast_forward=fast_forward)
            victim = machine.find_queued(1)
            engine.schedule_at(0.1, lambda m=machine, r=victim: m.withdraw(r))
            engine.run()
            machine.verify_accounting()
            survivors = {r.request_id: list(r.token_times) for r in [machine.find_queued(0), machine.find_queued(2)] if r}
            stats = machine.metrics.machine_stats("t0")
            snapshots.append((survivors, stats.busy_time_s, stats.iterations))
        # The withdrawn request stops decoding at the interrupt in both modes.
        assert snapshots[0][1:] == snapshots[1][1:]


def _decoding(request_id: int, output: int = 12, arrival: float = 0.0) -> Request:
    """A request whose prompt already ran elsewhere, ready for a token pool."""
    request = _request(request_id, prompt=200, output=output, arrival=arrival)
    request.start_prompt(0.0, "p")
    request.finish_prompt(0.0)
    return request


class TestInFlightRecord:
    """One in-flight iteration per machine: its plan and its one pending event."""

    @staticmethod
    def _in_flight(machine, tag):
        assert machine.is_busy
        assert machine._event is not None and machine._event.live
        assert machine._event.tag == f"t0:{tag}"
        machine.verify_accounting()

    @staticmethod
    def _idle(machine):
        assert not machine.is_busy
        assert machine._event is None
        machine.verify_accounting()

    def test_per_iteration_finish(self, engine):
        machine = _decode_pool_machine(engine, [3, 3], fast_forward=False)
        engine.step()  # start event
        self._in_flight(machine, "finish")
        first = machine._event
        engine.step()  # finish, which starts the next iteration inline
        self._in_flight(machine, "finish")
        assert machine._event is not first and not first.live
        engine.run()
        self._idle(machine)

    def test_fast_forward_run(self, engine):
        machine = _decode_pool_machine(engine, [12, 16])
        engine.step()
        self._in_flight(machine, "macro")
        assert machine.fast_forward_runs == 1
        engine.run()
        self._idle(machine)

    def test_fast_forward_interrupt_keeps_the_in_flight_iteration(self, engine):
        machine = _decode_pool_machine(engine, [12, 16])
        engine.run(until=0.2)
        macro = machine._event
        assert macro.tag == "t0:macro" and macro.live
        machine.enqueue_prompt(_request(50, prompt=100, output=2))
        assert machine._ff_boundaries is None and not macro.live
        self._in_flight(machine, "finish")
        engine.run()
        self._idle(machine)

    def test_rotation_interrupt_keeps_the_finish_event(self, engine):
        machine = _decode_pool_machine(engine, [10] * 6, max_batch_size=4)
        engine.step()
        assert machine._rot_forest is not None
        finish = machine._event
        machine.withdraw(machine.find_queued(5))
        assert machine._rot_forest is None
        self._in_flight(machine, "finish")
        assert machine._event is finish
        engine.run()
        self._idle(machine)

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_fail_drops_the_in_flight_iteration(self, engine, fast_forward):
        machine = _decode_pool_machine(engine, [12, 16], fast_forward=fast_forward)
        engine.step()
        pending = machine._event
        assert {r.request_id for r in machine.fail()} == {0, 1}
        assert not pending.live
        self._idle(machine)
        engine.run()
        assert machine._event is None

    def test_recount_catches_plan_without_event(self, engine):
        machine = _decode_pool_machine(engine, [3, 3], fast_forward=False)
        engine.step()
        machine._event = None
        with pytest.raises(AccountingError, match="out of step"):
            machine.verify_accounting()

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_member_admitted_mid_iteration_is_aged_at_its_finish(self, engine, fast_forward):
        """The whole pool is batched; only the newcomer was left out of it."""
        machine = _decode_pool_machine(engine, [12, 12], fast_forward=fast_forward, max_batch_size=4)
        engine.step()
        late = _decoding(99, arrival=0.5)
        machine.admit_token_request(late)
        engine.step()  # the in-flight iteration's finish
        assert late.priority_boost == 1
        assert [r.priority_boost for r in (machine.find_queued(0), machine.find_queued(1))] == [0, 0]
        assert late.generated_tokens == 1  # no token from the iteration it missed

    def test_member_admitted_after_rotation_interrupt_is_aged_at_its_finish(self, engine):
        """Withdrawing the one skipped member flattens the forest mid-iteration."""
        machine = _decode_pool_machine(engine, [12] * 5, max_batch_size=4)
        engine.step()
        assert machine._rot_forest is not None
        machine.withdraw(machine.find_queued(4))
        late = _decoding(99, arrival=0.5)
        machine.admit_token_request(late)
        engine.step()
        assert late.priority_boost == 1
        assert [machine.find_queued(i).priority_boost for i in range(4)] == [0, 0, 0, 0]
