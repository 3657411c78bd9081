"""Unit tests for per-request token recording and the cluster boundary counter.

Each stepping path of :class:`~repro.core.machine.SimulatedMachine` writes
token times straight onto the request: the per-iteration finish loop (whose
batches a rotation forest may order) and the fast-forward commit.  The
machine-level tests here drive one regime each and check the series as it
is written, not only the final values (the cluster-level parity lives in
``tests/property/test_token_log_parity.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.machine import MachineRole, SimulatedMachine
from repro.hardware.machine import DGX_H100
from repro.metrics.collectors import MetricsCollector
from repro.models.llm import LLAMA2_70B
from repro.simulation.engine import SimulationEngine
from repro.simulation.request import Request, RequestPhase
from repro.workload.trace import RequestDescriptor


def _request(request_id: int = 0, output_tokens: int = 5) -> Request:
    return Request(
        descriptor=RequestDescriptor(
            request_id=request_id, arrival_time_s=0.0, prompt_tokens=10, output_tokens=output_tokens
        )
    )


def _machine(engine, metrics=None, name="m0", role=MachineRole.TOKEN, **kwargs) -> SimulatedMachine:
    return SimulatedMachine(
        name=name,
        spec=DGX_H100,
        model=LLAMA2_70B,
        engine=engine,
        role=role,
        metrics=metrics if metrics is not None else MetricsCollector(),
        **kwargs,
    )


def _decode_pool(engine, outputs, **kwargs) -> tuple[SimulatedMachine, list[Request]]:
    """A token machine whose pool holds one post-prompt request per output length."""
    machine = _machine(engine, **kwargs)
    requests = []
    for index, output in enumerate(outputs):
        request = _request(index, output_tokens=output)
        request.start_prompt(0.0, "prompt-0")
        request.finish_prompt(0.0)
        machine.admit_token_request(request)
        requests.append(request)
    return machine, requests


# Pool shapes that send the machine down each stepping path: a small pool
# stepped one iteration at a time, the same pool coalesced into fast-forward
# runs, and a pool larger than one batch, which rotates.
_PATHS = {
    "per_iteration": ([5, 9, 13, 21], dict(fast_forward=False)),
    "fast_forward": ([5, 9, 13, 21], dict(fast_forward=True)),
    "rotation": ([6 + (i % 9) for i in range(12)], dict(fast_forward=True, max_batch_size=4)),
}


def _reference_series(outputs, **kwargs) -> list[list[float]]:
    kwargs["fast_forward"] = False
    engine = SimulationEngine()
    _, requests = _decode_pool(engine, outputs, **kwargs)
    engine.run()
    return [list(request.token_times) for request in requests]


def _step_and_check_appends(engine, requests) -> int:
    """Step ``engine`` to the end, asserting every series grows one ``now`` at a time.

    Returns the largest number of requests that gained a token at one event.
    """
    lengths = [len(request.token_times) for request in requests]
    widest = 0
    while engine.step():
        grown = 0
        for index, request in enumerate(requests):
            times = request.token_times
            assert len(times) == request.generated_tokens
            if len(times) != lengths[index]:
                assert len(times) == lengths[index] + 1
                assert times[-1] == engine.now
                lengths[index] = len(times)
                grown += 1
        widest = max(widest, grown)
    return widest


class TestStepPathsRecordDirectly:
    def test_per_iteration_path_appends_at_each_boundary(self):
        engine = SimulationEngine()
        machine, requests = _decode_pool(engine, [5, 9, 13], fast_forward=False)
        # The whole pool fits one batch, so every boundary services every
        # member still decoding.
        assert _step_and_check_appends(engine, requests) == 3
        assert machine.fast_forward_runs == 0

    def test_rotation_step_appends_for_each_serviced_member(self):
        outputs, kwargs = _PATHS["rotation"]
        reference = _reference_series(outputs, **kwargs)
        engine = SimulationEngine()
        machine, requests = _decode_pool(engine, outputs, **kwargs)
        lengths = [len(request.token_times) for request in requests]
        widest = 0
        while True:
            rotating = machine._rot_forest is not None
            if not engine.step():
                break
            now = engine.now
            grown = 0
            for index, (request, expected) in enumerate(zip(requests, reference)):
                times = list(request.token_times)
                # Rotated boundaries and the coalesced tail once the pool
                # fits one batch both leave the reference's prefix up to now.
                assert times == [t for t in expected if t <= now]
                if rotating and len(times) != lengths[index]:
                    assert len(times) == lengths[index] + 1
                    assert times[-1] == now
                    grown += 1
                lengths[index] = len(times)
            widest = max(widest, grown)
        # A rotation boundary services at most one batch of the pool.
        assert widest == kwargs["max_batch_size"]
        assert machine.rotation_runs > 0
        assert [list(r.token_times) for r in requests] == reference

    def test_fast_forward_sync_records_exactly_the_passed_boundaries(self):
        outputs, kwargs = _PATHS["fast_forward"]
        reference = _reference_series(outputs, **kwargs)
        engine = SimulationEngine()
        machine, requests = _decode_pool(engine, outputs, **kwargs)
        probes = []

        def probe():
            # Reading an observer that syncs commits the run's boundary
            # series up to now: each member holds the reference prefix that
            # has elapsed.
            machine.pending_decode_tokens
            now = engine.now
            for request, expected in zip(requests, reference):
                assert len(request.token_times) == request.generated_tokens
                assert list(request.token_times) == [t for t in expected if t <= now]
            probes.append(now)

        for time in (0.05, 0.1, 0.2, 0.3, 0.45):
            engine.schedule_at(time, probe)
        engine.run()
        assert len(probes) == 5
        assert machine.fast_forward_runs > 0
        assert [list(r.token_times) for r in requests] == reference

    @pytest.mark.parametrize("path", sorted(_PATHS))
    def test_finished_series_spans_first_token_to_completion(self, path):
        outputs, kwargs = _PATHS[path]
        engine = SimulationEngine()
        machine, requests = _decode_pool(engine, outputs, **kwargs)
        engine.run()
        machine.verify_accounting()
        for request in requests:
            times = list(request.token_times)
            assert request.is_complete
            assert len(times) == request.generated_tokens == request.output_tokens
            assert times[0] == request.first_token_time
            assert times[-1] == request.completion_time
            assert times == sorted(times)


class TestTokenLog:
    def test_counts_one_boundary_per_decode_iteration(self):
        engine = SimulationEngine()
        metrics = MetricsCollector()
        machine, requests = _decode_pool(engine, [4, 4, 4], metrics=metrics, fast_forward=False)
        engine.run()
        # One batched iteration per remaining token, each a single boundary
        # however many requests it serviced.
        assert all(len(request.token_times) == 4 for request in requests)
        assert metrics.machine_stats("m0").iterations == 3
        assert metrics.token_log.boundaries_recorded() == 3

    def test_coalesced_iterations_are_not_counted(self):
        outputs, kwargs = _PATHS["fast_forward"]
        engine = SimulationEngine()
        metrics = MetricsCollector()
        machine, _ = _decode_pool(engine, outputs, metrics=metrics, **kwargs)
        engine.run()
        assert machine.fast_forward_runs > 0
        # Iterations inside a fast-forward run are recorded as machine
        # metrics but step no boundary of their own.
        boundaries = metrics.token_log.boundaries_recorded()
        assert 0 < boundaries < metrics.machine_stats("m0").iterations

    def test_prompt_only_iterations_are_not_counted(self):
        engine = SimulationEngine()
        metrics = MetricsCollector()
        machine = _machine(engine, metrics=metrics, role=MachineRole.PROMPT)
        prompts = [_request(i) for i in range(3)]
        for request in prompts:
            machine.enqueue_prompt(request)
        engine.run()
        assert all(request.generated_tokens == 1 for request in prompts)
        assert metrics.machine_stats("m0").iterations > 0
        assert metrics.token_log.boundaries_recorded() == 0

    def test_machines_of_one_cluster_share_the_counter(self):
        engine = SimulationEngine()
        metrics = MetricsCollector()
        machines = []
        for index, outputs in enumerate(([3, 3], [5])):
            machine = _machine(engine, metrics=metrics, name=f"t{index}", fast_forward=False)
            for offset, output in enumerate(outputs):
                request = _request(10 * index + offset, output_tokens=output)
                request.start_prompt(0.0, "prompt-0")
                request.finish_prompt(0.0)
                machine.admit_token_request(request)
            machines.append(machine)
        engine.run()
        assert [metrics.machine_stats(m.name).iterations for m in machines] == [2, 4]
        assert metrics.token_log.boundaries_recorded() == 6


class TestRequestTokenTimes:
    def test_token_intervals_vectorized_matches_scalar(self):
        request = _request(output_tokens=4)
        for time in (0.1, 0.2, 0.35, 0.45):
            request.generate_token(time)
        times = list(request.token_times)
        expected = [times[i] - times[i - 1] for i in range(1, len(times))]
        assert isinstance(request.token_intervals_np, np.ndarray)
        assert request.token_intervals_np.tolist() == expected

    def test_reset_for_restart_clears_recorded_tokens(self):
        request = _request()
        request.finish_prompt(0.5)
        request.generate_token(0.75)
        assert list(request.token_times) == [0.5, 0.75]
        request.reset_for_restart()
        assert request.generated_tokens == 0
        assert list(request.token_times) == []
        assert request.phase is RequestPhase.QUEUED
        assert request.restarts == 1

    def test_direct_append_keeps_working(self):
        # Some tests drive requests manually and append to the live array.
        request = _request()
        request.token_times.append(0.25)
        assert list(request.token_times) == [0.25]

    def test_completed_request_cannot_generate(self):
        request = _request(output_tokens=1)
        request.finish_prompt(0.2)
        assert request.is_complete
        with pytest.raises(RuntimeError):
            request.generate_token(0.3)
