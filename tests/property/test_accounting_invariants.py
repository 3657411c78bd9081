"""Property tests for the machines' incremental queue accounting.

The O(1) hot-path counters (pending prompt/decode tokens, KV residency,
transfer expectations and the priority-ordered ready view) must stay equal to
a full recount of the underlying queues after *any* interleaving of submits,
iterations, transfers, completions, machine failures and restarts.  With
``debug_accounting`` enabled every queue-metric read cross-checks the
counters, so simply driving a cluster hard exercises the invariant millions
of times; these tests additionally sweep ``verify_accounting`` between engine
steps so windows where no probe happens are covered too.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterSimulation
from repro.core.designs import baseline_h100, splitwise_hh
from repro.core.machine import MachineRole, SimulatedMachine
from repro.hardware.machine import DGX_H100
from repro.models.llm import LLAMA2_70B
from repro.simulation.engine import SimulationEngine
from repro.simulation.request import Request
from repro.workload.generator import generate_trace
from repro.workload.trace import RequestDescriptor


def _enable_debug_accounting(simulation: ClusterSimulation) -> None:
    for machine in simulation.machines:
        machine.debug_accounting = True


def _verify_all(simulation: ClusterSimulation) -> None:
    for machine in simulation.machines:
        if not machine.failed:
            machine.verify_accounting()


class TestAccountingInvariants:
    def test_randomized_lifecycle_keeps_counters_exact(self):
        """Seeded, deterministic: saturating load plus failures and restarts."""
        rng = random.Random(20240727)
        for _ in range(3):
            simulation = ClusterSimulation(splitwise_hh(3, 2))
            trace = generate_trace(
                "conversation",
                rate_rps=rng.choice([6.0, 12.0, 25.0]),
                duration_s=30.0,
                seed=rng.randrange(10_000),
            )
            # Fail one prompt and one token machine at random times inside the
            # trace so restart/withdraw paths run under load.
            failures = [
                (rng.uniform(2.0, 20.0), f"prompt-{rng.randrange(3)}"),
                (rng.uniform(2.0, 25.0), f"token-{rng.randrange(2)}"),
            ]
            _enable_debug_accounting(simulation)
            # debug_accounting makes every JSQ probe self-verify during run().
            result = simulation.run(trace, failures=failures)
            _verify_all(simulation)
            assert len(result.completed_requests) == len(result.requests)
            assert simulation.scheduler.restarted_requests, "failures should restart work"

    def test_stepwise_sweep_between_events(self):
        """Verify counters in the gaps between events, not only at probes."""
        simulation = ClusterSimulation(splitwise_hh(2, 2))
        trace = generate_trace("coding", rate_rps=10.0, duration_s=20.0, seed=99)
        _enable_debug_accounting(simulation)
        engine = simulation.engine
        live = [Request(descriptor=descriptor) for descriptor in trace]
        for request in live:
            engine.schedule_at(
                request.arrival_time, lambda r=request: simulation.scheduler.submit(r), priority=2
            )
        engine.schedule_at(5.0, lambda: simulation.scheduler.fail_machine("prompt-0"), priority=1)
        steps = 0
        while engine.step():
            steps += 1
            if steps % 7 == 0:
                _verify_all(simulation)
        _verify_all(simulation)
        assert steps > 0
        assert all(request.is_complete for request in live)

    @given(rate=st.sampled_from([3.0, 8.0, 16.0]), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_baseline_cluster_counters_hold_under_load(self, rate, seed):
        simulation = ClusterSimulation(baseline_h100(3))
        trace = generate_trace("conversation", rate_rps=rate, duration_s=10.0, seed=seed)
        _enable_debug_accounting(simulation)
        result = simulation.run(trace)
        _verify_all(simulation)
        assert len(result.completed_requests) == len(result.requests)


def _run_simulation(design, trace, failures, fast_forward):
    """Run one cluster simulation with coalescing forced on or off."""
    simulation = ClusterSimulation(design, fast_forward=fast_forward)
    _enable_debug_accounting(simulation)
    result = simulation.run(trace, failures=failures)
    _verify_all(simulation)
    return simulation, result


def _assert_bit_identical(reference, coalesced):
    """Every per-request and per-machine output must match exactly (==, not approx)."""
    sim_ref, res_ref = reference
    sim_fast, res_fast = coalesced
    assert res_ref.duration_s == res_fast.duration_s
    assert len(res_ref.requests) == len(res_fast.requests)
    for ref, fast in zip(res_ref.requests, res_fast.requests):
        assert ref.request_id == fast.request_id
        assert ref.completion_time == fast.completion_time
        assert ref.first_token_time == fast.first_token_time
        assert ref.generated_tokens == fast.generated_tokens
        assert list(ref.token_times) == list(fast.token_times)
        assert ref.priority_boost == fast.priority_boost
        assert ref.restarts == fast.restarts
        assert ref.phase is fast.phase
    assert sim_ref.metrics.total_energy_wh() == sim_fast.metrics.total_energy_wh()
    assert list(sim_ref.metrics.export_machine_stats()) == list(sim_fast.metrics.export_machine_stats())
    for name in sim_ref.metrics.export_machine_stats():
        ref = sim_ref.metrics.machine_stats(name)
        fast = sim_fast.metrics.machine_stats(name)
        assert ref.iterations == fast.iterations
        assert ref.busy_time_s == fast.busy_time_s
        assert ref.energy_wh == fast.energy_wh
        assert ref.prompt_tokens_processed == fast.prompt_tokens_processed
        assert ref.tokens_generated == fast.tokens_generated
        assert ref.occupancy.as_mapping() == fast.occupancy.as_mapping()


class TestFastForwardParity:
    """Coalescing (macro-events + rotation) must be invisible in the results.

    Saturating traces push the token pools through every coalescing regime —
    full-pool macro-events, oversubscribed rotation, interrupts from
    admissions and failures — and the fast-forwarding simulator must produce
    bit-identical completion times, token timestamps, energy totals, and
    per-machine metrics, all while debug accounting cross-checks every
    counter read.
    """

    def test_saturating_split_cluster_with_failures_parity(self):
        rng = random.Random(20260727)
        coalesced_somewhere = False
        for _ in range(3):
            rate = rng.choice([15.0, 35.0, 60.0])
            trace = generate_trace(
                "conversation", rate_rps=rate, duration_s=18.0, seed=rng.randrange(10_000)
            )
            failures = [
                (rng.uniform(2.0, 12.0), f"prompt-{rng.randrange(3)}"),
                (rng.uniform(2.0, 15.0), f"token-{rng.randrange(2)}"),
            ]
            reference = _run_simulation(splitwise_hh(3, 2), trace, failures, fast_forward=False)
            coalesced = _run_simulation(splitwise_hh(3, 2), trace, failures, fast_forward=True)
            _assert_bit_identical(reference, coalesced)
            assert reference[0].scheduler.restarted_requests, "failures should restart work"
            if (
                coalesced[0].engine.events_coalesced
                or sum(machine.rotation_runs for machine in coalesced[0].machines)
            ):
                coalesced_somewhere = True
            # Coalescing must actually reduce scheduled work somewhere.
            assert coalesced[0].engine.events_processed <= reference[0].engine.events_processed
        assert coalesced_somewhere, "no trace engaged the fast-forward machinery"

    def test_oversubscribed_baseline_parity(self):
        trace = generate_trace("conversation", rate_rps=30.0, duration_s=20.0, seed=424242)
        reference = _run_simulation(baseline_h100(3), trace, (), fast_forward=False)
        coalesced = _run_simulation(baseline_h100(3), trace, (), fast_forward=True)
        _assert_bit_identical(reference, coalesced)
        assert sum(machine.rotation_runs for machine in coalesced[0].machines) > 0


def _rotation_under_interrupts(seed: int, fast_forward: bool) -> list[Request]:
    """One oversubscribed token machine under seeded admissions and withdrawals.

    Arrivals are drawn over a wider window than the admissions, so many
    newcomers sort before members already in the pool, including members of
    the batch in flight.  Every event is followed by a full recount.
    """
    rng = random.Random(seed)
    engine = SimulationEngine()
    machine = SimulatedMachine(
        "t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN,
        max_batch_size=4, fast_forward=fast_forward,
    )
    requests: list[Request] = []

    def decoding() -> Request:
        request = Request(
            descriptor=RequestDescriptor(
                request_id=len(requests),
                arrival_time_s=rng.uniform(0.0, 1.0),
                prompt_tokens=rng.randrange(50, 500),
                output_tokens=rng.randrange(2, 24),
            )
        )
        request.start_prompt(0.0, "p")
        request.finish_prompt(0.0)
        requests.append(request)
        return request

    for _ in range(rng.randint(5, 9)):
        machine.admit_token_request(decoding())
    for _ in range(rng.randint(4, 14)):
        engine.schedule_at(rng.uniform(0.0, 0.5), lambda r=decoding(): machine.admit_token_request(r))
    for _ in range(rng.randint(1, 6)):
        engine.schedule_at(rng.uniform(0.0, 0.5), lambda r=rng.choice(requests): machine.withdraw(r))
    while engine.step():
        machine.verify_accounting()
    return requests


class TestRotationInterruptParity:
    """Admissions and withdrawals landing mid-rotation keep the exact order.

    The forest must absorb an admission that sorts inside the batch in
    flight, and a withdrawal must hand that batch back to the flat view in
    view order, so that the pool stays in priority order at every event and
    the results equal the per-iteration reference's.
    """

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_interrupted_rotation_matches_reference(self, seed):
        reference = _rotation_under_interrupts(seed, fast_forward=False)
        rotated = _rotation_under_interrupts(seed, fast_forward=True)
        for ref, rot in zip(reference, rotated, strict=True):
            assert list(ref.token_times) == list(rot.token_times)
            assert ref.generated_tokens == rot.generated_tokens
            assert ref.priority_boost == rot.priority_boost
            assert ref.phase is rot.phase
