"""Unit tests for fault tolerance (§IV-E) and the routing-policy options."""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterSimulation
from repro.core.designs import baseline_h100, splitwise_hh
from repro.core.kv_transfer import KVTransferModel
from repro.hardware.interconnect import INFINIBAND_400
from repro.metrics.collectors import census
from repro.models.llm import LLAMA2_70B
from repro.simulation.request import RequestPhase
from repro.workload.generator import generate_trace
from repro.workload.trace import Trace


@pytest.fixture(scope="module")
def failure_trace() -> Trace:
    return generate_trace("conversation", rate_rps=4.0, duration_s=20.0, seed=3)


class TestRequestRestart:
    def test_reset_clears_progress_and_counts_restart(self, make_request):
        request = make_request(prompt=100, output=5)
        request.start_prompt(0.0, "prompt-0")
        request.finish_prompt(0.1)
        request.generate_token(0.2)
        request.reset_for_restart()
        assert request.phase is RequestPhase.QUEUED
        assert request.generated_tokens == 0
        assert list(request.token_times) == []
        assert request.ttft is None
        assert request.restarts == 1

    def test_completed_request_cannot_restart(self, make_request):
        request = make_request(output=1)
        request.start_prompt(0.0, "m")
        request.finish_prompt(0.1)
        with pytest.raises(RuntimeError, match="already completed"):
            request.reset_for_restart()


class TestMachineFailure:
    def test_failed_machine_rejects_new_work(self, make_request):
        from repro.core.machine import MachineRole, SimulatedMachine
        from repro.hardware.machine import DGX_H100
        from repro.simulation.engine import SimulationEngine

        machine = SimulatedMachine("m0", DGX_H100, LLAMA2_70B, SimulationEngine(), role=MachineRole.MIXED)
        machine.enqueue_prompt(make_request(request_id=0))
        surrendered = machine.fail()
        assert machine.failed
        assert len(surrendered) == 1
        with pytest.raises(RuntimeError, match="failed"):
            machine.enqueue_prompt(make_request(request_id=1))
        with pytest.raises(RuntimeError, match="failed"):
            machine.admit_token_request(make_request(request_id=2))

    def test_fail_is_idempotent_via_scheduler(self, failure_trace):
        simulation = ClusterSimulation(splitwise_hh(2, 2))
        result = simulation.run(failure_trace, failures=[(5.0, "token-0"), (6.0, "token-0")])
        assert [m.name for m in result.scheduler.failed_machines] == ["token-0"]
        assert result.completion_rate == 1.0

    def test_unknown_machine_name_raises(self):
        simulation = ClusterSimulation(splitwise_hh(1, 1))
        with pytest.raises(KeyError, match="no machine named"):
            simulation.scheduler.fail_machine("gpu-42")

    def test_failures_that_fail_every_machine_are_rejected_at_prepare(self):
        # Failures in a single cluster are permanent: with every machine gone,
        # the next arrival (or restart) would have nowhere to run.
        simulation = ClusterSimulation(splitwise_hh(1, 1))
        failures = [(5.0, "prompt-0"), (9.0, "token-0"), (7.0, "token-0")]
        assert simulation.lost_at(failures) == 7.0
        assert simulation.lost_at(failures[:1]) is None
        with pytest.raises(ValueError, match=r"every machine of cluster .* by t=7\.0 \(prompt-0, token-0\)"):
            simulation.prepare(failures)
        assert simulation.engine.pending_events == 0  # rejected before anything was armed


class TestClusterLevelRecovery:
    def test_all_requests_complete_despite_token_machine_failure(self, failure_trace):
        simulation = ClusterSimulation(splitwise_hh(2, 2))
        result = simulation.run(failure_trace, failures=[(8.0, "token-1")])
        assert result.completion_rate == 1.0
        assert result.scheduler.restarted_requests
        assert all(r.generated_tokens == r.output_tokens for r in result.completed_requests)

    def test_all_requests_complete_despite_prompt_machine_failure(self, failure_trace):
        simulation = ClusterSimulation(splitwise_hh(2, 1))
        result = simulation.run(failure_trace, failures=[(6.0, "prompt-0")])
        assert result.completion_rate == 1.0
        scheduler = result.scheduler
        prompt_0 = scheduler.find_machine("prompt-0")
        assert list(scheduler.failed_machines) == [prompt_0]
        routable = (scheduler.prompt_pool, scheduler.token_pool, scheduler.mixed_pool)
        assert not any(prompt_0 in pool for pool in routable)

    def test_baseline_cluster_recovers_too(self, failure_trace):
        simulation = ClusterSimulation(baseline_h100(3))
        result = simulation.run(failure_trace, failures=[(7.0, "machine-2")])
        assert result.completion_rate == 1.0

    def test_recovered_machine_does_not_replay_dead_iteration(self, failure_trace):
        # Regression: fail() must tombstone the in-flight iteration's finish
        # event.  A machine repaired before that event's boundary would
        # otherwise replay the dead iteration and double-complete requests
        # that already restarted on its siblings.
        simulation = ClusterSimulation(splitwise_hh(2, 2))
        simulation.engine.schedule_at(
            5.0,
            lambda: simulation.scheduler.recover_machine("prompt-0"),
            priority=2,  # after the failure at the same instant
            tag="repair:prompt-0",
        )
        result = simulation.run(failure_trace, failures=[(5.0, "prompt-0")])
        assert result.completion_rate == 1.0
        assert not result.scheduler.failed_machines
        assert result.scheduler.restarted_requests
        assert all(r.generated_tokens == r.output_tokens for r in result.completed_requests)
        # The repaired machine rejoined the pool and served later work.
        assert any(
            r.prompt_machine == "prompt-0" and r.prompt_start_time > 5.0
            for r in result.completed_requests
        )

    def test_failure_does_not_restart_a_request_cancelled_mid_iteration(self):
        # Regression: fail() surrendered every member of the running plan,
        # including one a deadline had just withdrawn from it, so the
        # scheduler reset and resubmitted an expired request, which then
        # completed as well and the census did not close.
        simulation = ClusterSimulation(splitwise_hh(1, 2))
        trace = generate_trace("conversation", rate_rps=4.0, duration_s=5.0, seed=3)
        cancelled = []

        def expire_then_fail():
            scheduler = simulation.scheduler
            plan = scheduler.find_machine("token-0")._running_plan
            assert plan is not None and plan.token_requests
            request = plan.token_requests[0]
            scheduler.cancel_request(request)
            request.expire(simulation.engine.now)
            cancelled.append(request)
            assert request not in scheduler.fail_machine("token-0")

        simulation.engine.schedule_at(3.0, expire_then_fail)
        result = simulation.run(trace)
        (request,) = cancelled
        assert request.expired and not request.is_complete and request.restarts == 0
        assert census(result.requests) == {
            "submitted": len(trace), "completed": len(trace) - 1, "shed": 0, "expired": 1, "degraded": 0,
        }

    def test_restarted_requests_pay_a_latency_penalty(self, failure_trace):
        clean = ClusterSimulation(splitwise_hh(2, 2)).run(failure_trace)
        faulty = ClusterSimulation(splitwise_hh(2, 2)).run(failure_trace, failures=[(8.0, "token-0")])
        restarted_ids = {r.request_id for r in faulty.scheduler.restarted_requests}
        assert restarted_ids
        clean_by_id = {r.request_id: r for r in clean.completed_requests}
        penalties = [
            faulty_request.e2e_latency - clean_by_id[faulty_request.request_id].e2e_latency
            for faulty_request in faulty.completed_requests
            if faulty_request.request_id in restarted_ids
        ]
        assert max(penalties) > 0


class TestRoutingPolicies:
    @pytest.mark.parametrize("routing", ["jsq", "round-robin", "random"])
    def test_all_policies_complete_the_trace(self, failure_trace, routing):
        result = ClusterSimulation(splitwise_hh(2, 2), routing=routing).run(failure_trace)
        assert result.completion_rate == 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="routing"):
            ClusterSimulation(splitwise_hh(1, 1), routing="power-of-two")

    def test_round_robin_spreads_prompts_evenly(self):
        trace = Trace.from_records([(i * 0.001, 128, 1) for i in range(8)], name="even")
        simulation = ClusterSimulation(splitwise_hh(2, 1), routing="round-robin")
        result = simulation.run(trace)
        counts = {
            name: result.metrics.machine_stats(name).prompt_tokens_processed
            for name in ("prompt-0", "prompt-1")
        }
        assert counts["prompt-0"] == counts["prompt-1"]

    def test_jsq_no_worse_than_random_on_tail_ttft(self):
        trace = generate_trace("coding", rate_rps=8.0, duration_s=30.0, seed=11)
        jsq = ClusterSimulation(splitwise_hh(2, 1), routing="jsq").run(trace)
        rnd = ClusterSimulation(splitwise_hh(2, 1), routing="random").run(trace)
        assert jsq.request_metrics().ttft.p99 <= rnd.request_metrics().ttft.p99 * 1.05


class TestKvCompression:
    def test_compression_shrinks_wire_latency_only(self):
        plain = KVTransferModel(model=LLAMA2_70B, link=INFINIBAND_400)
        compressed = KVTransferModel(model=LLAMA2_70B, link=INFINIBAND_400, compression_ratio=4.0)
        assert compressed.kv_bytes(2048) == pytest.approx(plain.kv_bytes(2048) / 4)
        assert compressed.serialized_latency(2048) < plain.serialized_latency(2048)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError, match="compression_ratio"):
            KVTransferModel(model=LLAMA2_70B, link=INFINIBAND_400, compression_ratio=0.5)
