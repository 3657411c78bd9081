"""Unit tests for the cluster-level scheduler (§IV-A): JSQ routing and pools."""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterSimulation
from repro.core.cluster_scheduler import ClusterScheduler, MachinePool
from repro.core.designs import splitwise_hh
from repro.core.machine import MachineRole, SimulatedMachine
from repro.hardware.machine import DGX_H100
from repro.metrics.collectors import MetricsCollector
from repro.models.llm import LLAMA2_70B
from repro.simulation.engine import SimulationEngine
from repro.simulation.request import Request, RequestPhase
from repro.workload.generator import generate_trace
from repro.workload.trace import RequestDescriptor


def _request(request_id: int, prompt: int = 512, output: int = 8, arrival: float = 0.0) -> Request:
    return Request(
        descriptor=RequestDescriptor(
            request_id=request_id, arrival_time_s=arrival, prompt_tokens=prompt, output_tokens=output
        )
    )


def _machine(name: str, engine: SimulationEngine, role: MachineRole, metrics: MetricsCollector) -> SimulatedMachine:
    return SimulatedMachine(
        name=name, spec=DGX_H100, model=LLAMA2_70B, engine=engine, role=role, metrics=metrics
    )


@pytest.fixture
def split_cluster():
    engine = SimulationEngine()
    metrics = MetricsCollector()
    machines = [
        _machine("prompt-0", engine, MachineRole.PROMPT, metrics),
        _machine("prompt-1", engine, MachineRole.PROMPT, metrics),
        _machine("token-0", engine, MachineRole.TOKEN, metrics),
    ]
    scheduler = ClusterScheduler(engine=engine, machines=machines, model=LLAMA2_70B, split=True)
    return engine, scheduler, machines


@pytest.fixture
def baseline_cluster():
    engine = SimulationEngine()
    metrics = MetricsCollector()
    machines = [
        _machine("machine-0", engine, MachineRole.MIXED, metrics),
        _machine("machine-1", engine, MachineRole.MIXED, metrics),
    ]
    scheduler = ClusterScheduler(engine=engine, machines=machines, model=LLAMA2_70B, split=False)
    return engine, scheduler, machines


class TestMachinePool:
    def test_add_remove_and_least_loaded(self, split_cluster):
        _, _, machines = split_cluster
        pool = MachinePool("test")
        pool.add(machines[0])
        pool.add(machines[0])  # duplicate ignored
        pool.add(machines[1])
        assert len(pool) == 2
        machines[0].enqueue_prompt(_request(0, prompt=1000))
        assert pool.least_loaded(lambda m: m.pending_prompt_tokens) is machines[1]
        pool.remove(machines[1])
        assert pool.least_loaded(lambda m: m.pending_prompt_tokens) is machines[0]

    def test_empty_pool_returns_none(self):
        assert MachinePool("empty").least_loaded(lambda m: 0) is None


class TestPoolAssignment:
    def test_split_cluster_pools(self, split_cluster):
        _, scheduler, _ = split_cluster
        assert scheduler.pool_sizes() == {"prompt": 2, "token": 1, "mixed": 0, "parked": 0}

    def test_baseline_cluster_all_mixed(self, baseline_cluster):
        _, scheduler, _ = baseline_cluster
        assert scheduler.pool_sizes() == {"prompt": 0, "token": 0, "mixed": 2, "parked": 0}

    def test_machines_by_home_role(self, split_cluster):
        _, scheduler, _ = split_cluster
        assert len(scheduler.machines_by_home_role(MachineRole.PROMPT)) == 2
        assert len(scheduler.machines_by_home_role(MachineRole.TOKEN)) == 1


class TestRouting:
    def test_split_routing_assigns_both_machines(self, split_cluster):
        _, scheduler, machines = split_cluster
        decision = scheduler.submit(_request(0))
        assert decision.prompt_machine.home_role is MachineRole.PROMPT
        assert decision.token_machine.home_role is MachineRole.TOKEN
        assert decision.token_machine.in_transfer  # transfer expected up-front

    def test_jsq_prefers_least_loaded_prompt_machine(self, split_cluster):
        _, scheduler, machines = split_cluster
        machines[0].enqueue_prompt(_request(100, prompt=2000))
        decision = scheduler.submit(_request(0, prompt=100))
        assert decision.prompt_machine is machines[1]

    def test_baseline_routing_uses_single_machine(self, baseline_cluster):
        _, scheduler, _ = baseline_cluster
        decision = scheduler.submit(_request(0))
        assert decision.prompt_machine is decision.token_machine

    def test_baseline_jsq_balances_by_total_pending_tokens(self, baseline_cluster):
        _, scheduler, machines = baseline_cluster
        first = scheduler.submit(_request(0, prompt=4000, output=2))
        second = scheduler.submit(_request(1, prompt=100, output=2))
        assert first.prompt_machine is not second.prompt_machine

    def test_single_token_requests_do_not_expect_transfer(self, split_cluster):
        _, scheduler, machines = split_cluster
        scheduler.submit(_request(0, output=1))
        token_machine = scheduler.machines_by_home_role(MachineRole.TOKEN)[0]
        assert not token_machine.in_transfer


class TestMixedPoolOverflow:
    def test_prompt_overload_pulls_token_machine_into_mixed_pool(self, split_cluster):
        _, scheduler, machines = split_cluster
        # Saturate both prompt machines beyond the queue threshold.
        for i in range(6):
            scheduler.submit(_request(i, prompt=2000, output=2))
        before = scheduler.pool_sizes()["mixed"]
        decision = scheduler.submit(_request(99, prompt=2000, output=2))
        after = scheduler.pool_sizes()["mixed"]
        assert decision.prompt_machine.home_role is MachineRole.TOKEN
        assert after == before + 1
        assert scheduler.pool_switches >= 1

    def test_machine_returns_home_after_foreign_work_drains(self, split_cluster):
        engine, scheduler, machines = split_cluster
        for i in range(7):
            scheduler.submit(_request(i, prompt=2000, output=2))
        assert scheduler.pool_sizes()["mixed"] >= 1
        engine.run()
        # All requests complete; every machine is back in its home pool.
        assert scheduler.pool_sizes() == {"prompt": 2, "token": 1, "mixed": 0, "parked": 0}
        assert all(m.role is m.home_role for m in machines)


class TestLifecycleCallbacks:
    def test_requests_complete_and_are_recorded(self, split_cluster):
        engine, scheduler, _ = split_cluster
        requests = [_request(i, prompt=300, output=4, arrival=0.0) for i in range(4)]
        for request in requests:
            scheduler.submit(request)
        engine.run()
        assert all(r.is_complete for r in requests)
        assert sorted(scheduler.completed_request_ids) == [0, 1, 2, 3]
        assert list(scheduler.outstanding_requests()) == []

    def test_kv_transfer_recorded_between_machines(self, split_cluster):
        engine, scheduler, _ = split_cluster
        request = _request(0, prompt=1500, output=4)
        scheduler.submit(request)
        engine.run()
        assert request.kv_transfer_start is not None
        assert request.kv_transfer_end is not None
        assert request.kv_transfer_end >= request.kv_transfer_start
        assert request.prompt_machine.startswith("prompt")
        assert request.is_complete

    def test_single_token_request_completes_on_prompt_machine(self, split_cluster):
        engine, scheduler, _ = split_cluster
        request = _request(0, prompt=500, output=1)
        scheduler.submit(request)
        engine.run()
        assert request.is_complete
        assert request.kv_transfer_start is None

    def test_baseline_requests_never_transfer(self, baseline_cluster):
        engine, scheduler, _ = baseline_cluster
        request = _request(0, prompt=500, output=4)
        scheduler.submit(request)
        engine.run()
        assert request.is_complete
        assert request.kv_transfer_start is None

    def test_second_token_delayed_by_transfer_in_split_cluster(self, split_cluster, baseline_cluster):
        split_engine, split_scheduler, _ = split_cluster
        base_engine, base_scheduler, _ = baseline_cluster
        split_request = _request(0, prompt=1024, output=3)
        base_request = _request(0, prompt=1024, output=3)
        split_scheduler.submit(split_request)
        base_scheduler.submit(base_request)
        split_engine.run()
        base_engine.run()
        split_gap = split_request.token_times[1] - split_request.token_times[0]
        base_gap = base_request.token_times[1] - base_request.token_times[0]
        assert split_gap > base_gap

    def test_transfer_model_cached_per_machine_pair(self, split_cluster):
        engine, scheduler, _ = split_cluster
        for i in range(3):
            scheduler.submit(_request(i, prompt=800, output=3))
        engine.run()
        assert len(scheduler._transfer_models) == 1


class TestErrors:
    def test_baseline_with_no_machines_raises_on_submit(self):
        engine = SimulationEngine()
        scheduler = ClusterScheduler(engine=engine, machines=[], model=LLAMA2_70B, split=False)
        with pytest.raises(RuntimeError, match="no machines"):
            scheduler.submit(_request(0))


class TestInlinedProbeMirrors:
    """The open-coded JSQ probe bodies must track the canonical properties.

    ``prompt_queue_load``/``decode_queue_load`` and the pool's
    ``least_prompt_loaded``/``least_decode_loaded`` loops inline
    ``pending_prompt_tokens``/``pending_decode_tokens`` for speed; this pins
    the mirrors to the properties on machines driven through real load so a
    future accounting change cannot silently diverge the routing probes.
    """

    def test_probe_functions_match_properties_under_load(self):
        from repro.core.cluster import ClusterSimulation
        from repro.core.cluster_scheduler import decode_queue_load, prompt_queue_load
        from repro.core.designs import splitwise_hh
        from repro.workload.generator import generate_trace

        simulation = ClusterSimulation(splitwise_hh(2, 2))
        trace = generate_trace("conversation", rate_rps=30.0, duration_s=8.0, seed=21)
        engine = simulation.engine
        live = [Request(descriptor=d) for d in trace]
        for request in live:
            engine.schedule_at(
                request.arrival_time, lambda r=request: simulation.scheduler.submit(r), priority=2
            )
        steps = 0
        while engine.step():
            steps += 1
            if steps % 11 == 0:
                for machine in simulation.machines:
                    assert prompt_queue_load(machine) == machine.pending_prompt_tokens
                    assert decode_queue_load(machine) == machine.pending_decode_tokens
        assert steps > 0

    def test_probes_read_a_fast_forwarding_machine_without_committing(self):
        from repro.core.cluster_scheduler import decode_queue_load

        engine = SimulationEngine()
        machine = SimulatedMachine(
            "t0", DGX_H100, LLAMA2_70B, engine, role=MachineRole.TOKEN, debug_accounting=False
        )
        requests = []
        for index, output in enumerate((12, 16, 20)):
            request = _request(index, prompt=200, output=output)
            request.start_prompt(0.0, "p")
            request.finish_prompt(0.0)
            machine.admit_token_request(request)
            requests.append(request)
        pool = MachinePool(name="token", machines=[machine])
        engine.run(until=0.2)  # mid-run, several boundaries past the last commit
        assert machine._ff_boundaries is not None
        before = [list(request.token_times) for request in requests]
        load = decode_queue_load(machine)
        assert pool.least_decode_loaded() is machine
        assert [list(request.token_times) for request in requests] == before
        assert machine.pending_decode_tokens == load  # commits the passed boundaries
        assert [len(request.token_times) for request in requests] != [len(times) for times in before]

    def test_specialized_pool_selection_matches_generic(self):
        from repro.core.cluster_scheduler import decode_queue_load, prompt_queue_load

        engine = SimulationEngine()
        metrics = MetricsCollector()
        pool = MachinePool(name="token")
        for index in range(4):
            machine = _machine(f"t{index}", engine, MachineRole.TOKEN, metrics)
            for r in range(index * 2):
                request = _request(100 * index + r, output=6)
                request.phase = RequestPhase.TOKEN_QUEUED
                machine.admit_token_request(request)
            pool.add(machine)
        generic_decode = min(pool.machines, key=lambda m: (decode_queue_load(m), m.name))
        assert pool.least_decode_loaded() is generic_decode
        generic_prompt = min(pool.machines, key=lambda m: (prompt_queue_load(m), m.name))
        assert pool.least_prompt_loaded() is generic_prompt


class TestPoolPlacement:
    """Park/unpark, retarget, fail/recover and evacuate keep each pool's order."""

    def test_pool_members_and_order_through_every_placement(self):
        engine = SimulationEngine()
        metrics = MetricsCollector()
        machines = [_machine(f"prompt-{i}", engine, MachineRole.PROMPT, metrics) for i in range(3)]
        machines += [_machine(f"token-{i}", engine, MachineRole.TOKEN, metrics) for i in range(3)]
        scheduler = ClusterScheduler(engine=engine, machines=machines, model=LLAMA2_70B, split=True)
        by_name = {machine.name: machine for machine in machines}

        def pools():
            return tuple(
                [machine.name for machine in pool]
                for pool in (scheduler.prompt_pool, scheduler.token_pool, scheduler.mixed_pool, scheduler.parked_pool)
            )

        def borrow(name, new_home, request_id):
            # Work foreign to the new home pulls the machine into the mixed pool.
            by_name[name].enqueue_prompt(_request(request_id, prompt=256, output=1))
            scheduler.retarget_home(by_name[name], new_home)

        scheduler.park_machine(by_name["prompt-1"])
        scheduler.park_machine(by_name["token-0"])
        assert pools() == (["prompt-0", "prompt-2"], ["token-1", "token-2"], [], ["prompt-1", "token-0"])
        scheduler.unpark_machine(by_name["prompt-1"])
        scheduler.unpark_machine(by_name["token-0"])
        assert pools() == (["prompt-0", "prompt-2", "prompt-1"], ["token-1", "token-2", "token-0"], [], [])
        scheduler.retarget_home(by_name["token-1"], MachineRole.PROMPT)
        assert pools() == (["prompt-0", "prompt-2", "prompt-1", "token-1"], ["token-2", "token-0"], [], [])
        borrow("prompt-2", MachineRole.TOKEN, 0)
        assert pools() == (["prompt-0", "prompt-1", "token-1"], ["token-2", "token-0"], ["prompt-2"], [])
        assert by_name["prompt-2"].role is MachineRole.MIXED
        engine.run()
        assert pools() == (["prompt-0", "prompt-1", "token-1"], ["token-2", "token-0", "prompt-2"], [], [])
        assert by_name["prompt-2"].role is MachineRole.TOKEN

        scheduler.fail_machine("prompt-0")
        assert pools() == (["prompt-1", "token-1"], ["token-2", "token-0", "prompt-2"], [], [])
        scheduler.recover_machine("prompt-0")
        assert pools() == (["prompt-1", "token-1", "prompt-0"], ["token-2", "token-0", "prompt-2"], [], [])
        assert by_name["prompt-0"].role is MachineRole.PROMPT

        scheduler.fail_machine("token-2")
        borrow("prompt-1", MachineRole.TOKEN, 1)
        scheduler.park_machine(by_name["token-0"])
        assert pools() == (["token-1", "prompt-0"], ["prompt-2"], ["prompt-1"], ["token-0"])
        scheduler.evacuate()
        assert pools() == ([], [], [], [])
        assert [machine.name for machine in scheduler.failed_machines] == [
            "token-2", "token-1", "prompt-0", "prompt-2", "prompt-1", "token-0",
        ]
        scheduler.recover_all()
        assert pools() == (["token-1", "prompt-0"], ["token-2", "prompt-2", "prompt-1", "token-0"], [], [])
        assert all(machine.role is machine.home_role for machine in machines)


class TestFailedMachinePlacement:
    """A failed machine can be neither parked nor re-purposed until it recovers."""

    @staticmethod
    def _failed_token_0():
        simulation = ClusterSimulation(splitwise_hh(2, 2))
        simulation.scheduler.fail_machine("token-0")
        return simulation, simulation.scheduler.find_machine("token-0")

    @staticmethod
    def _placements(scheduler):
        pools = (scheduler.prompt_pool, scheduler.token_pool, scheduler.mixed_pool,
                 scheduler.parked_pool, scheduler.failed_machines)
        return (
            [[machine.name for machine in pool] for pool in pools],
            [(machine.role, machine.home_role) for machine in scheduler.machines],
        )

    @staticmethod
    def _drains(simulation):
        trace = generate_trace("conversation", rate_rps=4.0, duration_s=10.0, seed=0)
        return simulation.run(trace).completion_rate == 1.0

    def test_retarget_of_a_failed_machine_raises(self):
        simulation, token_0 = self._failed_token_0()
        before = self._placements(simulation.scheduler)
        with pytest.raises(ValueError, match="token-0 has failed"):
            simulation.scheduler.retarget_home(token_0, MachineRole.PROMPT)
        assert self._placements(simulation.scheduler) == before
        assert self._drains(simulation)

    def test_park_of_a_failed_machine_raises_and_unpark_leaves_it_failed(self):
        simulation, token_0 = self._failed_token_0()
        before = self._placements(simulation.scheduler)
        with pytest.raises(ValueError, match="token-0 has failed"):
            simulation.scheduler.park_machine(token_0)
        simulation.scheduler.unpark_machine(token_0)
        assert self._placements(simulation.scheduler) == before
        assert self._drains(simulation)

    def test_park_then_recover_places_the_machine_once(self):
        simulation, token_0 = self._failed_token_0()
        scheduler = simulation.scheduler
        with pytest.raises(ValueError, match="token-0 has failed"):
            scheduler.park_machine(token_0)
        scheduler.recover_machine(token_0)
        pools, _roles = self._placements(scheduler)
        roster = [machine.name for machine in scheduler.machines]
        assert roster == ["prompt-0", "prompt-1", "token-0", "token-1"]
        assert pools == [["prompt-0", "prompt-1"], ["token-1", "token-0"], [], [], []]
        assert self._drains(simulation)


class TestPlacementRecord:
    """The roster, the failure-ordered failed pool, and the readers of "routable"."""

    @staticmethod
    def _cluster():
        engine = SimulationEngine()
        metrics = MetricsCollector()
        machines = [_machine(f"prompt-{i}", engine, MachineRole.PROMPT, metrics) for i in range(2)]
        machines += [_machine(f"token-{i}", engine, MachineRole.TOKEN, metrics) for i in range(2)]
        scheduler = ClusterScheduler(engine=engine, machines=machines, model=LLAMA2_70B, split=True)
        return scheduler, machines

    @staticmethod
    def _names(machines):
        return [machine.name for machine in machines]

    def test_roster_keeps_build_order_through_failure_parking_and_evacuation(self):
        scheduler, machines = self._cluster()
        roster = tuple(machines)
        scheduler.fail_machine("token-0")
        scheduler.park_machine(machines[1])
        assert scheduler.machines == roster
        scheduler.evacuate()
        assert scheduler.machines == roster
        assert all(scheduler.find_machine(machine.name) is machine for machine in machines)
        scheduler.recover_all()
        assert scheduler.machines == roster

    def test_failed_machines_is_a_read_only_view_in_failure_order(self):
        scheduler, machines = self._cluster()
        for name in ("token-1", "prompt-0", "token-0"):
            scheduler.fail_machine(name)
        failed = scheduler.failed_machines
        assert self._names(failed) == ["token-1", "prompt-0", "token-0"]
        with pytest.raises(AttributeError):
            scheduler.failed_machines = ()
        with pytest.raises(TypeError):
            failed[0] = machines[1]
        scheduler.recover_machine("prompt-0")
        assert self._names(failed) == ["token-1", "prompt-0", "token-0"]
        assert self._names(scheduler.failed_machines) == ["token-1", "token-0"]

    def test_recover_all_follows_failure_order_and_notifies_each_machine(self):
        scheduler, _ = self._cluster()
        failed: list[str] = []
        recovered: list[str] = []
        scheduler.on_machine_failed = lambda machine: failed.append(machine.name)
        scheduler.on_machine_recovered = lambda machine: recovered.append(machine.name)
        for name in ("token-1", "prompt-0", "token-0"):
            scheduler.fail_machine(name)
        assert self._names(scheduler.recover_all()) == ["token-1", "prompt-0", "token-0"]
        assert failed == recovered == ["token-1", "prompt-0", "token-0"]
        assert scheduler.failed_machines == ()
        assert scheduler.recover_all() == []
        assert recovered == ["token-1", "prompt-0", "token-0"]

    def test_evacuate_discovers_requests_pool_by_pool_in_pool_order(self):
        scheduler, machines = self._cluster()
        # Parking and unparking prompt-0 puts it behind prompt-1 in the
        # prompt pool, so pool order and roster order differ.
        scheduler.park_machine(machines[0])
        scheduler.unpark_machine(machines[0])
        for request_id in range(4):
            scheduler.submit(_request(request_id))
        assert [request.request_id for request in machines[0].pending_prompts] == [0, 2]
        assert [request.request_id for request in machines[1].pending_prompts] == [1, 3]
        evacuated = scheduler.evacuate()
        assert [request.request_id for request in evacuated] == [1, 3, 0, 2]
        assert all(request.phase is RequestPhase.QUEUED for request in evacuated)
        assert self._names(scheduler.failed_machines) == ["prompt-1", "prompt-0", "token-0", "token-1"]

    def test_count_home_machines_counts_routable_machines_only(self):
        scheduler, machines = self._cluster()
        scheduler.fail_machine("prompt-0")
        scheduler.park_machine(machines[3])
        assert scheduler.count_home_machines(MachineRole.PROMPT) == 1
        assert scheduler.count_home_machines(MachineRole.TOKEN) == 1
        assert self._names(scheduler.machines_by_home_role(MachineRole.PROMPT)) == ["prompt-0", "prompt-1"]
        assert self._names(scheduler.machines_by_home_role(MachineRole.TOKEN)) == ["token-0", "token-1"]
        assert scheduler.pool_sizes() == {"prompt": 1, "token": 1, "mixed": 0, "parked": 1}

    def test_repeated_transitions_change_no_placement(self):
        scheduler, machines = self._cluster()
        scheduler.park_machine(machines[0])
        scheduler.unpark_machine(machines[0])
        scheduler.fail_machine("token-0")

        def placements():
            pools = (scheduler.prompt_pool, scheduler.token_pool, scheduler.mixed_pool,
                     scheduler.parked_pool, scheduler.failed_machines)
            return [self._names(pool) for pool in pools], [machine.role for machine in machines]

        before = placements()
        switches = scheduler.pool_switches
        assert scheduler.fail_machine("token-0") == []
        assert scheduler.recover_machine("prompt-1") is None
        scheduler.unpark_machine(machines[0])
        scheduler.unpark_machine(machines[2])
        scheduler.retarget_home(machines[0], MachineRole.PROMPT)
        assert placements() == before
        assert before[0] == [["prompt-1", "prompt-0"], ["token-1"], [], [], ["token-0"]]
        assert scheduler.pool_switches == switches
