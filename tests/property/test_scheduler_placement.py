"""Stateful property test of the cluster scheduler's placement record.

Hypothesis drives a Splitwise-HH cluster through the public calls in any
order: arrivals, engine steps, machine failure and recovery, parking,
re-purposing, whole-cluster evacuation and deadline cancellation.  After
every step each machine sits in exactly one pool, the failed pool holds
exactly the failed machines, the mixed role marks exactly the mixed pool,
and a call that raises has changed nothing.  At teardown the run drains and
the census closes.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.cluster import ClusterSimulation
from repro.core.designs import splitwise_hh
from repro.core.machine import MachineRole
from repro.metrics.collectors import census
from repro.simulation.request import Request
from repro.workload.trace import RequestDescriptor

NAMES = ("prompt-0", "prompt-1", "token-0", "token-1")


class SchedulerPlacement(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.simulation = ClusterSimulation(splitwise_hh(2, 2))
        self.scheduler = self.simulation.scheduler
        self.engine = self.simulation.engine
        self.requests: list[Request] = []

    # -- helpers -------------------------------------------------------------------------

    def _pools(self):
        scheduler = self.scheduler
        return (scheduler.prompt_pool, scheduler.token_pool, scheduler.mixed_pool,
                scheduler.parked_pool, scheduler.failed_machines)

    def _snapshot(self):
        return (
            [[machine.name for machine in pool] for pool in self._pools()],
            [(machine.role, machine.home_role) for machine in self.scheduler.machines],
        )

    def _last_routable(self, machine) -> bool:
        """Whether ``machine`` is the one routable machine left."""
        pools = (self.scheduler.prompt_pool, self.scheduler.token_pool, self.scheduler.mixed_pool)
        return sum(len(pool) for pool in pools) == 1 and any(machine in pool for pool in pools)

    def _raises(self, call, *args) -> bool:
        """Make ``call``; when it raises ``ValueError``, check that nothing changed."""
        before = self._snapshot()
        try:
            call(*args)
        except ValueError:
            assert self._snapshot() == before
            return True
        return False

    # -- rules ---------------------------------------------------------------------------

    @rule(prompt=st.integers(16, 2048), output=st.integers(1, 48))
    def arrive(self, prompt, output):
        request = Request(descriptor=RequestDescriptor(
            request_id=len(self.requests), arrival_time_s=self.engine.now,
            prompt_tokens=prompt, output_tokens=output,
        ))
        self.requests.append(request)
        self.scheduler.submit(request)

    @rule(events=st.integers(1, 40))
    def step(self, events):
        for _ in range(events):
            if not self.engine.step():
                break

    @rule(name=st.sampled_from(NAMES))
    def fail(self, name):
        machine = self.scheduler.find_machine(name)
        # Keep one routable machine: restarted work must have somewhere to go.
        if self._last_routable(machine):
            return
        self.scheduler.fail_machine(machine)
        assert machine.failed

    @rule(name=st.sampled_from(NAMES))
    def recover(self, name):
        machine = self.scheduler.find_machine(name)
        self.scheduler.recover_machine(machine)
        assert not machine.failed

    @rule(name=st.sampled_from(NAMES))
    def park(self, name):
        machine = self.scheduler.find_machine(name)
        if self._last_routable(machine):
            return
        failed = machine.failed
        raised = self._raises(self.scheduler.park_machine, machine)
        assert raised or not failed
        if not raised:
            assert machine in self.scheduler.parked_pool

    @rule(name=st.sampled_from(NAMES))
    def unpark(self, name):
        self.scheduler.unpark_machine(self.scheduler.find_machine(name))

    @rule(name=st.sampled_from(NAMES), role=st.sampled_from(list(MachineRole)))
    def retarget_home(self, name, role):
        machine = self.scheduler.find_machine(name)
        failed = machine.failed
        raised = self._raises(self.scheduler.retarget_home, machine, role)
        assert raised == (failed or role is MachineRole.MIXED)

    @rule()
    def evacuate(self):
        evacuated = self.scheduler.evacuate()
        assert len(self.scheduler.failed_machines) == len(NAMES)
        self.scheduler.recover_all()
        for request in evacuated:
            self.scheduler.submit(request)

    @rule(pick=st.integers(min_value=0))
    def cancel_and_expire(self, pick):
        in_flight = [r for r in self.requests if not r.is_complete and not r.expired]
        if not in_flight:
            return
        request = in_flight[pick % len(in_flight)]
        self.scheduler.cancel_request(request)
        request.expire(self.engine.now)

    # -- invariants ----------------------------------------------------------------------

    @invariant()
    def one_placement_per_machine(self):
        scheduler = self.scheduler
        assert [machine.name for machine in scheduler.machines] == list(NAMES)
        for machine in scheduler.machines:
            assert sum(machine in pool for pool in self._pools()) == 1, machine.name
            assert (machine in scheduler.failed_machines) == machine.failed, machine.name
            assert (machine.role is MachineRole.MIXED) == (machine in scheduler.mixed_pool), machine.name

    def teardown(self) -> None:
        self.engine.run()
        counts = census(self.requests)
        assert counts["submitted"] == len(self.requests)


TestSchedulerPlacement = SchedulerPlacement.TestCase
TestSchedulerPlacement.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
