"""The cluster-level scheduler (CLS) — §IV-A of the paper.

The CLS owns machine-pool management and request routing:

* **Pools.**  Machines are assigned a home pool (prompt or token).  Under
  pressure a machine is temporarily pulled into the *mixed pool*, where it
  also accepts work of the opposite kind (batched with mixed continuous
  batching); it returns to its home pool once the foreign work drains.
* **Routing.**  Each arriving request is simultaneously assigned a prompt
  machine and a token machine using Join-the-Shortest-Queue, where queue
  length is measured in pending tokens.  Assigning both up front lets the
  KV-cache transfer overlap with the prompt computation.
* **Overflow.**  If every machine of the needed kind is beyond its queue
  threshold, the CLS looks in the mixed pool, and failing that pulls a
  machine from the opposite pool into the mixed pool.

For non-split (baseline) clusters the same scheduler routes each request to a
single machine (JSQ over total pending tokens) and no KV transfer happens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.kv_transfer import KVTransferModel
from repro.core.machine import AccountingError, MachineRole, SimulatedMachine
from repro.hardware.interconnect import infiniband_for
from repro.models.llm import ModelSpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event
from repro.simulation.request import Request, RequestPhase

#: A prompt pool machine whose queue exceeds this many pending prompt tokens
#: is considered overloaded, triggering mixed-pool overflow.
DEFAULT_PROMPT_QUEUE_THRESHOLD_TOKENS = 4096

#: A token pool machine whose pending decode work exceeds this many tokens is
#: considered overloaded, triggering mixed-pool overflow.
DEFAULT_DECODE_QUEUE_THRESHOLD_TOKENS = 16384

#: Minimum KV-cache headroom a token machine must have before accepting more
#: work without being considered overloaded.
MEMORY_HEADROOM_FRACTION = 0.05


# Precomputed JSQ probe key functions.  Routing probes run for every arrival
# — under burst load that is tens of thousands of calls — and the previous
# inline lambdas allocated a fresh closure per routed request, which showed
# up in the top-20 profile.  Module-level functions are created once and
# shared by the scheduler, the autoscaler, and the fleet router.


def prompt_queue_load(machine: SimulatedMachine) -> int:
    """Pending prompt tokens (JSQ key for prompt routing).

    Open-coded mirror of ``SimulatedMachine.pending_prompt_tokens`` — the
    probe runs per machine per arrival, and skipping the property layer
    measurably trims the routing hot path.
    """
    if machine.debug_accounting:
        machine.verify_accounting()
    return machine._queued_prompt_tokens + machine._running_prompt_tokens


def decode_queue_load(machine: SimulatedMachine) -> int:
    """Pending decode tokens (JSQ key for token routing).

    Open-coded mirror of ``SimulatedMachine.pending_decode_tokens``, one call
    layer shallower and without its commit: a fast-forwarding machine's
    members each owe one token fewer per boundary passed since the last
    commit.  Under debug accounting the property (which commits and
    recounts) must then report the same load.
    """
    load = machine._pool_decode_tokens + machine._expected_decode_tokens
    if machine._ff_boundaries is not None:
        load -= machine._ff_uncommitted() * len(machine._running_plan.token_requests)
    if machine.debug_accounting:
        _check_lazy_decode_load(machine, load)
    return load


def _check_lazy_decode_load(machine: SimulatedMachine, load: int) -> None:
    """Raise unless a probe's uncommitted read equals the committed, recounted load."""
    committed = machine.pending_decode_tokens
    if load != committed:
        raise AccountingError(f"machine {machine.name}: probe read decode load {load}, committed {committed}")


def total_queue_load(machine: SimulatedMachine) -> int:
    """Total pending tokens (JSQ key for unsplit routing and donor picks)."""
    return prompt_queue_load(machine) + decode_queue_load(machine)


@dataclass
class MachinePool:
    """A named collection of machines with JSQ selection helpers.

    Membership is mirrored in a set so ``in`` checks and duplicate-free adds
    are O(1) instead of scanning the member list; the list is kept for
    deterministic iteration order.

    Attributes:
        name: Pool name (``"prompt"``, ``"token"``, ``"mixed"``, ``"parked"``
            or ``"failed"``).
        machines: Member machines (insertion-ordered).
    """

    name: str
    machines: list[SimulatedMachine] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._members: set[SimulatedMachine] = set(self.machines)

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self):
        return iter(self.machines)

    def add(self, machine: SimulatedMachine) -> None:
        """Add a machine if not already a member (O(1) membership check)."""
        if machine not in self._members:
            self._members.add(machine)
            self.machines.append(machine)

    def remove(self, machine: SimulatedMachine) -> None:
        """Remove a machine if present (O(1) membership check)."""
        if machine in self._members:
            self._members.discard(machine)
            self.machines.remove(machine)

    def least_loaded(self, load: Callable[[SimulatedMachine], float]) -> SimulatedMachine | None:
        """The member machine minimizing ``load`` (ties broken by name).

        Open-coded rather than ``min(..., key=...)``: JSQ probes run this for
        every routed request, and skipping the per-machine key-tuple
        allocation measurably trims the routing hot path.  The two standard
        probes dispatch to fully inlined loops (no per-machine call at all).
        """
        if load is prompt_queue_load:
            return self.least_prompt_loaded()
        if load is decode_queue_load:
            return self.least_decode_loaded()
        best: SimulatedMachine | None = None
        best_load: float | None = None
        for machine in self.machines:
            machine_load = load(machine)
            if (
                best_load is None
                or machine_load < best_load
                or (machine_load == best_load and machine.name < best.name)
            ):
                best = machine
                best_load = machine_load
        return best

    def least_prompt_loaded(self) -> SimulatedMachine | None:
        """:meth:`least_loaded` with :func:`prompt_queue_load` fully inlined."""
        best: SimulatedMachine | None = None
        best_load: int | None = None
        for machine in self.machines:
            if machine.debug_accounting:
                machine.verify_accounting()
            machine_load = machine._queued_prompt_tokens + machine._running_prompt_tokens
            if (
                best_load is None
                or machine_load < best_load
                or (machine_load == best_load and machine.name < best.name)
            ):
                best = machine
                best_load = machine_load
        return best

    def least_decode_loaded(self) -> SimulatedMachine | None:
        """:meth:`least_loaded` with :func:`decode_queue_load` fully inlined."""
        best: SimulatedMachine | None = None
        best_load: int | None = None
        for machine in self.machines:
            machine_load = machine._pool_decode_tokens + machine._expected_decode_tokens
            if machine._ff_boundaries is not None:
                machine_load -= machine._ff_uncommitted() * len(machine._running_plan.token_requests)
            if machine.debug_accounting:
                _check_lazy_decode_load(machine, machine_load)
            if (
                best_load is None
                or machine_load < best_load
                or (machine_load == best_load and machine.name < best.name)
            ):
                best = machine
                best_load = machine_load
        return best


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one request.

    Attributes:
        prompt_machine: Machine that will run the prompt phase.
        token_machine: Machine that will run the token phase (same machine
            for non-split clusters).
    """

    prompt_machine: SimulatedMachine
    token_machine: SimulatedMachine


class ClusterScheduler:
    """Cluster-level scheduler for split or baseline clusters.

    Each machine has one placement: a routable pool (prompt, token or
    mixed), the parked pool or the failed pool.  :meth:`_move` makes every
    change of placement, so no machine sits in two pools, and a failed one
    can be neither parked, re-purposed nor routed to until it recovers.

    Args:
        engine: The simulation engine.
        machines: All machines in the cluster, in build order (the roster).
        model: The LLM being served (used to size KV-cache transfers).
        split: ``True`` for Splitwise clusters (separate prompt/token pools),
            ``False`` for baseline clusters (every machine runs both phases).
        prompt_queue_threshold: Pending prompt tokens beyond which a prompt
            machine is considered overloaded.
        decode_queue_threshold: Pending decode tokens beyond which a token
            machine is considered overloaded.
        routing: Request routing policy — ``"jsq"`` (the paper's
            Join-the-Shortest-Queue, default), ``"round-robin"``, or
            ``"random"`` (seeded with 0).  The alternatives exist for
            ablation studies.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        machines: Sequence[SimulatedMachine],
        model: ModelSpec,
        split: bool = True,
        prompt_queue_threshold: int = DEFAULT_PROMPT_QUEUE_THRESHOLD_TOKENS,
        decode_queue_threshold: int = DEFAULT_DECODE_QUEUE_THRESHOLD_TOKENS,
        routing: str = "jsq",
    ) -> None:
        if routing not in ("jsq", "round-robin", "random"):
            raise ValueError(f"routing must be 'jsq', 'round-robin' or 'random', got {routing!r}")
        self.engine = engine
        self.model = model
        self.split = split
        self.prompt_queue_threshold = prompt_queue_threshold
        self.decode_queue_threshold = decode_queue_threshold
        self.routing = routing
        self._routing_rng = random.Random(0)
        if engine.sanitizer is not None:
            # Routing randomness is drawn in event order, inside callbacks.
            engine.sanitizer.register_stream("routing", run_phase=True)
        self._round_robin_counters: dict[str, int] = {"prompt": 0, "token": 0, "mixed": 0}

        #: Every machine of the cluster in build order, failed ones included.
        self.machines: tuple[SimulatedMachine, ...] = tuple(machines)
        self.prompt_pool = MachinePool("prompt")
        self.token_pool = MachinePool("token")
        self.mixed_pool = MachinePool("mixed")
        #: Machines withdrawn from routing by the autoscaler (they can still
        #: fail, but the router never selects from here).
        self.parked_pool = MachinePool("parked")
        #: Failed machines in failure order; the router never selects from here.
        self.failed_pool = MachinePool("failed")
        #: machine -> the one pool it sits in (its placement).
        self._placement: dict[SimulatedMachine, MachinePool] = {}
        #: request_id -> RoutingDecision; the index that lets withdrawal and
        #: outstanding-request lookup go straight to the two relevant machines
        #: instead of scanning every queue in the cluster.
        self._assignments: dict[int, RoutingDecision] = {}
        #: request_id -> (request, completion event) for every KV-cache
        #: transfer in flight.  The transfer window is the one lifecycle
        #: stretch where a request sits in no machine queue, so evacuation
        #: needs this registry to find (and restart) these requests, and
        #: withdrawal to tombstone their completion events.
        self._transfers: dict[int, tuple[Request, Event]] = {}
        self._transfer_models: dict[tuple[str, str], KVTransferModel] = {}
        #: Visible-latency multiplier applied to newly scheduled KV transfers
        #: (fault plane; 1.0 = healthy interconnect).
        self._kv_degradation = 1.0
        #: Ids of the requests completed here, in completion order.  Ids, not
        #: requests: the scheduler and its machines reference each other
        #: (completion callbacks), so whatever they hold outlives a dropped
        #: result until a full garbage collection.
        self.completed_request_ids: list[int] = []
        self.restarted_requests: list[Request] = []
        self.pool_switches = 0
        #: Invoked after a machine fails and moves to the failed pool (set by the
        #: autoscaler so its park-interval accounting can observe failures).
        self.on_machine_failed: Callable[[SimulatedMachine], None] | None = None
        #: Invoked after a failed machine recovers and rejoins its home pool.
        self.on_machine_recovered: Callable[[SimulatedMachine], None] | None = None
        #: Invoked after a request completes on this cluster (set by the
        #: fleet router so its outstanding counts and rolling latency windows
        #: track cluster health without scanning queues).
        self.on_request_complete: Callable[[Request], None] | None = None
        #: When set (fleet request-lifecycle layer), failed requests are reset
        #: and handed to this callable instead of being resubmitted locally —
        #: the lifecycle layer decides whether (and where) to retry them.
        self.restart_handler: Callable[[Request], None] | None = None
        #: When set (fleet), the failure of the last live machine evacuates
        #: the cluster and hands every displaced request to this callable:
        #: nothing inside the cluster can take them.  Without it, a cluster
        #: must never lose every machine (see ``ClusterSimulation.prepare``).
        self.evacuation_handler: Callable[[list[Request]], None] | None = None

        for machine in self.machines:
            machine.on_prompt_complete = self._handle_prompt_complete
            machine.on_request_complete = self._handle_request_complete
            machine.on_iteration_complete = self._handle_iteration_complete
            self._move(machine, self._home_pool(machine))

    # -- public API -----------------------------------------------------------------

    @property
    def failed_machines(self) -> tuple[SimulatedMachine, ...]:
        """The failed machines in failure order (the order :meth:`recover_all` follows)."""
        return tuple(self.failed_pool)

    def submit(self, request: Request) -> RoutingDecision:
        """Route a newly arrived request and enqueue its prompt phase."""
        if self.split:
            decision = self._route_split(request)
        else:
            decision = self._route_unsplit(request)
        self._assignments[request.request_id] = decision
        if decision.token_machine is not decision.prompt_machine and request.output_tokens > 1:
            decision.token_machine.expect_transfer(request)
        decision.prompt_machine.enqueue_prompt(request)
        return decision

    # -- routing ---------------------------------------------------------------------

    def _route_unsplit(self, request: Request) -> RoutingDecision:
        del request
        machine = self._pick("mixed", self.mixed_pool, total_queue_load)
        if machine is None:
            raise RuntimeError("baseline cluster has no machines")
        return RoutingDecision(prompt_machine=machine, token_machine=machine)

    def _pick(
        self, pool_name: str, pool: MachinePool, load: Callable[[SimulatedMachine], float]
    ) -> SimulatedMachine | None:
        """Select a machine from a pool according to the routing policy."""
        if len(pool) == 0:
            return None
        if self.routing == "jsq":
            return pool.least_loaded(load)
        if self.routing == "random":
            sanitizer = self.engine.sanitizer
            if sanitizer is not None:
                sanitizer.note_draw("routing")
            return self._routing_rng.choice(pool.machines)
        index = self._round_robin_counters[pool_name] % len(pool)
        self._round_robin_counters[pool_name] += 1
        return pool.machines[index]

    def _route_split(self, request: Request) -> RoutingDecision:
        del request
        prompt_machine = self._select_prompt_machine()
        token_machine = self._select_token_machine()
        return RoutingDecision(prompt_machine=prompt_machine, token_machine=token_machine)

    def _select_prompt_machine(self) -> SimulatedMachine:
        best = self._pick("prompt", self.prompt_pool, prompt_queue_load)
        if best is not None and best.pending_prompt_tokens <= self.prompt_queue_threshold:
            return best
        # Prompt pool is overloaded: look for help in the mixed pool, then pull
        # a token-home machine into the mixed pool.
        mixed = self._least_loaded_mixed(prompt_queue_load)
        if mixed is not None and mixed.pending_prompt_tokens <= self.prompt_queue_threshold:
            return mixed
        donor = self.token_pool.least_loaded(total_queue_load)
        if donor is not None:
            self._move_to_mixed(donor)
            return donor
        if best is not None:
            return best
        if mixed is not None:
            return mixed
        raise RuntimeError("cluster has no machine able to run a prompt phase")

    def _select_token_machine(self) -> SimulatedMachine:
        best = self._pick("token", self.token_pool, decode_queue_load)
        if best is not None and self._token_machine_healthy(best):
            return best
        mixed = self._least_loaded_mixed(decode_queue_load)
        if mixed is not None and self._token_machine_healthy(mixed):
            return mixed
        donor = self.prompt_pool.least_loaded(total_queue_load)
        if donor is not None:
            self._move_to_mixed(donor)
            return donor
        if best is not None:
            return best
        if mixed is not None:
            return mixed
        raise RuntimeError("cluster has no machine able to run a token phase")

    def _token_machine_healthy(self, machine: SimulatedMachine) -> bool:
        return (
            machine.pending_decode_tokens <= self.decode_queue_threshold
            and machine.memory_headroom_fraction > MEMORY_HEADROOM_FRACTION
        )

    def _least_loaded_mixed(self, load: Callable[[SimulatedMachine], float]) -> SimulatedMachine | None:
        if len(self.mixed_pool) == 0:
            return None
        return self.mixed_pool.least_loaded(load)

    def _move_to_mixed(self, machine: SimulatedMachine) -> None:
        """Temporarily pull a machine into the mixed pool."""
        if machine.role is MachineRole.MIXED:
            return
        self._move(machine, self.mixed_pool)
        self.pool_switches += 1

    def _restore_home_pool(self, machine: SimulatedMachine) -> None:
        """Return a mixed-pool machine to its home pool once foreign work drains."""
        if machine.role is not MachineRole.MIXED or machine.home_role is MachineRole.MIXED:
            return
        if machine.has_foreign_work():
            return
        self._move(machine, self._home_pool(machine))

    def _home_pool(self, machine: SimulatedMachine) -> MachinePool:
        """The pool a machine serves from when not borrowed, parked or failed."""
        if not self.split or machine.home_role is MachineRole.MIXED:
            return self.mixed_pool
        if machine.home_role is MachineRole.PROMPT:
            return self.prompt_pool
        return self.token_pool

    def _move(self, machine: SimulatedMachine, pool: MachinePool) -> None:
        """Place a machine in ``pool``: the one change of placement.

        The machine leaves its previous pool for the end of ``pool`` and
        takes the mixed role in the mixed pool, its home role anywhere else.
        A no-op when it already sits in ``pool``, so every pool keeps its
        order.
        """
        previous = self._placement.get(machine)
        if previous is pool:
            return
        if previous is not None:
            previous.remove(machine)
        pool.add(machine)
        self._placement[machine] = pool
        machine.role = MachineRole.MIXED if pool is self.mixed_pool else machine.home_role

    # -- dynamic re-purposing (autoscaler hooks) ----------------------------------------------

    def park_machine(self, machine: SimulatedMachine) -> None:
        """Withdraw an idle machine from routing (autoscaler scale-down).

        The machine keeps its home role and is moved to the parked pool; the
        router never selects parked machines, so it accrues no further work.
        Only fully drained machines can be parked — parking never strands a
        request.

        Raises:
            ValueError: if the machine has failed, or still holds or expects
                any work.
        """
        if self._placement[machine] is self.failed_pool:
            raise ValueError(f"machine {machine.name} has failed and cannot be parked")
        if machine.has_prompt_work() or machine.has_token_work() or machine.is_busy:
            raise ValueError(f"machine {machine.name} still has work; only idle machines can be parked")
        self._move(machine, self.parked_pool)

    def unpark_machine(self, machine: SimulatedMachine) -> None:
        """Return a parked machine to its home pool (autoscaler scale-up)."""
        if self._placement[machine] is self.parked_pool:
            self._move(machine, self._home_pool(machine))

    def retarget_home(self, machine: SimulatedMachine, new_home: MachineRole) -> None:
        """Re-purpose a machine to a new home pool with drain-before-switch.

        The machine's home role changes immediately; placement reuses the
        mixed-pool machinery: a machine still holding work that is foreign to
        its *new* home is pulled into the mixed pool, where it keeps serving
        that work until it drains, and :meth:`_restore_home_pool` then lands
        it in the new home pool.  An idle machine switches pools immediately.

        Raises:
            ValueError: if ``new_home`` is the mixed pool (machines only ever
                visit the mixed pool temporarily), or if the machine has
                failed.
        """
        if new_home is MachineRole.MIXED:
            raise ValueError("cannot re-target a machine's home to the mixed pool")
        if self._placement[machine] is self.failed_pool:
            raise ValueError(f"machine {machine.name} has failed and cannot be re-purposed")
        if machine.home_role is new_home:
            return
        # Any in-flight coalesced run was proven safe under the old home.
        machine.interrupt_coalescing()
        machine.home_role = new_home
        placement = self._placement[machine]
        if placement is self.parked_pool:
            return  # takes effect when the machine is unparked
        if placement is self.mixed_pool:
            # Already draining in the mixed pool; it lands in the new home
            # pool as soon as the (newly defined) foreign work is gone.
            self._restore_home_pool(machine)
            return
        if machine.has_foreign_work():
            self._move_to_mixed(machine)
            return
        self._move(machine, self._home_pool(machine))
        self.pool_switches += 1

    def count_home_machines(self, role: MachineRole) -> int:
        """Routable (non-parked, non-failed) machines whose home pool is ``role``."""
        return sum(
            1
            for pool in (self.prompt_pool, self.token_pool, self.mixed_pool)
            for machine in pool
            if machine.home_role is role
        )

    # -- fault tolerance (§IV-E) ------------------------------------------------------------

    def fail_machine(self, machine: SimulatedMachine | str) -> list[Request]:
        """Fail a machine and restart its incomplete requests from scratch.

        The paper's fault-tolerance policy (§IV-E) is to simply restart any
        request whose prompt or token machine fails.  The failed machine
        moves to the failed pool; every incomplete request it held — plus any
        request that was routed to it as a future token machine — is reset and
        resubmitted through the normal routing path.  When it is the last live
        machine and an :attr:`evacuation_handler` is set, the cluster is
        evacuated instead and the handler takes the displaced requests.

        Returns:
            The requests that were restarted.

        Raises:
            KeyError: if a machine name is given and no machine matches it.
        """
        target = self._resolve_machine(machine)
        if target.failed:
            return []
        if self.evacuation_handler is not None and len(self.failed_pool) + 1 == len(self.machines):
            evacuated = self.evacuate()
            self.evacuation_handler(evacuated)
            return evacuated
        to_restart = {id(r): r for r in self._take_down(target)}
        # Requests routed to the failed machine for a later phase must also restart.
        for request_id, decision in list(self._assignments.items()):
            if decision.prompt_machine is target or decision.token_machine is target:
                request = self._find_outstanding_request(request_id, decision)
                if request is not None and not request.is_complete:
                    to_restart.setdefault(id(request), request)

        # One request at a time: each restart routes against the queues the
        # requests not yet withdrawn still hold.
        restarted: list[Request] = []
        handler = self.restart_handler
        for request in to_restart.values():
            self.cancel_request(request)
            request.reset_for_restart()
            if handler is not None:
                handler(request)
            else:
                self.submit(request)
            restarted.append(request)
        self.restarted_requests.extend(restarted)
        return restarted

    def recover_machine(self, machine: SimulatedMachine | str) -> SimulatedMachine | None:
        """Bring a failed machine back into service (repair completed).

        The machine rejoins its *home* pool empty — ``fail`` already
        discarded its queues and restarted its work elsewhere, so recovery
        is purely a capacity event.  A straggler slowdown survives the
        fail/recover cycle (slow hardware stays slow).  No-op when the
        machine is not failed.

        Returns:
            The recovered machine, or ``None`` when nothing changed.

        Raises:
            KeyError: if a machine name is given and no machine matches it.
        """
        target = self._resolve_machine(machine)
        if not target.failed:
            return None
        target.recover()
        self._move(target, self._home_pool(target))
        if self.on_machine_recovered is not None:
            self.on_machine_recovered(target)
        return target

    def recover_all(self) -> list[SimulatedMachine]:
        """Recover every failed machine in failure order (end of a cluster-wide outage)."""
        recovered = list(self.failed_pool)
        for machine in recovered:
            self.recover_machine(machine)
        return recovered

    def evacuate(self) -> list[Request]:
        """Fail every machine at once and hand back the displaced requests.

        Models a correlated failure domain (rack/zone outage) or a spot
        revocation: the whole cluster drops cold in one instant.  Unlike
        :meth:`fail_machine`, displaced requests are **not** resubmitted
        here — there is nowhere inside the cluster to put them — they are
        reset and returned for the caller (the fleet) to reroute.

        Returns:
            Every incomplete request the cluster held, reset for restart,
            in deterministic discovery order: machine by machine through the
            prompt, token, mixed and parked pools, then KV transfers.
        """
        to_restart: dict[int, Request] = {}
        for pool in (self.prompt_pool, self.token_pool, self.mixed_pool, self.parked_pool):
            for machine in list(pool):
                for request in self._take_down(machine):
                    to_restart.setdefault(id(request), request)
        # Requests mid KV-transfer sit in no machine queue; the transfer
        # registry is the only index that still knows them.
        for request, _event in list(self._transfers.values()):
            if not request.is_complete:
                to_restart.setdefault(id(request), request)
        evacuated = list(to_restart.values())
        for request in evacuated:
            self.cancel_request(request)
            request.reset_for_restart()
        self.restarted_requests.extend(evacuated)
        return evacuated

    def _take_down(self, machine: SimulatedMachine) -> list[Request]:
        """Fail one machine, move it to the failed pool, and return its work."""
        affected = machine.fail()
        self._move(machine, self.failed_pool)
        if self.on_machine_failed is not None:
            self.on_machine_failed(machine)
        return affected

    def cancel_request(self, request: Request) -> None:
        """Withdraw a request from the cluster without restarting it.

        Used by the fleet's request-lifecycle layer for deadline expiry and
        first-wins hedge cancellation: the request leaves every queue (and
        any in-flight KV transfer is tombstoned), its routing entry is
        dropped, and nothing is resubmitted.  Safe to call for a request the
        cluster no longer holds.
        """
        self._withdraw(request)
        self._assignments.pop(request.request_id, None)

    def find_machine(self, name: str) -> SimulatedMachine:
        """Look up a machine by name, failed machines included.

        Raises:
            KeyError: if no machine matches.
        """
        return self._resolve_machine(name)

    def _resolve_machine(self, machine: SimulatedMachine | str) -> SimulatedMachine:
        if isinstance(machine, SimulatedMachine):
            return machine
        for candidate in self.machines:
            if candidate.name == machine:
                return candidate
        raise KeyError(f"no machine named {machine!r} in this cluster")

    def _find_outstanding_request(self, request_id: int, decision: RoutingDecision) -> Request | None:
        """O(1) queue lookup on the two machines the request was routed to."""
        for machine in (decision.prompt_machine, decision.token_machine):
            found = machine.find_queued(request_id)
            if found is not None:
                return found
        return None

    def _withdraw(self, request: Request) -> None:
        """Remove a request from the machines it was routed to before restart.

        The routing index (``_assignments``) names the only machines that can
        hold the request, so withdrawal touches at most two machines instead
        of scanning every queue in the cluster.  Any in-flight KV-transfer
        completion event for the request is tombstoned.
        """
        decision = self._assignments.get(request.request_id)
        if decision is not None:
            decision.prompt_machine.withdraw(request)
            if decision.token_machine is not decision.prompt_machine:
                decision.token_machine.withdraw(request)
        else:
            for machine in self.machines:
                machine.withdraw(request)
        transfer = self._transfers.pop(request.request_id, None)
        if transfer is not None:
            self.engine.cancel(transfer[1])

    # -- KV-cache transfer ---------------------------------------------------------------

    def _transfer_model(self, source: SimulatedMachine, destination: SimulatedMachine) -> KVTransferModel:
        key = (source.spec.name, destination.spec.name)
        if key not in self._transfer_models:
            link = infiniband_for(source.spec.interconnect_gbps, destination.spec.interconnect_gbps)
            self._transfer_models[key] = KVTransferModel(
                model=self.model, link=link, degradation_factor=self._kv_degradation
            )
        return self._transfer_models[key]

    def set_kv_degradation(self, factor: float) -> None:
        """Degrade (or restore) the visible latency of new KV transfers.

        Transfer latency is committed when the transfer is scheduled, so a
        factor change affects only transfers that *start* after it —
        in-flight transfers keep their already-committed latency in every
        execution regime, which is what keeps fast-forward bit-parity intact.

        Raises:
            ValueError: if ``factor`` is below 1.
        """
        if factor < 1.0:
            raise ValueError(f"KV degradation factor must be >= 1, got {factor}")
        if factor == self._kv_degradation:
            return
        self._kv_degradation = factor
        self._transfer_models.clear()

    # -- machine callbacks ----------------------------------------------------------------

    def _handle_prompt_complete(
        self, request: Request, machine: SimulatedMachine, prompt_latency: float
    ) -> None:
        decision = self._assignments.get(request.request_id)
        if decision is None:
            return
        destination = decision.token_machine
        if request.is_complete:
            if destination is not machine:
                destination.cancel_transfer(request)
            return
        if destination is machine:
            # Same machine (baseline or overflow onto itself): no transfer.
            machine.admit_token_request(request)
            return
        transfer = self._transfer_model(machine, destination)
        latency = transfer.visible_latency(request.prompt_tokens, prompt_latency)
        request.start_kv_transfer(self.engine.now)
        self._transfers[request.request_id] = (request, self.engine.schedule_after(
            latency,
            lambda: self._complete_transfer(request, destination),
            tag=f"kv-transfer:{request.request_id}",
        ))

    def _complete_transfer(self, request: Request, destination: SimulatedMachine) -> None:
        self._transfers.pop(request.request_id, None)
        if request.phase is not RequestPhase.KV_TRANSFER and not request.is_complete:
            # The request was restarted (machine failure) while its KV-cache
            # was in flight; the stale transfer completion is dropped.
            return
        if destination.failed:
            # The token machine died while (or after) the cache was in flight:
            # restart the request from scratch on surviving machines (§IV-E).
            self._assignments.pop(request.request_id, None)
            request.reset_for_restart()
            self.restarted_requests.append(request)
            if self.restart_handler is not None:
                self.restart_handler(request)
            else:
                self.submit(request)
            return
        request.finish_kv_transfer(self.engine.now)
        destination.admit_token_request(request)

    def _handle_request_complete(self, request: Request, machine: SimulatedMachine) -> None:
        del machine
        self.completed_request_ids.append(request.request_id)
        self._assignments.pop(request.request_id, None)
        if self.on_request_complete is not None:
            self.on_request_complete(request)

    def _handle_iteration_complete(self, machine: SimulatedMachine) -> None:
        self._restore_home_pool(machine)

    # -- introspection -----------------------------------------------------------------------

    def pool_sizes(self) -> dict[str, int]:
        """Current number of machines in each pool."""
        return {
            "prompt": len(self.prompt_pool),
            "token": len(self.token_pool),
            "mixed": len(self.mixed_pool),
            "parked": len(self.parked_pool),
        }

    def machines_by_home_role(self, role: MachineRole) -> list[SimulatedMachine]:
        """All machines whose home pool is ``role`` regardless of placement, in build order."""
        return [m for m in self.machines if m.home_role is role]

    def outstanding_requests(self) -> Iterable[Request]:
        """Requests routed but not yet completed."""
        seen = set(self.completed_request_ids)
        for machine in self.machines:
            for request in list(machine.pending_prompts) + machine.token_pool:
                if request.request_id not in seen:
                    yield request
