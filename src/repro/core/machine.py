"""The simulated inference machine and its machine-level scheduler (MLS).

A :class:`SimulatedMachine` is one 8-GPU DGX box serving one model replica.
Its machine-level scheduler (§IV-B of the paper) owns the pending prompt
queue and the pool of requests in their token phase, composes a batch for
every forward-pass iteration using a batching policy, executes the iteration
for the duration given by the performance model, and reports per-iteration
time/energy/occupancy to the metrics collector.

The machine is role-agnostic at execution time: a Splitwise prompt machine
simply never receives token work, a token machine never receives prompt
work, and a machine pulled into the mixed pool receives both and batches
them with mixed continuous batching.  Pool membership is managed by the
cluster-level scheduler.

Queue metrics (``pending_prompt_tokens``, ``pending_decode_tokens``,
``kv_tokens_in_use``, ``memory_headroom_fraction``) are maintained as
incremental counters updated at every enqueue/admit/generate/complete/fail/
withdraw transition, so a JSQ probe over the whole cluster costs O(machines)
instead of O(machines x queue length).  Set ``debug_accounting=True`` (or
the ``REPRO_DEBUG_ACCOUNTING=1`` environment variable) to cross-check every
counter against a full recount on each read.

**Decode fast-forwarding** (see ``docs/performance.md``) removes the
per-iteration cost of the two steady-state decode regimes while keeping
results bit-identical to per-iteration stepping:

* **Full-pool macro-events.**  When a decode-only plan covers the whole
  token pool, the next *k* iterations (through the earliest completion,
  capped by the KV budget) are fully determined.  One macro-event at the
  k-th boundary commits the first k - 1 in bulk and steps the last through
  ``_finish_iteration``; queue metrics and transitions (enqueue/admit/
  withdraw/fail) commit passed iterations earlier, JSQ probes read them
  without committing, and a run's metrics are recorded when it ends.  A
  transition tombstones the macro-event and resumes per-iteration stepping
  at the in-flight iteration's boundary.
* **Oversubscribed rotation.**  With more pool members than batch slots, a
  :class:`~repro.batching.rotation.RotationForest` orders the pool, so the
  aging round-robin selects each batch and boosts the skipped in O(batch)
  instead of O(pool).  The iterations are the ordinary ones, composed in
  ``_start_iteration`` and finished at their own event by
  ``_finish_iteration``, so arrivals, admissions, completions, and pool
  restores all happen at exact per-iteration times; withdrawals, failures,
  or a binding KV budget flatten the forest back into the flat view.

Each fact of the iteration loop has one record: ``_running_plan`` is the
in-flight iteration (``None`` when idle) and ``_event`` its one pending
finish or macro-event, and ``priority_boost`` is an integer count of the
aging passes that skipped a request.

Disable both with ``fast_forward=False``.
"""

from __future__ import annotations

import enum
import os
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Callable

from repro.batching.policies import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_PROMPT_TOKENS,
    BatchConstraints,
    BatchPlan,
    BatchingPolicy,
    MixedContinuousBatching,
    PriorityOrderedView,
    priority_key,
)
from repro.batching.rotation import RotationForest
from repro.core.kv_transfer import KVTransferModel
from repro.hardware.machine import MachineSpec
from repro.metrics.collectors import MetricsCollector
from repro.models.llm import ModelSpec
from repro.models.memory import MemoryModel
from repro.models.performance import AnalyticalPerformanceModel
from repro.models.power import PowerModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import FINISH_EVENT_PRIORITY, START_EVENT_PRIORITY, Event
from repro.simulation.request import Request, RequestPhase


class MachineRole(enum.Enum):
    """Pool identity of a machine in a Splitwise cluster."""

    PROMPT = "prompt"
    TOKEN = "token"
    MIXED = "mixed"


_COMPLETED = RequestPhase.COMPLETED
_TOKEN_RUNNING = RequestPhase.TOKEN_RUNNING

#: A steady-state run must cover at least this many decode iterations (its
#: last one finished by the macro-event itself) for the macro-event machinery
#: to beat plain per-iteration stepping.
_MIN_COALESCED_ITERATIONS = 2


class AccountingError(AssertionError):
    """An incremental queue counter diverged from a full recount."""


class SimulatedMachine:
    """One DGX machine executing batched inference iterations.

    Args:
        name: Unique machine name within the cluster.
        spec: Hardware description of the machine.
        model: The LLM served by the machine.
        engine: The discrete-event engine driving the simulation.
        role: Initial (and home) pool identity.
        policy: Batching policy; defaults to mixed continuous batching, the
            paper's choice for both baselines and Splitwise machines.
        metrics: Cluster metrics collector to report iterations into.
        kv_transfer: Transfer model used to account for per-layer transfer
            interference on the prompt computation (set on Splitwise prompt
            machines; ``None`` elsewhere).
        max_prompt_batch_tokens: MLS limit on batched prompt tokens (§IV-B).
        max_batch_size: MLS limit on batched requests per iteration.
        debug_accounting: Cross-check the incremental queue counters against
            a full recount on every read (slow; for tests and debugging).
            Defaults to the ``REPRO_DEBUG_ACCOUNTING=1`` environment flag.
        fast_forward: Coalesce steady-state decode runs into macro-events
            (bit-identical results, large speedup on decode-heavy phases).
            ``on_iteration_complete`` fires once per iteration the machine
            steps: a coalesced run fires it once, at its last boundary, so a
            run is only coalesced while the cluster scheduler's pool-restore
            hook is a no-op.  Disable it to see the hook after every
            iteration.
    """

    def __init__(
        self,
        name: str,
        spec: MachineSpec,
        model: ModelSpec,
        engine: SimulationEngine,
        role: MachineRole = MachineRole.MIXED,
        policy: BatchingPolicy | None = None,
        metrics: MetricsCollector | None = None,
        kv_transfer: KVTransferModel | None = None,
        max_prompt_batch_tokens: int = DEFAULT_MAX_PROMPT_TOKENS,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        debug_accounting: bool | None = None,
        fast_forward: bool = True,
    ) -> None:
        self.name = name
        self.spec = spec
        self.model = model
        self.engine = engine
        self.home_role = role
        self.role = role
        self.policy = policy or MixedContinuousBatching()
        self.performance = AnalyticalPerformanceModel(model, spec)
        self.power = PowerModel(model, spec)
        self.memory = MemoryModel(model, spec)
        self.metrics = metrics or MetricsCollector()
        self.kv_transfer = kv_transfer
        self.token_log = self.metrics.token_log
        # The machine only ever records into its own stats row; holding the
        # row skips the per-iteration name lookup in the collector.
        self._stats = self.metrics.machine_stats(name)
        self.constraints = BatchConstraints(
            max_prompt_tokens=max_prompt_batch_tokens,
            max_batch_size=max_batch_size,
            max_kv_tokens=self.memory.max_kv_tokens,
        )
        # The env flag is a debug toggle whose on and off settings are
        # property-tested bit-identical, so the hidden input cannot change
        # results — the constructor argument still wins when passed.
        if debug_accounting is None:
            debug_accounting = os.environ.get("REPRO_DEBUG_ACCOUNTING") == "1"  # simlint: disable=SIM007
        self.debug_accounting = debug_accounting
        self.fast_forward_enabled = fast_forward

        self.pending_prompts: deque[Request] = deque()
        # The token pool in priority_key order, maintained incrementally
        # (insort on admit, binary-search removal, two-run merge after aging)
        # so the batching policy never re-sorts it.  Same members as
        # _pool_by_id, whose insertion order is the admission order relied on
        # by fail/restart semantics (the `token_pool` property materializes
        # that view; hot paths use the dict so completions remove in O(1)).
        self._token_ready: PriorityOrderedView = PriorityOrderedView()
        # request_id -> output tokens of every request whose KV-cache is
        # expected here.
        self.in_transfer: dict[int, int] = {}
        self.failed = False

        # Incremental queue accounting (tentpole of the O(1) hot path): each
        # counter mirrors a sum the JSQ router used to recompute per probe.
        self._queued_prompt_tokens = 0  # sum(prompt_tokens) over pending_prompts
        self._running_prompt_tokens = 0  # prompt tokens of the running plan
        self._pool_decode_tokens = 0  # sum(remaining_tokens) over token_pool
        self._expected_decode_tokens = 0  # sum(in_transfer.values())
        self._kv_tokens = 0  # sum(context_tokens) over token_pool
        # request_id indexes over the queues for O(1) lookup and withdrawal.
        self._queued_by_id: dict[int, Request] = {}
        self._pool_by_id: dict[int, Request] = {}
        # At most one pending start event per machine (kick collapsing).
        self._start_scheduled = False
        # request_ids withdrawn while the current iteration is in flight.
        self._withdrawn_ids: set[int] = set()
        self._start_tag = f"{name}:start"
        self._finish_tag = f"{name}:finish"
        self._macro_tag = f"{name}:macro"
        # The one in-flight iteration: its batch (a coalesced run's plan
        # too), its prompt latency, and its one pending finish or macro
        # event.  The finish event is a reused bound method instead of a
        # fresh closure, and its handle is kept so fail() can tombstone it: a
        # machine that fails and later recovers must not replay the dead
        # iteration.
        self._running_plan: BatchPlan | None = None
        self._finish_prompt_latency = 0.0
        self._event: Event | None = None
        # Decode fast-forward state: the per-iteration duration series, the
        # absolute end time of every iteration of the run, and how many
        # iterations are committed.
        self._ff_boundaries: array | None = None
        self._ff_durations: array | None = None
        self._ff_done = 0
        self.fast_forward_runs = 0  # macro-events launched (introspection)
        # Oversubscribed pools: the level forest replaces the flat priority
        # view while active, and holds the in-flight iteration's selection
        # until that iteration's aging is committed.
        self._rot_forest: RotationForest | None = None
        self._rot_selection = None
        self.rotation_runs = 0  # rotation engagements (introspection)

        # Callbacks wired by the cluster simulation.
        self.on_prompt_complete: Callable[[Request, "SimulatedMachine", float], None] | None = None
        self.on_request_complete: Callable[[Request, "SimulatedMachine"], None] | None = None
        self.on_iteration_complete: Callable[["SimulatedMachine"], None] | None = None

    # -- work intake (called by the cluster scheduler) -------------------------------

    def enqueue_prompt(self, request: Request) -> None:
        """Add a request to the pending prompt queue (FCFS).

        Raises:
            RuntimeError: if the machine has failed.
        """
        if self.failed:
            raise RuntimeError(f"machine {self.name} has failed and cannot accept prompts")
        self._ff_interrupt()
        self.pending_prompts.append(request)
        self._queued_prompt_tokens += request.prompt_tokens
        self._queued_by_id[request.request_id] = request
        self._kick()

    def expect_transfer(self, request: Request) -> None:
        """Register a request whose KV-cache will arrive later (for JSQ accounting)."""
        self.cancel_transfer(request)
        self.in_transfer[request.request_id] = request.output_tokens
        self._expected_decode_tokens += request.output_tokens

    def cancel_transfer(self, request: Request) -> None:
        """Drop a previously expected transfer (request finished in its prompt phase)."""
        tokens = self.in_transfer.pop(request.request_id, None)
        if tokens is not None:
            self._expected_decode_tokens -= tokens

    def admit_token_request(self, request: Request) -> None:
        """Admit a request whose KV-cache has arrived into the token pool."""
        if self.failed:
            raise RuntimeError(f"machine {self.name} has failed and cannot accept token requests")
        self.cancel_transfer(request)
        if request.phase is _COMPLETED:
            return
        self._ff_interrupt()
        self._pool_by_id[request.request_id] = request
        self._pool_decode_tokens += request.output_tokens - request.generated_tokens
        self._kv_tokens += request.prompt_tokens + request.generated_tokens
        if self._rot_forest is not None:
            # The forest absorbs admissions: the in-flight iteration's batch
            # is already fixed, and the forest places the newcomer at its
            # boost level, where the next aging pass boosts it just as the
            # flat path does.
            self._rot_forest.insert(request)
            return
        insort(self._token_ready, request, key=priority_key)
        self._kick()

    def withdraw(self, request: Request) -> None:
        """Remove a request from this machine's queues (cluster restart path).

        Safe to call when the request is not present; any expected KV-cache
        transfer for it is dropped as well.
        """
        self._rotation_interrupt()
        self._ff_interrupt()
        request_id = request.request_id
        running = self._running_plan
        if self._queued_by_id.pop(request_id, None) is not None:
            self.pending_prompts.remove(request)
            self._queued_prompt_tokens -= request.prompt_tokens
        if self._pool_by_id.pop(request_id, None) is not None:
            self._remove_ready(request)
            self._pool_decode_tokens -= request.remaining_tokens
            self._kv_tokens -= request.prompt_tokens + request.generated_tokens
            if running is not None:
                # The running plan may reference this request; the finish
                # loop must skip it (a membership re-check is not enough —
                # the restarted request can be re-admitted to this very
                # machine before the stale finish event fires).
                self._withdrawn_ids.add(request_id)
        elif running is not None and any(r is request for r in running.prompt_requests):
            # Mid-running-prompt: the request was popped from the queue at
            # iteration start, so neither map holds it — only the running
            # plan does.  Mark it so the finish loop's prompt pass skips it
            # (finish_prompt on a reset request would corrupt the restarted
            # attempt).  `_running_prompt_tokens` is left alone: it is
            # plan-static and reset wholesale when the iteration finishes.
            self._withdrawn_ids.add(request_id)
        self.cancel_transfer(request)

    def _remove_ready(self, request: Request) -> None:
        """Drop a request from the priority-ordered ready view via binary search."""
        ready = self._token_ready
        index = bisect_left(ready, priority_key(request), key=priority_key)
        if index < len(ready) and ready[index] is request:
            del ready[index]
        else:  # pragma: no cover - defensive; keys are unique so this is unreachable
            ready.remove(request)

    def find_queued(self, request_id: int) -> Request | None:
        """The queued or decoding request with ``request_id``, if present (O(1))."""
        found = self._queued_by_id.get(request_id)
        if found is not None:
            return found
        return self._pool_by_id.get(request_id)

    def fail(self) -> list[Request]:
        """Mark the machine as failed and surrender all in-flight work (§IV-E).

        Returns the incomplete requests that were queued, decoding, or mid-
        iteration on this machine so the cluster scheduler can restart them
        elsewhere.  A failed machine executes no further iterations.
        """
        self._rotation_interrupt()
        self._ff_interrupt()
        self.failed = True
        # Tombstone the in-flight iteration's finish event: a machine
        # recovered before the stale event fires would otherwise replay the
        # dead iteration and complete requests that already restarted
        # elsewhere.
        if self._event is not None:
            self.engine.cancel(self._event)
            self._event = None
        affected: list[Request] = []
        affected.extend(self.pending_prompts)
        affected.extend(self._pool_by_id.values())
        if self._running_plan is not None:
            # Members withdrawn mid-iteration already left this machine
            # (restarted or cancelled); one re-admitted here since is
            # surrendered through the queues above.
            withdrawn = self._withdrawn_ids
            for request in self._running_plan.prompt_requests + self._running_plan.token_requests:
                if request.request_id not in withdrawn:
                    affected.append(request)
        self.pending_prompts.clear()
        self._token_ready.clear()
        self.in_transfer.clear()
        self._queued_by_id.clear()
        self._pool_by_id.clear()
        self._queued_prompt_tokens = 0
        self._running_prompt_tokens = 0
        self._pool_decode_tokens = 0
        self._expected_decode_tokens = 0
        self._kv_tokens = 0
        self._running_plan = None
        self._withdrawn_ids.clear()
        seen: set[int] = set()
        unique: list[Request] = []
        for request in affected:
            if request.phase is not _COMPLETED and id(request) not in seen:
                seen.add(id(request))
                unique.append(request)
        return unique

    def recover(self) -> None:
        """Return a failed machine to service, empty (repair completed).

        ``fail`` already surrendered the machine's work, zeroed every queue,
        counter, and in-flight plan, and tombstoned the pending finish
        event, so nothing from before the failure can fire after the flag
        clears.  Recovery therefore only clears the flag; re-pooling is the
        cluster scheduler's job (:meth:`ClusterScheduler.recover_machine`).
        A straggler slowdown on the performance model deliberately survives
        the cycle — slow hardware stays slow across repairs.

        Raises:
            RuntimeError: if the machine has not failed.
        """
        if not self.failed:
            raise RuntimeError(f"machine {self.name} has not failed; nothing to recover")
        self.failed = False

    def set_performance_slowdown(self, factor: float) -> None:
        """Apply (or lift) a persistent straggler slowdown on this machine.

        Any coalesced decode run is interrupted first, so the in-flight
        iteration keeps its committed latency and every later iteration sees
        the new factor — identical behaviour with fast-forward on or off.
        """
        if factor == self.performance.slowdown_factor:
            return
        self.interrupt_coalescing()
        self.performance.set_slowdown(factor)

    # -- queue metrics (used by JSQ routing) -------------------------------------------

    @property
    def is_busy(self) -> bool:
        """Whether an iteration is currently executing."""
        return self._running_plan is not None

    @property
    def pending_prompt_tokens(self) -> int:
        """Prompt tokens queued or currently running (JSQ queue length)."""
        if self.debug_accounting:
            self.verify_accounting()
        return self._queued_prompt_tokens + self._running_prompt_tokens

    @property
    def pending_decode_tokens(self) -> int:
        """Output tokens still owed by requests assigned to this machine."""
        if self._ff_boundaries is not None:
            self._ff_sync()
        if self.debug_accounting:
            self.verify_accounting()
        return self._pool_decode_tokens + self._expected_decode_tokens

    @property
    def token_pool(self) -> list[Request]:
        """Decoding requests in admission order (materialized read-only view).

        Backed by the insertion-ordered ``_pool_by_id`` dict so the hot paths
        (completion removal, membership) are O(1); building the list here is
        for introspection, tests, and the failure path only.
        """
        return list(self._pool_by_id.values())

    @property
    def active_token_requests(self) -> int:
        """Number of requests currently decoding on this machine."""
        return len(self._pool_by_id)

    @property
    def kv_tokens_in_use(self) -> int:
        """KV-cache tokens currently resident on the machine."""
        if self._ff_boundaries is not None:
            self._ff_sync()
        if self.debug_accounting:
            self.verify_accounting()
        return self._kv_tokens

    @property
    def memory_headroom_fraction(self) -> float:
        """Fraction of the KV-cache budget still free.

        A machine with no configured memory model (``max_kv_tokens == 0``)
        reports full headroom rather than reading as "machine full".
        """
        budget = self.constraints.max_kv_tokens
        if not budget:
            return 1.0
        if self._ff_boundaries is not None:
            self._ff_sync()
        if self.debug_accounting:
            self.verify_accounting()
        headroom = 1.0 - self._kv_tokens / budget
        return headroom if headroom > 0.0 else 0.0

    def has_prompt_work(self) -> bool:
        """Whether any prompt work is queued or running."""
        running = bool(self._running_plan and self._running_plan.prompt_requests)
        return bool(self.pending_prompts) or running

    def has_token_work(self) -> bool:
        """Whether any token work is present or expected."""
        return bool(self._pool_by_id) or bool(self.in_transfer)

    def has_foreign_work(self) -> bool:
        """Whether the machine holds work of the opposite kind to its home role."""
        if self.home_role is MachineRole.PROMPT:
            return self.has_token_work()
        if self.home_role is MachineRole.TOKEN:
            return self.has_prompt_work()
        return False

    def check_drained(self) -> None:
        """Raise unless no iteration, fast-forward run or rotation is in flight.

        A drained run leaves nothing in flight: the cluster checks every
        machine with this when it closes a run.

        Raises:
            AccountingError: naming this machine and the in-flight records.
        """
        held = [
            name
            for name in ("_running_plan", "_ff_boundaries", "_rot_forest", "_rot_selection")
            if getattr(self, name) is not None
        ]
        if held:
            raise AccountingError(
                f"machine {self.name}: run ended with {', '.join(held)} still in flight"
            )

    def verify_accounting(self) -> None:
        """Cross-check every incremental counter against a full recount.

        Raises:
            AccountingError: if any counter diverged (indicates a missed
                transition in the incremental accounting), or if the
                in-flight plan and the pending event disagree on whether an
                iteration is running.
        """
        if (self._running_plan is None) != (self._event is None):
            raise AccountingError(f"machine {self.name}: in-flight plan and pending event out of step")
        if self._ff_boundaries is not None:
            self._ff_sync()
        if self._rot_forest is not None:
            # The flat view is dormant while the rotation forest owns the
            # ordering; rebuild it (and the boosts) for the cross-check,
            # merging the in-flight selection's extraction back in.
            self._token_ready = PriorityOrderedView(self._rot_forest.flatten(self._rot_selection))
        recounts = {
            "_queued_prompt_tokens": sum(r.prompt_tokens for r in self.pending_prompts),
            "_running_prompt_tokens": self._running_plan.prompt_tokens if self._running_plan else 0,
            "_pool_decode_tokens": sum(r.remaining_tokens for r in self._pool_by_id.values()),
            "_expected_decode_tokens": sum(self.in_transfer.values()),
            "_kv_tokens": sum(r.context_tokens for r in self._pool_by_id.values()),
        }
        for attribute, expected in recounts.items():
            actual = getattr(self, attribute)
            if actual != expected:
                raise AccountingError(
                    f"machine {self.name}: counter {attribute} is {actual}, full recount gives {expected}"
                )
        queued_ids = {r.request_id for r in self.pending_prompts}
        if queued_ids != set(self._queued_by_id):
            raise AccountingError(f"machine {self.name}: _queued_by_id out of sync with pending_prompts")
        pool_ids = {r.request_id for r in self._pool_by_id.values()}
        if pool_ids != set(self._pool_by_id):
            raise AccountingError(f"machine {self.name}: _pool_by_id out of sync with token_pool")
        ready_keys = [priority_key(r) for r in self._token_ready]
        if {r.request_id for r in self._token_ready} != pool_ids:
            raise AccountingError(f"machine {self.name}: _token_ready out of sync with token_pool")
        if ready_keys != sorted(ready_keys):
            raise AccountingError(f"machine {self.name}: _token_ready is not in priority order")
        for request in self._pool_by_id.values():
            if len(request.token_times) != request.generated_tokens:
                raise AccountingError(
                    f"machine {self.name}: request {request.request_id} recorded "
                    f"{len(request.token_times)} token times for {request.generated_tokens} tokens"
                )

    # -- iteration loop -----------------------------------------------------------------

    def _kick(self) -> None:
        """Start an iteration if the machine is idle and none is already pending."""
        if self._running_plan is None and not self._start_scheduled:
            self._start_scheduled = True
            self.engine.schedule_after(0.0, self._on_start_event, priority=START_EVENT_PRIORITY, tag=self._start_tag)

    def _on_start_event(self) -> None:
        self._start_scheduled = False
        self._start_iteration()

    def _start_iteration(self) -> None:
        if self._running_plan is not None or self.failed:
            return
        # Oversubscribed steady state: more pool members than batch slots and
        # a prefix-selecting policy.  The rotation forest then orders the
        # pool, so selecting the batch and aging the skipped cost O(batch)
        # instead of O(pool).  It is kept across iterations and flattened
        # back into the flat view once the pool fits one batch again.
        plan = None
        if (
            self.fast_forward_enabled
            and len(self._pool_by_id) > self.constraints.max_batch_size
            and self.policy.prefix_token_selection
            and (not self.pending_prompts or self.policy.prefix_mixed_composition)
        ):
            plan = self._forest_plan()
        elif self._rot_forest is not None:
            self._flatten_forest()
        if plan is None:
            # The FCFS-sorted ready view makes the policy's priority ordering
            # a detected no-op whenever no request carries an aging boost.
            plan = self.policy.plan_iteration(
                self.pending_prompts, self._token_ready, self.constraints, self._kv_tokens
            )
            if plan.is_empty:
                return
        self._running_plan = plan

        prompt_tokens = plan.prompt_tokens
        token_requests = len(plan.token_requests)
        context_tokens = plan.context_tokens

        # Steady-state decode: no prompt work anywhere, the whole pool is in
        # the batch (so nothing can age), and the per-iteration pool-restore
        # hook is a provable no-op for the whole run.  Every following
        # iteration is then identical but for its growing context, so the
        # run can be coalesced into one macro-event.  (No withdrawal is
        # pending: _withdrawn_ids empties when an iteration ends.)  The
        # pool-restore hook no-ops when the machine sits in its home pool,
        # and also when a prompt-home machine is borrowed by the mixed pool:
        # its token pool (non-empty for the whole run) *is* the foreign work
        # that keeps it borrowed.  A token-home machine in the mixed pool
        # must not coalesce — with no prompt work left it would be restored
        # home after the first iteration.
        if (
            token_requests
            and not plan.prompt_requests
            and not self.pending_prompts
            and self.fast_forward_enabled
            and token_requests == len(self._pool_by_id)
            and (self.role is self.home_role or self.home_role is MachineRole.PROMPT)
            and self._try_fast_forward(plan, token_requests)
        ):
            return

        # The policy popped the admitted prompts off pending_prompts; move
        # their tokens from the queued counter to the running counter.
        if prompt_tokens:
            self._queued_prompt_tokens -= prompt_tokens
            self._running_prompt_tokens = prompt_tokens
            queued_by_id = self._queued_by_id
            for request in plan.prompt_requests:
                queued_by_id.pop(request.request_id, None)

        if prompt_tokens:
            prompt_latency = self.performance.prompt_latency(prompt_tokens)
            prompt_latency *= self._transfer_interference(plan)
        else:
            prompt_latency = 0.0
        if not token_requests:
            token_latency = 0.0
        elif self._rot_forest is not None:
            # A rotating batch's (count, context) key is transient (context
            # grows every iteration), so the memo table would only churn; the
            # uncached path computes the same value without touching it.
            token_latency = self.performance.token_latency_uncached(token_requests, context_tokens)
        else:
            token_latency = self.performance.token_latency(token_requests, context_tokens)
        duration = prompt_latency + token_latency

        energy_wh = 0.0
        if prompt_tokens:
            energy_wh += self.power.prompt_energy_wh(prompt_tokens, prompt_latency)
        if token_requests:
            energy_wh += self.power.token_energy_wh(token_requests, token_latency)

        self._stats.add_iteration(
            duration,
            plan.active_tokens,
            energy_wh,
            prompt_tokens,
            len(plan.prompt_requests) + token_requests,
        )

        now = self.engine.now
        for request in plan.prompt_requests:
            request.start_prompt(now, self.name)

        self._finish_prompt_latency = prompt_latency
        self._event = self.engine.schedule_after(
            duration, self._on_finish_event, priority=FINISH_EVENT_PRIORITY, tag=self._finish_tag
        )

    def _on_finish_event(self) -> None:
        """Finish the single in-flight iteration (reused bound-method callback)."""
        self._event = None
        self._finish_iteration(self._running_plan, self._finish_prompt_latency)

    # -- decode fast-forwarding ---------------------------------------------------------

    def _try_fast_forward(self, plan: BatchPlan, token_requests: int) -> bool:
        """Launch a macro-event coalescing the next steady-state decode run.

        Returns False (leaving the caller on the per-iteration path) when the
        run would be too short to pay for itself.  The run lasts through the
        iteration that completes its earliest member, capped so the pooled
        KV context — which grows by one token per request per iteration —
        never crosses the budget that would force the batching policy to
        skip a member.
        """
        count = min(r.output_tokens - r.generated_tokens for r in plan.token_requests)
        headroom_iterations = (self.constraints.kv_capacity - plan.context_tokens) // token_requests + 1
        if headroom_iterations < count:
            count = headroom_iterations
        if count < _MIN_COALESCED_ITERATIONS:
            return False

        durations = array("d", self.performance.token_latency_series(
            token_requests, plan.context_tokens, token_requests, count
        ).tobytes())
        # Boundary j is the end of coalesced iteration j, accumulated with the
        # same left-to-right float additions the event clock would perform.
        boundaries = array("d")
        append = boundaries.append
        time = self.engine.now
        for duration in durations:
            time += duration
            append(time)

        self._ff_durations = durations
        self._ff_boundaries = boundaries
        self._event = self.engine.schedule_at(
            boundaries[-1], self._on_macro_event, priority=FINISH_EVENT_PRIORITY, tag=self._macro_tag
        )
        self.fast_forward_runs += 1
        return True

    def _ff_uncommitted(self) -> int:
        """Iterations the clock has passed since the last commit, never the run's last."""
        boundaries = self._ff_boundaries
        return bisect_right(boundaries, self.engine.now, 0, len(boundaries) - 1) - self._ff_done

    def _ff_sync(self) -> None:
        """Commit every coalesced iteration the simulated clock has passed.

        Called before any committing observation of pool state (queue
        metrics, accounting checks) and on every interrupt, so such
        observers see exactly the bookkeeping the per-iteration simulator
        would expose at the same timestamp.
        """
        if self._ff_boundaries is None:
            return
        passed = self._ff_uncommitted()
        if passed:
            done = self._ff_done
            self._ff_commit(done, done + passed)
            self._ff_done = done + passed

    def _ff_commit(self, start: int, stop: int) -> None:
        """Apply the bookkeeping of coalesced iterations ``[start, stop)``.

        Equivalent to running ``stop - start`` per-iteration finish loops: one
        token per pool member per iteration, timestamps at the precomputed
        boundaries, counters moved by exact integer totals.  No member can
        complete (only the run's last iteration completes one, and it is
        never committed here) and nothing can age (the whole pool is in the
        batch), so the completion/aging arms of the per-iteration loop are
        provably dead here, and so is the pool-restore hook the scheduler
        attaches (see ``_start_iteration``), which is not fired.
        """
        plan = self._running_plan
        count = stop - start
        times = self._ff_boundaries[start:stop]
        for request in plan.token_requests:
            request.token_times.extend(times)
            request.generated_tokens += count
            request.phase = _TOKEN_RUNNING
        generated = count * len(plan.token_requests)
        self._pool_decode_tokens -= generated
        self._kv_tokens += generated

    def _ff_clear(self, started: int) -> None:
        """End the run: record its ``started`` iterations' metrics, credit the committed as coalesced.

        Nothing reads a machine's stats mid-run, so recording them at the end
        sums what the per-iteration path records at each start, in order.
        """
        n = len(self._running_plan.token_requests)
        durations = memoryview(self._ff_durations)[:started]
        self.metrics.record_coalesced(
            self.name,
            started,
            n,  # decode-only batch: active tokens == batched requests
            durations,
            self.power.token_energy_series(n, durations),
            n,
        )
        self.engine.note_coalesced(self._ff_done)
        self._event = None
        self._ff_boundaries = None
        self._ff_durations = None
        self._ff_done = 0

    def _ff_interrupt(self) -> None:
        """Fall back to per-iteration stepping before a pool transition.

        Commits everything the clock has passed, tombstones the macro-event,
        and schedules a normal finish event at the in-flight iteration's
        boundary — the iteration that is mid-execution keeps its already-fixed
        batch, exactly as a real in-flight iteration would.
        """
        boundaries = self._ff_boundaries
        if boundaries is None:
            return
        self._ff_sync()
        in_flight = self._ff_done
        self.engine.cancel(self._event)
        self._ff_clear(in_flight + 1)
        # The plan is decode-only, so its finish needs no prompt latency.
        self._event = self.engine.schedule_at(
            boundaries[in_flight], self._on_finish_event, priority=FINISH_EVENT_PRIORITY, tag=self._finish_tag
        )

    def _on_macro_event(self) -> None:
        """Finish a run at its last boundary: the earlier iterations in bulk, the last stepped."""
        self._ff_sync()
        self._ff_clear(len(self._ff_boundaries))
        self._finish_iteration(self._running_plan, 0.0)

    # -- oversubscribed-pool rotation ----------------------------------------------------

    def _forest_plan(self) -> BatchPlan | None:
        """The next iteration composed over the rotation forest, or None.

        Prompts are admitted by the policy's own FCFS rule and the forest
        selects the token batch over the remaining slots, so the plan is
        the one the policy would return.  The forest declines only when the
        KV budget would make the policy skip a member: None then sends the
        iteration down the policy path, with the admission undone and the
        forest flattened.
        """
        forest = self._rot_forest
        fresh = forest is None
        if fresh:
            forest = RotationForest.from_ordered_view(self._token_ready)
        constraints = self.constraints
        pending = self.pending_prompts
        prompts, prompt_tokens = BatchingPolicy._select_prompts_with_total(
            pending, constraints, constraints.max_batch_size
        )
        selection = forest.select(
            constraints.max_batch_size - len(prompts), max(0, constraints.kv_capacity - prompt_tokens)
        )
        if selection is None:
            pending.extendleft(reversed(prompts))
            if not fresh:
                self._flatten_forest()
            return None
        if fresh:
            self._rot_forest = forest
            self.rotation_runs += 1
        self._rot_selection = selection
        return BatchPlan(
            prompt_requests=prompts,
            token_requests=selection.requests(),
            prompt_tokens=prompt_tokens,
            context_tokens=selection.context,
        )

    def _flatten_forest(self) -> None:
        """Hand the pool back to the flat priority view (boosts written back)."""
        self._token_ready = PriorityOrderedView(self._rot_forest.flatten(self._rot_selection))
        self._rot_forest = None
        self._rot_selection = None

    def _rotation_interrupt(self) -> None:
        """Flatten the forest before a pool transition it cannot absorb.

        The in-flight iteration keeps its batch and its finish event, which
        then completes it on the flat path.  The batch is re-read in the
        rebuilt view's order, which the aging pass's subsequence walk relies
        on: sibling runs and members admitted since the start may sort
        among the selected.
        """
        if self._rot_forest is None:
            return
        selection = self._rot_selection
        self._flatten_forest()
        if selection is None:
            return
        batch = selection.requests()  # the running plan's token list
        selected = {id(request) for request in batch}
        batch[:] = [request for request in self._token_ready if id(request) in selected]

    def interrupt_coalescing(self) -> None:
        """Fall back to exact per-iteration stepping before an external transition.

        Cluster components that change scheduling-relevant machine state from
        outside the queue transitions (e.g. the autoscaler re-targeting a
        machine's home pool) must call this first: the in-flight coalesced
        run's no-op guarantees were proven under the *old* state, so the
        remaining run is converted back to per-iteration stepping at the
        in-flight iteration's boundary.  A no-op when nothing is coalesced.
        """
        self._rotation_interrupt()
        self._ff_interrupt()

    def _age_skipped(self, plan: BatchPlan) -> None:
        """Boost every pool member left out of ``plan`` and restore ready order.

        Selection preserves ready-view order, so the plan's token requests are
        a subsequence of the view: a two-pointer walk splits the pool into the
        kept (selected, keys unchanged) and boosted (skipped, keys uniformly
        shifted) runs without any hashing.  Both runs remain internally
        ordered, so the order is restored by an O(1) concatenation check or,
        failing that, a two-run merge (which Timsort performs in O(n)
        comparisons).
        """
        ready = self._token_ready
        selected = plan.token_requests
        kept: list[Request] = []
        boosted: list[Request] = []
        if self._withdrawn_ids:
            # Rare path: mid-iteration withdrawals broke the subsequence
            # property; fall back to set membership.
            selected_ids = {id(r) for r in selected}
            for request in ready:
                if id(request) in selected_ids:
                    kept.append(request)
                else:
                    request.priority_boost += 1
                    boosted.append(request)
        else:
            index = 0
            count = len(selected)
            for request in ready:
                # Completed plan members were already removed from the view.
                while index < count and selected[index].phase is _COMPLETED:
                    index += 1
                if index < count and request is selected[index]:
                    kept.append(request)
                    index += 1
                else:
                    request.priority_boost += 1
                    boosted.append(request)
        if not kept or not boosted:
            return  # a uniformly shifted (or untouched) pool keeps its order
        if priority_key(kept[-1]) <= priority_key(boosted[0]):
            merged = PriorityOrderedView(kept)
            merged.extend(boosted)
        elif priority_key(boosted[-1]) <= priority_key(kept[0]):
            merged = PriorityOrderedView(boosted)
            merged.extend(kept)
        else:
            merged = PriorityOrderedView(boosted)
            merged.extend(kept)
            merged.sort(key=priority_key)
        self._token_ready = merged

    def _transfer_interference(self, plan: BatchPlan) -> float:
        """Prompt slowdown from overlapped KV-cache transfers (Splitwise prompt machines)."""
        if self.kv_transfer is None or not plan.prompt_requests:
            return 1.0
        factors = [
            self.kv_transfer.prompt_interference_factor(self.kv_transfer.choose_mode(r.prompt_tokens))
            for r in plan.prompt_requests
        ]
        return max(factors)

    def _finish_iteration(self, plan: BatchPlan, prompt_latency: float) -> None:
        now = self.engine.now
        self._running_plan = None
        self._running_prompt_tokens = 0

        on_prompt_complete = self.on_prompt_complete
        on_request_complete = self.on_request_complete
        # A request withdrawn mid-iteration (failure restart, deadline
        # cancellation) was reset or expired; mutating it here would corrupt
        # the restarted/cancelled state, so its plan slot is skipped
        # outright.  Keyed on the withdrawn-id set rather than pool
        # membership: the restarted request may already have been
        # re-admitted to this very machine, putting its id back in the pool.
        withdrawn = self._withdrawn_ids
        for request in plan.prompt_requests:
            if withdrawn and request.request_id in withdrawn:
                continue
            request.finish_prompt(now)
            if on_prompt_complete is not None:
                on_prompt_complete(request, self, prompt_latency)
            if request.phase is _COMPLETED and on_request_complete is not None:
                on_request_complete(request, self)

        pool_by_id = self._pool_by_id
        token_requests = plan.token_requests
        if withdrawn:
            token_requests = [r for r in token_requests if r.request_id not in withdrawn]
        generated_count = len(token_requests)
        kv_delta = 0
        completed: list[Request] = []
        running = _TOKEN_RUNNING  # local reads in the per-member loop
        finished = _COMPLETED
        for request in token_requests:
            if request.phase is finished:
                raise RuntimeError(f"request {request.request_id} already complete")
            request.token_times.append(now)
            generated = request.generated_tokens + 1
            request.generated_tokens = generated
            if generated < request.output_tokens:
                request.phase = running
                continue
            request.phase = finished
            request.completion_time = now
            del pool_by_id[request.request_id]
            completed.append(request)
            kv_delta -= request.prompt_tokens + generated
            if on_request_complete is not None:
                on_request_complete(request, self)
        if generated_count:
            self.token_log.boundaries += 1
            self._pool_decode_tokens -= generated_count
            self._kv_tokens += generated_count + kv_delta

        # Aging: requests left out of this iteration gain priority so that
        # preemption (on mixed machines) cannot starve them (§IV-B).  A
        # rotation forest ages its skipped members (and drops the completers)
        # in O(batch).  On the flat view, once the completers leave it,
        # anyone beyond the batch's survivors was skipped at planning or
        # admitted since; in the common fully-batched case there is nothing
        # to age.
        forest = self._rot_forest
        if forest is not None:
            forest.commit_aging(self._rot_selection, completed)
            self._rot_selection = None
        else:
            for request in completed:
                self._remove_ready(request)
            if len(self._token_ready) > generated_count - len(completed):
                self._age_skipped(plan)
        if withdrawn:
            withdrawn.clear()

        if self.on_iteration_complete is not None:
            self.on_iteration_complete(self)

        self._start_iteration()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedMachine(name={self.name!r}, spec={self.spec.name!r}, role={self.role.value!r}, "
            f"prompts={len(self.pending_prompts)}, tokens={len(self._pool_by_id)})"
        )
