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
  token pool, the next *k* iterations (until the earliest completion, capped
  by the KV budget) are fully determined.  The machine precomputes the
  latency/energy series, schedules a single macro-event at the k-th
  boundary, and lazily commits virtual iterations — token timestamps,
  counters, metrics, callbacks — whenever the pool is observed (JSQ probes,
  accounting checks) or transitions (enqueue/admit/withdraw/fail).  A
  transition tombstones the macro-event and resumes per-iteration stepping
  at the in-flight iteration's boundary.
* **Oversubscribed rotation.**  With more pool members than batch slots, the
  aging round-robin is stepped through a
  :class:`~repro.batching.rotation.RotationForest` in O(batch) per
  iteration instead of O(pool).  Every rotation iteration keeps its own
  event at the true boundary, so arrivals, admissions, completions, and
  pool restores all happen at exact per-iteration times; withdrawals,
  failures, or a binding KV budget flatten the forest back into the exact
  policy path.

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
from repro.batching.rotation import NO_COMPLETION_BOUND as _NO_COMPLETION_BOUND, RotationForest
from repro.core.kv_transfer import KVTransferModel
from repro.hardware.machine import MachineSpec
from repro.metrics.collectors import MetricsCollector
from repro.models.llm import ModelSpec
from repro.models.memory import MemoryModel
from repro.models.performance import AnalyticalPerformanceModel, PerformanceModel
from repro.models.power import PowerModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import FINISH_EVENT_PRIORITY, START_EVENT_PRIORITY
from repro.simulation.request import Request, RequestPhase


class MachineRole(enum.Enum):
    """Pool identity of a machine in a Splitwise cluster."""

    PROMPT = "prompt"
    TOKEN = "token"
    MIXED = "mixed"


_COMPLETED = RequestPhase.COMPLETED
_TOKEN_RUNNING = RequestPhase.TOKEN_RUNNING

#: A steady-state run must cover at least this many decode iterations for the
#: macro-event machinery to beat plain per-iteration stepping.
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
        performance_model: Latency model; defaults to the calibrated
            analytical model for (model, spec).
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
            Callers that attach an ``on_iteration_complete`` hook observing
            *wall-clock-accurate* per-iteration timing should disable it:
            coalesced iterations fire the hook once per iteration but in a
            burst at commit time.
    """

    def __init__(
        self,
        name: str,
        spec: MachineSpec,
        model: ModelSpec,
        engine: SimulationEngine,
        role: MachineRole = MachineRole.MIXED,
        policy: BatchingPolicy | None = None,
        performance_model: PerformanceModel | None = None,
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
        self.performance = performance_model or AnalyticalPerformanceModel(model, spec)
        self.power = PowerModel(model, spec)
        self.memory = MemoryModel(model, spec)
        self.metrics = metrics or MetricsCollector()
        self.kv_transfer = kv_transfer
        # Columnar token telemetry (see repro.metrics.token_log): the machine
        # appends iteration-boundary timestamps to its own timeline block and
        # requests reference them as segments.
        self.token_log = self.metrics.token_log
        self._timeline = self.token_log.timeline(name)
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
        self.in_transfer: set[int] = set()
        self._in_transfer_tokens: dict[int, int] = {}
        self._running_plan: BatchPlan | None = None
        self._busy = False
        self.failed = False

        # Incremental queue accounting (tentpole of the O(1) hot path): each
        # counter mirrors a sum the JSQ router used to recompute per probe.
        self._queued_prompt_tokens = 0  # sum(prompt_tokens) over pending_prompts
        self._running_prompt_tokens = 0  # prompt tokens of the running plan
        self._pool_decode_tokens = 0  # sum(remaining_tokens) over token_pool
        self._expected_decode_tokens = 0  # sum of _in_transfer_tokens values
        self._kv_tokens = 0  # sum(context_tokens) over token_pool
        # request_id indexes over the queues for O(1) lookup and withdrawal.
        self._queued_by_id: dict[int, Request] = {}
        self._pool_by_id: dict[int, Request] = {}
        # At most one pending start event per machine (kick collapsing).
        self._start_scheduled = False
        # Aging bookkeeping: pool size at planning time plus admissions until
        # the aging pass lets _finish_iteration derive the skipped count O(1).
        self._pool_len_at_plan = 0
        self._admitted_during_iteration = 0
        self._aging_pending = False
        # request_ids withdrawn while the current iteration is in flight.
        self._withdrawn_ids: set[int] = set()
        self._start_tag = f"{name}:start"
        self._finish_tag = f"{name}:finish"
        self._macro_tag = f"{name}:macro"
        # Pending-finish arguments (one iteration in flight at a time), so the
        # finish event is a reused bound method instead of a fresh closure.
        # The event handle is kept so fail() can tombstone it: a machine that
        # fails and later recovers must not replay the dead iteration.
        self._finish_plan: BatchPlan | None = None
        self._finish_prompt_latency = 0.0
        self._finish_event = None
        # Decode fast-forward state: the macro-event's plan, the per-iteration
        # duration/energy series, the absolute end time of every coalesced
        # iteration, and commit cursors (bookkeeping committed vs. metrics
        # recorded — metrics lead by one because the per-iteration simulator
        # records an iteration when it *starts*).
        self._ff_plan: BatchPlan | None = None
        self._ff_boundaries: array | None = None
        self._ff_durations: array | None = None
        self._ff_energies: array | None = None
        self._ff_count = 0
        self._ff_done = 0
        self._ff_recorded = 0
        self._ff_event = None
        self.fast_forward_runs = 0  # macro-events launched (introspection)
        # Steady-state rotation state (oversubscribed pools): the level forest
        # replaces the flat priority view while active, and the in-flight
        # iteration's selection is precomputed one step ahead so admissions
        # landing mid-iteration cannot retroactively join it.
        self._rot_forest: RotationForest | None = None
        self._rot_selection = None
        self._rot_event = None
        self._rot_tag = f"{name}:rotate"
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
        if self._rot_forest is not None and not self.policy.prefix_mixed_composition:
            # The rotation can't compose this policy's prompt iterations;
            # hand the next boundary back to the exact path.
            self._rotation_interrupt()
        self._ff_interrupt()
        self.pending_prompts.append(request)
        self._queued_prompt_tokens += request.prompt_tokens
        self._queued_by_id[request.request_id] = request
        self._kick()

    def expect_transfer(self, request: Request) -> None:
        """Register a request whose KV-cache will arrive later (for JSQ accounting)."""
        request_id = request.request_id
        previous = self._in_transfer_tokens.get(request_id)
        if previous is not None:
            self._expected_decode_tokens -= previous
        self.in_transfer.add(request_id)
        self._in_transfer_tokens[request_id] = request.output_tokens
        self._expected_decode_tokens += request.output_tokens

    def cancel_transfer(self, request: Request) -> None:
        """Drop a previously expected transfer (request finished in its prompt phase)."""
        self.in_transfer.discard(request.request_id)
        tokens = self._in_transfer_tokens.pop(request.request_id, None)
        if tokens is not None:
            self._expected_decode_tokens -= tokens

    def admit_token_request(self, request: Request) -> None:
        """Admit a request whose KV-cache has arrived into the token pool."""
        if self.failed:
            raise RuntimeError(f"machine {self.name} has failed and cannot accept token requests")
        self.in_transfer.discard(request.request_id)
        tokens = self._in_transfer_tokens.pop(request.request_id, None)
        if tokens is not None:
            self._expected_decode_tokens -= tokens
        if request.phase is _COMPLETED:
            return
        if self._rot_forest is not None:
            if float(request.priority_boost).is_integer():
                # A steady-state rotation absorbs admissions without breaking:
                # the in-flight iteration's batch is already fixed (exactly as
                # a real in-flight iteration's is), and the forest places the
                # newcomer at its boost level, where the next aging pass
                # boosts it just as the per-iteration path's
                # admitted-during-iteration count would.
                self._pool_by_id[request.request_id] = request
                self._pool_decode_tokens += request.output_tokens - request.generated_tokens
                self._kv_tokens += request.prompt_tokens + request.generated_tokens
                self._rot_forest.insert(request)
                return
            # Non-integer boost (external writer): the forest can't represent
            # it; fall back to the exact flat path, like entry does.
            self._rotation_interrupt()
        self._ff_interrupt()
        insort(self._token_ready, request, key=priority_key)
        self._pool_by_id[request.request_id] = request
        self._pool_decode_tokens += request.output_tokens - request.generated_tokens
        self._kv_tokens += request.prompt_tokens + request.generated_tokens
        if self._aging_pending:
            self._admitted_during_iteration += 1
        self._kick()

    def withdraw(self, request: Request) -> None:
        """Remove a request from this machine's queues (cluster restart path).

        Safe to call when the request is not present; any expected KV-cache
        transfer for it is dropped as well.
        """
        self._rotation_interrupt()
        self._ff_interrupt()
        request_id = request.request_id
        if self._queued_by_id.pop(request_id, None) is not None:
            self.pending_prompts.remove(request)
            self._queued_prompt_tokens -= request.prompt_tokens
        if self._pool_by_id.pop(request_id, None) is not None:
            self._remove_ready(request)
            self._pool_decode_tokens -= request.remaining_tokens
            self._kv_tokens -= request.prompt_tokens + request.generated_tokens
            if self._busy:
                # The running plan may reference this request; the finish
                # loop must skip it (a membership re-check is not enough —
                # the restarted request can be re-admitted to this very
                # machine before the stale finish event fires).
                self._withdrawn_ids.add(request_id)
        elif self._busy and self._running_plan is not None:
            # Mid-running-prompt: the request was popped from the queue at
            # iteration start, so neither map holds it — only the running
            # plan does.  Mark it so the finish loop's prompt pass skips it
            # (finish_prompt on a reset request would corrupt the restarted
            # attempt).  `_running_prompt_tokens` is left alone: it is
            # plan-static and reset wholesale when the iteration finishes.
            if any(r is request for r in self._running_plan.prompt_requests):
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
        # Tombstone the in-flight iteration's finish event: the `failed`
        # guard alone is not enough once repair exists — a machine recovered
        # before the stale event fires would replay the dead iteration and
        # complete requests that already restarted elsewhere.
        if self._finish_event is not None:
            self.engine.cancel(self._finish_event)
            self._finish_event = None
        self._finish_plan = None
        affected: list[Request] = []
        affected.extend(self.pending_prompts)
        affected.extend(self._pool_by_id.values())
        if self._running_plan is not None:
            affected.extend(self._running_plan.prompt_requests)
            affected.extend(self._running_plan.token_requests)
        self.pending_prompts.clear()
        self._token_ready.clear()
        self.in_transfer.clear()
        self._in_transfer_tokens.clear()
        self._queued_by_id.clear()
        self._pool_by_id.clear()
        self._queued_prompt_tokens = 0
        self._running_prompt_tokens = 0
        self._pool_decode_tokens = 0
        self._expected_decode_tokens = 0
        self._kv_tokens = 0
        self._running_plan = None
        self._busy = False
        self._aging_pending = False
        self._admitted_during_iteration = 0
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

        Same contract as a power-cap change: any coalesced decode run is
        interrupted first, so the in-flight iteration keeps its committed
        latency and every later iteration sees the new factor — identical
        behaviour with fast-forward on or off.
        """
        if factor == self.performance.slowdown_factor:
            return
        self.interrupt_coalescing()
        self.performance.set_slowdown(factor)

    # -- queue metrics (used by JSQ routing) -------------------------------------------

    @property
    def is_busy(self) -> bool:
        """Whether an iteration is currently executing."""
        return self._busy

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
    def pending_prompt_count(self) -> int:
        """Number of requests waiting for their prompt phase."""
        return len(self.pending_prompts)

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

    def verify_accounting(self) -> None:
        """Cross-check every incremental counter against a full recount.

        Raises:
            AccountingError: if any counter diverged (indicates a missed
                transition in the incremental accounting).
        """
        if self._ff_boundaries is not None:
            self._ff_sync()
        if self._rot_forest is not None:
            # The flat view is dormant while the rotation forest owns the
            # ordering; rebuild it (and the float boosts) for the cross-check,
            # splicing the in-flight selection's extraction back in.  Deferred
            # columnar state is settled so the recounts read exact values
            # (the rotation re-anchors the members on its next service).
            self._token_ready = PriorityOrderedView(self._rot_forest.flatten(self._rot_selection[0]))
            for request in self._token_ready:
                request._flush_service_indices()
        recounts = {
            "_queued_prompt_tokens": sum(r.prompt_tokens for r in self.pending_prompts),
            "_running_prompt_tokens": self._running_plan.prompt_tokens if self._running_plan else 0,
            "_pool_decode_tokens": sum(r.remaining_tokens for r in self._pool_by_id.values()),
            "_expected_decode_tokens": sum(self._in_transfer_tokens.values()),
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

    # -- iteration loop -----------------------------------------------------------------

    def _kick(self) -> None:
        """Start an iteration if the machine is idle and none is already pending."""
        if not self._busy and not self._start_scheduled:
            self._start_scheduled = True
            self.engine.schedule_after(0.0, self._on_start_event, priority=START_EVENT_PRIORITY, tag=self._start_tag)

    def _on_start_event(self) -> None:
        self._start_scheduled = False
        self._start_iteration()

    def _start_iteration(self) -> None:
        if self._busy or self.failed:
            return
        # Oversubscribed steady state: more pool members than batch slots and
        # a prefix-selecting policy — the pool enters the aging rotation,
        # which the level forest steps in O(batch) per iteration instead of
        # O(pool).  Every iteration keeps its own event at the true boundary
        # (so cross-machine callbacks, prompt admissions, and pool restores
        # all run at exact per-iteration times); arrivals and admissions are
        # absorbed live, and only withdrawals, failures, or a binding KV
        # budget fall back to the exact policy path.
        if (
            self.fast_forward_enabled
            and not self._withdrawn_ids
            and len(self._pool_by_id) > self.constraints.max_batch_size
            and self.policy.prefix_token_selection
            and (not self.pending_prompts or self.policy.prefix_mixed_composition)
            and self._try_enter_rotation()
        ):
            return
        # The FCFS-sorted ready view makes the policy's priority ordering a
        # detected no-op whenever no request carries an aging boost.
        plan = self.policy.plan_iteration(
            self.pending_prompts, self._token_ready, self.constraints, self._kv_tokens
        )
        if plan.is_empty:
            return
        self._busy = True
        self._running_plan = plan
        self._pool_len_at_plan = len(self._pool_by_id)
        self._admitted_during_iteration = 0
        self._aging_pending = True

        prompt_tokens = plan.prompt_tokens
        token_requests = len(plan.token_requests)
        context_tokens = plan.context_tokens

        # Steady-state decode: no prompt work anywhere, the whole pool is in
        # the batch (so nothing can age), the per-iteration pool-restore hook
        # is a provable no-op for the whole run, and no mid-iteration
        # withdrawal is pending.  Every following iteration is then identical
        # but for its growing context, so the run can be coalesced into one
        # macro-event.  The pool-restore hook no-ops when the machine sits in
        # its home pool, and also when a prompt-home machine is borrowed by
        # the mixed pool: its token pool (non-empty for the whole run) *is*
        # the foreign work that keeps it borrowed.  A token-home machine in
        # the mixed pool must not coalesce — with no prompt work left it
        # would be restored home after the first iteration.
        if (
            token_requests
            and not plan.prompt_requests
            and not self.pending_prompts
            and self.fast_forward_enabled
            and token_requests == len(self._pool_by_id)
            and (self.role is self.home_role or self.home_role is MachineRole.PROMPT)
            and not self._withdrawn_ids
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
        token_latency = (
            self.performance.token_latency(token_requests, context_tokens) if token_requests else 0.0
        )
        duration = prompt_latency + token_latency

        energy_wh = 0.0
        if prompt_tokens:
            energy_wh += self.power.prompt_energy_wh(prompt_tokens, prompt_latency)
        if token_requests:
            energy_wh += self.power.token_energy_wh(token_requests, token_latency)

        self.metrics.record_iteration(
            self.name,
            duration,
            plan.active_tokens,
            energy_wh,
            prompt_tokens,
            len(plan.prompt_requests) + token_requests,
        )

        now = self.engine.now
        for request in plan.prompt_requests:
            request.start_prompt(now, self.name)

        self._finish_plan = plan
        self._finish_prompt_latency = prompt_latency
        self._finish_event = self.engine.schedule_after(
            duration, self._on_finish_event, priority=FINISH_EVENT_PRIORITY, tag=self._finish_tag
        )

    def _on_finish_event(self) -> None:
        """Finish the single in-flight iteration (reused bound-method callback)."""
        plan = self._finish_plan
        if plan is None:  # pragma: no cover - defensive; _busy gates scheduling
            return
        self._finish_plan = None
        self._finish_event = None
        self._finish_iteration(plan, self._finish_prompt_latency)

    # -- decode fast-forwarding ---------------------------------------------------------

    def _try_fast_forward(self, plan: BatchPlan, token_requests: int) -> bool:
        """Launch a macro-event coalescing the next steady-state decode run.

        Returns False (leaving the caller on the per-iteration path) when the
        run would be too short to pay for itself.  The run length is the
        number of iterations until the earliest completion, additionally
        capped so the pooled KV context — which grows by one token per
        request per iteration — never crosses the budget that would force the
        batching policy to skip a member.
        """
        count = min(r.output_tokens - r.generated_tokens for r in plan.token_requests) - 1
        headroom_iterations = (self.constraints.kv_capacity - plan.context_tokens) // token_requests + 1
        if headroom_iterations < count:
            count = headroom_iterations
        if count < _MIN_COALESCED_ITERATIONS:
            return False

        durations = self.performance.token_latency_series(
            token_requests, plan.context_tokens, token_requests, count
        )
        if not isinstance(durations, array):
            durations = array("d", durations)
        energies = self.power.token_energy_series(token_requests, durations)
        # Boundary j is the end of coalesced iteration j, accumulated with the
        # same left-to-right float additions the event clock would perform.
        boundaries = array("d")
        append = boundaries.append
        time = self.engine.now
        for duration in durations:
            time += duration
            append(time)
        # The boundary series doubles as the run's shared timestamp block:
        # every pool member will reference slices of it instead of copying
        # the floats at commit time.
        self.token_log.note_run_block(boundaries)

        self._ff_plan = plan
        self._ff_durations = durations
        self._ff_energies = energies
        self._ff_boundaries = boundaries
        self._ff_count = count
        self._ff_done = 0
        self._ff_recorded = 0
        self._ff_event = self.engine.schedule_at(
            boundaries[-1], self._on_macro_event, priority=FINISH_EVENT_PRIORITY, tag=self._macro_tag
        )
        self.fast_forward_runs += 1
        # The first coalesced iteration starts now; record its metrics (the
        # per-iteration path records an iteration when it starts).
        self._ff_sync()
        return True

    def _ff_sync(self) -> None:
        """Commit every coalesced iteration the simulated clock has passed.

        Called before any observation of pool state (queue probes, accounting
        checks) and on every interrupt, so mid-run observers see exactly the
        state the per-iteration simulator would expose at the same timestamp:
        bookkeeping for iterations whose boundary has passed, metrics for
        iterations that have started.
        """
        boundaries = self._ff_boundaries
        if boundaries is None:
            return
        finished = bisect_right(boundaries, self.engine.now)
        done = self._ff_done
        if finished > done:
            self._ff_commit(done, finished)
            self._ff_done = finished
        started = finished + 1
        count = self._ff_count
        if started > count:
            started = count
        recorded = self._ff_recorded
        if started > recorded:
            plan = self._ff_plan
            n = len(plan.token_requests)
            self.metrics.record_coalesced(
                self.name,
                started - recorded,
                n,  # decode-only batch: active tokens == batched requests
                memoryview(self._ff_durations)[recorded:started],
                memoryview(self._ff_energies)[recorded:started],
                n,
            )
            self._ff_recorded = started

    def _ff_commit(self, start: int, stop: int) -> None:
        """Apply the bookkeeping of coalesced iterations ``[start, stop)``.

        Equivalent to running ``stop - start`` per-iteration finish loops: one
        token per pool member per iteration, timestamps at the precomputed
        boundaries, counters moved by exact integer totals.  No member can
        complete (the run stops one iteration short of the earliest
        completion) and nothing can age (the whole pool is in the batch), so
        the completion/aging arms of the per-iteration loop are provably dead
        here.

        Columnar recording makes the commit O(members): each member's tail
        segment grows to cover ``boundaries[start:stop)`` by reference —
        consecutive commits of one run extend the same segment — instead of
        copying ``stop - start`` floats per member.
        """
        plan = self._ff_plan
        count = stop - start
        boundaries = self._ff_boundaries
        for request in plan.token_requests:
            if request._tail_block is boundaries and request._tail_start + request._tail_count == start:
                request._tail_count += count
            else:
                # Settle any deferred rotation state before touching the
                # generated count, then open (or re-home) the tail.
                request._flush_service_indices()
                request._close_tail()
                request._tail_block = boundaries
                request._tail_start = start
                request._tail_count = count
            request.generated_tokens += count
            request.phase = _TOKEN_RUNNING
        generated = count * len(plan.token_requests)
        self._pool_decode_tokens -= generated
        self._kv_tokens += generated
        on_iteration_complete = self.on_iteration_complete
        if on_iteration_complete is not None:
            for _ in range(count):
                on_iteration_complete(self)

    def _ff_clear(self, fired: bool) -> None:
        """Tear down the fast-forward state, crediting coalesced event counts."""
        # Every committed iteration ran without its own queue entry, except
        # the one the macro-event itself finished (when it fired).
        self.engine.note_coalesced(self._ff_done - 1 if fired else self._ff_done)
        if not fired and self._ff_event is not None:
            self.engine.cancel(self._ff_event)
        self._ff_plan = None
        self._ff_boundaries = None
        self._ff_durations = None
        self._ff_energies = None
        self._ff_event = None
        self._ff_count = self._ff_done = self._ff_recorded = 0

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
        plan = self._ff_plan
        if in_flight >= self._ff_count:
            # The run is fully committed (the interrupter fired at the final
            # boundary, winning the tie against the macro-event): the machine
            # is idle; re-plan via a fresh kick once the caller's transition
            # lands.
            self._ff_clear(fired=False)
            self._busy = False
            self._running_plan = None
            self._aging_pending = False
            self._admitted_during_iteration = 0
            self._kick()
            return
        end_time = boundaries[in_flight]
        self._ff_clear(fired=False)
        self._finish_plan = plan
        self._finish_prompt_latency = 0.0
        self._finish_event = self.engine.schedule_at(
            end_time, self._on_finish_event, priority=FINISH_EVENT_PRIORITY, tag=self._finish_tag
        )

    def _on_macro_event(self) -> None:
        """Finish a completed steady-state run and re-plan."""
        if self.failed or self._ff_boundaries is None:  # pragma: no cover - defensive
            return
        self._ff_sync()  # now == final boundary: commits the whole run
        self._ff_clear(fired=True)
        self._busy = False
        self._running_plan = None
        self._aging_pending = False
        self._admitted_during_iteration = 0
        self._start_iteration()

    # -- oversubscribed-pool rotation ----------------------------------------------------

    def _try_enter_rotation(self) -> bool:
        """Switch the pool into forest-backed rotation stepping.

        Returns False — leaving the caller on the exact policy path — when
        the pool carries non-integer boosts (external writer) or the very
        first iteration can't be composed (a KV-budget skip would be needed).
        """
        forest = RotationForest.from_ordered_view(self._token_ready)
        if forest is None:
            return False
        self._rot_forest = forest
        self._busy = True
        self._aging_pending = False
        self._admitted_during_iteration = 0
        if not self._rot_begin_iteration():
            self._rot_forest = None
            self._busy = False
            return False
        self.rotation_runs += 1
        return True

    def _rot_begin_iteration(self) -> bool:
        """Compose and start one rotation iteration at the current instant.

        Reproduces the per-iteration start path exactly — FCFS prompt
        admission, prefix token selection, the same latency/energy/metric
        calls — against the forest instead of the flat view.  The iteration
        is fixed here, one boundary ahead, so later arrivals cannot join it,
        just as a real in-flight plan is fixed at its start.  Returns False
        (without side effects) when composition needs the exact policy path.
        """
        constraints = self.constraints
        pending = self.pending_prompts
        prompt_count = 0
        prompt_tokens = 0
        if pending:
            if not self.policy.prefix_mixed_composition:
                return False
            # Non-destructive replica of FCFS prompt admission: count and sum
            # first, pop only once the iteration is definitely rotation-run.
            max_prompt_tokens = constraints.max_prompt_tokens
            slots = constraints.max_batch_size
            for request in pending:
                if prompt_count and prompt_tokens + request.prompt_tokens > max_prompt_tokens:
                    break
                prompt_count += 1
                prompt_tokens += request.prompt_tokens
                if prompt_count >= slots:
                    break
        selection = self._rot_forest.select(
            constraints.max_batch_size - prompt_count,
            constraints.kv_capacity - prompt_tokens if prompt_tokens <= constraints.kv_capacity else 0,
        )
        if selection is None:
            return False

        prompts: list[Request] = []
        if prompt_count:
            queued_by_id = self._queued_by_id
            popleft = pending.popleft
            for _ in range(prompt_count):
                request = popleft()
                prompts.append(request)
                queued_by_id.pop(request.request_id, None)
            self._queued_prompt_tokens -= prompt_tokens
            self._running_prompt_tokens = prompt_tokens
        token_requests = selection.count
        # The plan's token list is materialized lazily: the stepper services
        # the selection's segments directly, and every reader of a rotation
        # plan's ``token_requests`` (interrupts, failures) goes through
        # ``_rotation_interrupt``, which rebuilds the list from the
        # flattened view anyway.
        plan = BatchPlan(
            prompt_requests=prompts,
            token_requests=[],
            prompt_tokens=prompt_tokens,
            context_tokens=selection.context,
        )
        self._running_plan = plan

        if prompt_tokens:
            prompt_latency = self.performance.prompt_latency(prompt_tokens)
            prompt_latency *= self._transfer_interference(plan)
        else:
            prompt_latency = 0.0
        # The rotating batch's (count, context) key is transient (context
        # grows every iteration), so the memo table would only churn; the
        # uncached path computes the same value operation-for-operation
        # without touching it.
        token_latency = (
            self.performance.token_latency_uncached(token_requests, selection.context)
            if token_requests
            else 0.0
        )
        duration = prompt_latency + token_latency

        energy_wh = 0.0
        if prompt_tokens:
            energy_wh += self.power.prompt_energy_wh(prompt_tokens, prompt_latency)
        if token_requests:
            energy_wh += self.power.token_energy_wh(token_requests, token_latency)

        self._stats.add_iteration(
            duration, prompt_tokens + token_requests, energy_wh, prompt_tokens,
            prompt_count + token_requests,
        )

        if prompts:
            now = self.engine.now
            name = self.name
            for request in prompts:
                request.start_prompt(now, name)

        self._rot_selection = (selection, plan, prompt_latency)
        self._rot_event = self.engine.schedule_after(
            duration, self._on_rotation_step, priority=FINISH_EVENT_PRIORITY, tag=self._rot_tag
        )
        return True

    def _on_rotation_step(self) -> None:
        """Finish the in-flight rotation iteration and start the next."""
        forest = self._rot_forest
        if self.failed or forest is None:  # pragma: no cover - defensive; exits cancel the stepper
            return
        selection, plan, prompt_latency = self._rot_selection
        now = self.engine.now
        self._running_prompt_tokens = 0
        self._running_plan = None

        if plan.prompt_requests:
            on_prompt_complete = self.on_prompt_complete
            on_request_complete = self.on_request_complete
            for request in plan.prompt_requests:
                request.finish_prompt(now)
                if on_prompt_complete is not None:
                    on_prompt_complete(request, self, prompt_latency)
                if request.phase is _COMPLETED and on_request_complete is not None:
                    on_request_complete(request, self)

        offset = forest.offset
        pool_by_id = self._pool_by_id
        on_request_complete = self.on_request_complete
        serviced = 0
        kv_delta = 0
        completed_extracted_context = 0
        split_level = selection.split_level
        split_completed = False
        # Columnar recording with deferred member state: the boundary
        # timestamp is appended once to the machine's timeline block and
        # each serviced member appends the boundary's *position* to its
        # own packed index column — the steady-state loop is that one
        # C-level integer append.  ``generated_tokens``/``phase`` catch
        # up lazily (the true count is derivable from the column), and
        # completions are settled exactly at the boundaries where a
        # run's conservative min-remaining bound says the earliest
        # member can finish.
        timeline = self._timeline
        if selection.count:
            timeline.append(now)
            index = len(timeline) - 1
        split_bound = selection.split_bound
        for level, run, members in selection.segments:
            count = len(members)
            serviced += count
            if run is not None:
                # Every live member's effective context grew by one.
                run.context += count
            for request in members:
                if request._svc_block is timeline:
                    request._svc_indices.append(index)
                else:
                    # Mode/machine switch: seal the other open run first
                    # so segments stay chronological, then re-anchor the
                    # derived-count invariant.
                    request._flush_service_indices()
                    request._close_tail()
                    indices = request._svc_indices
                    if indices is None:
                        indices = request._svc_indices = array("q")
                    request._svc_block = timeline
                    request._svc_base = request.generated_tokens - len(indices)
                    indices.append(index)
            completed = None
            bound = (run.min_remaining if run is not None else split_bound) - 1
            if bound <= 0:
                # The earliest member may finish at this boundary: settle
                # completions exactly and re-derive the bound.  (Bounds
                # are conservative — chops inherit them — so the walk may
                # find nothing and simply tighten.)
                boost = float(
                    (level.stored if level is not None else split_level.stored) + offset
                )
                bound = _NO_COMPLETION_BOUND
                for request in members:
                    remaining = (
                        request.output_tokens
                        - request._svc_base
                        - len(request._svc_indices)
                    )
                    if remaining == 0:
                        request.generated_tokens = generated = request.output_tokens
                        request.phase = _COMPLETED
                        request.completion_time = now
                        request.priority_boost = boost
                        if completed is None:
                            completed = []
                        pre_context = request.prompt_tokens + generated - 1
                        completed.append((request, pre_context))
                        if level is None:
                            completed_extracted_context += pre_context
                            split_completed = True
                        else:
                            run.context -= pre_context + 1
                        del pool_by_id[request.request_id]
                        kv_delta -= request.prompt_tokens + generated
                        if on_request_complete is not None:
                            on_request_complete(request, self)
                    elif remaining < bound:
                        if remaining < 0:  # pragma: no cover - defensive
                            raise RuntimeError(
                                f"request {request.request_id} already complete"
                            )
                        bound = remaining
            if run is not None:
                run.min_remaining = bound
            else:
                split_bound = bound
            # Level-cache maintenance: every serviced survivor's context
            # grew by one; completers leave their level entirely (split
            # members are not levelled until the aging commit).
            if level is not None:
                survivors_here = count
                if completed is not None:
                    removed_context = 0
                    for _request, pre_context in completed:
                        removed_context += pre_context
                    level.size -= len(completed)
                    level.context -= removed_context
                    done = {id(_request) for _request, _ in completed}
                    run.members = [r for r in run.live() if id(r) not in done]
                    run.start = 0
                    survivors_here -= len(completed)
                level.context += survivors_here
        self._pool_decode_tokens -= serviced
        self._kv_tokens += serviced + kv_delta
        if split_level is not None:
            if split_completed:
                survivors = [r for r in selection.extracted if r.phase is not _COMPLETED]
            else:
                survivors = selection.extracted
            # Post-service context of the surviving extraction, without
            # re-walking it: pre-service total, minus completed members'
            # pre-service contexts, plus one generated token per survivor.
            survivors_context = selection.extracted_context - completed_extracted_context + len(survivors)
            survivors_bound = split_bound
        else:
            survivors = []
            survivors_context = 0
            survivors_bound = _NO_COMPLETION_BOUND
        forest.commit_aging(selection, survivors, survivors_context, survivors_bound)
        if self.on_iteration_complete is not None:
            self.on_iteration_complete(self)
        if len(pool_by_id) <= self.constraints.max_batch_size:
            # The pool now fits one batch: hand over to the full-pool
            # coalescing (or plain stepping) via a fresh planning pass.
            self._rotation_close()
            return
        if not self._rot_begin_iteration():
            self._rotation_close()

    def _rotation_close(self) -> None:
        """Exit rotation at an iteration boundary and re-plan normally."""
        self._materialize_rotation(None)
        self._busy = False
        self._start_iteration()

    def _materialize_rotation(self, inflight) -> None:
        """Flatten the forest back into the flat priority view (+ float boosts).

        Columnar members settle their deferred state on the way out: every
        consumer of the flat view (policies, fast-forward planning, restart
        withdrawals) reads ``generated_tokens`` directly.
        """
        forest = self._rot_forest
        self._rot_forest = None
        self._rot_selection = None
        self._rot_event = None
        flat = forest.flatten(inflight)
        for request in flat:
            request._flush_service_indices()
        self._token_ready = PriorityOrderedView(flat)

    def _rotation_interrupt(self) -> None:
        """Fall back to per-iteration stepping before a pool transition.

        The in-flight iteration keeps its already-fixed batch: its stepper
        event is replaced by a normal finish event at the same boundary (so
        completions, aging, and withdrawals take the standard code path), and
        the forest is flattened back into the flat view the standard path
        maintains.
        """
        if self._rot_forest is None:
            return
        selection, plan, prompt_latency = self._rot_selection
        boundary = self._rot_event.time
        self.engine.cancel(self._rot_event)
        self._materialize_rotation(selection)
        # The token selection is by construction the first `count` members of
        # the flat view; re-slicing the rebuilt view yields the same set in
        # exact view order, which the aging pass's subsequence walk relies on
        # (sibling-run segments may interleave within a level).
        plan.token_requests = list(self._token_ready[: selection.count])
        self._running_plan = plan
        self._finish_plan = plan
        self._finish_prompt_latency = prompt_latency
        self._pool_len_at_plan = len(self._pool_by_id)
        self._admitted_during_iteration = 0
        self._aging_pending = True
        self._finish_event = self.engine.schedule_at(
            boundary, self._on_finish_event, priority=FINISH_EVENT_PRIORITY, tag=self._finish_tag
        )

    def sync_fast_forward(self) -> None:
        """Materialize any coalesced-but-uncommitted iterations up to now.

        Cluster drivers call this after a horizon-limited run so that partial
        results match what per-iteration stepping would have produced by the
        same simulated time.  Rotation bookkeeping is always current at the
        clock, but its float boosts and flat view are materialized here for
        post-run readers.  A no-op when nothing is coalesced.
        """
        self._ff_sync()
        # A rotation in flight at a horizon stop is converted to a pending
        # per-iteration finish — exactly the state per-iteration stepping
        # leaves behind when the clock stops mid-iteration.
        self._rotation_interrupt()

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

    def notify_power_cap_change(self) -> None:
        """Invalidate memoized latency/energy tables after a power-cap change.

        Interrupts any in-flight macro-event first: its precomputed series
        reflect the old cap, and only iterations that already started may
        keep it (the in-flight iteration completes under the latency it was
        launched with, exactly like the per-iteration simulator).
        """
        self._ff_interrupt()
        self.performance.invalidate_caches()
        self.power.invalidate_caches()

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
                    request.priority_boost += 1.0
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
                    request.priority_boost += 1.0
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
        if self.failed:
            # The machine died mid-iteration; its results are lost.
            return
        now = self.engine.now
        self._busy = False
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
        generated_count = 0
        kv_delta = 0
        token_requests = plan.token_requests
        if token_requests:
            # Columnar recording: the boundary timestamp is appended once to
            # the machine's timeline block; each serviced request extends (or
            # opens) a tail segment referencing it — consecutive services on
            # this machine coalesce into one segment.
            timeline = self._timeline
            # Appended lazily on the first recorded member: a plan whose
            # token requests were all withdrawn mid-iteration must not leave
            # an orphan boundary in the timeline block.
            index = -1
            for request in token_requests:
                if withdrawn and request.request_id in withdrawn:
                    continue
                if request.phase is _COMPLETED:
                    raise RuntimeError(f"request {request.request_id} already complete")
                if index < 0:
                    timeline.append(now)
                    index = len(timeline) - 1
                if request._tail_block is timeline and request._tail_start + request._tail_count == index:
                    request._tail_count += 1
                else:
                    # Settle any deferred rotation state before reading the
                    # generated count, then open a fresh tail.
                    request._flush_service_indices()
                    request._close_tail()
                    request._tail_block = timeline
                    request._tail_start = index
                    request._tail_count = 1
                generated = request.generated_tokens + 1
                request.generated_tokens = generated
                generated_count += 1
                if generated < request.output_tokens:
                    request.phase = _TOKEN_RUNNING
                else:
                    request.phase = _COMPLETED
                    request.completion_time = now
                    del pool_by_id[request.request_id]
                    self._remove_ready(request)
                    kv_delta -= request.prompt_tokens + generated
                    if on_request_complete is not None:
                        on_request_complete(request, self)
        if generated_count:
            self._pool_decode_tokens -= generated_count
            self._kv_tokens += generated_count + kv_delta

        # Aging: requests left out of this iteration gain priority so that
        # preemption (on mixed machines) cannot starve them (§IV-B).  The
        # skipped count is derived O(1) from the pool size at planning time;
        # in the common fully-batched case there is nothing to age.
        skipped = self._pool_len_at_plan - len(plan.token_requests) + self._admitted_during_iteration
        if skipped:
            self._age_skipped(plan)
        self._aging_pending = False
        self._admitted_during_iteration = 0
        if self._withdrawn_ids:
            self._withdrawn_ids.clear()

        if self.on_iteration_complete is not None:
            self.on_iteration_complete(self)

        self._start_iteration()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedMachine(name={self.name!r}, spec={self.spec.name!r}, role={self.role.value!r}, "
            f"prompts={len(self.pending_prompts)}, tokens={len(self._pool_by_id)})"
        )
