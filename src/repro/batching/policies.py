"""Batching policies that decide the composition of each forward-pass iteration.

A policy receives the machine's pending prompt queue and the set of requests
currently in their token phase, plus the machine's constraints (prompt token
budget, maximum batch size, KV-cache memory headroom), and returns a
:class:`BatchPlan` for the next iteration.

The three policies mirror Fig. 2 of the paper.  All policies respect the
same constraints; they differ only in *when* requests are admitted and
whether prompt and token work may share an iteration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.simulation.request import Request

#: Default cap on batched prompt tokens per iteration (Insight IV / §IV-B:
#: prompt throughput degrades past ~2048 batched tokens).
DEFAULT_MAX_PROMPT_TOKENS = 2048

#: Default cap on the number of requests decoded together in one iteration.
DEFAULT_MAX_BATCH_SIZE = 64

#: Sentinel KV budget used when a machine has no configured memory model
#: (``max_kv_tokens == 0`` means "unlimited").
_UNBOUNDED_KV_TOKENS = 2**62


def priority_key(request: "Request") -> tuple[float, float, int]:
    """Scheduling order of the token pool: aged first, then FCFS.

    The ``request_id`` component makes the key a total order, so any two
    orderings produced with it are identical — the basis for maintaining the
    order incrementally instead of re-sorting every iteration.
    """
    return (-request.priority_boost, request.arrival_time, request.request_id)


class PriorityOrderedView(list):
    """A token pool whose owner guarantees :func:`priority_key` order.

    Policies treat this as pre-sorted and skip their ordering pass entirely;
    a machine maintains the invariant incrementally (binary-search inserts on
    admission, binary-search removals, and a two-run merge after each aging
    pass).  Plain lists keep the legacy check-then-sort behavior.
    """

    __slots__ = ()


@dataclass(frozen=True)
class BatchConstraints:
    """Limits the scheduler must respect when composing an iteration.

    Attributes:
        max_prompt_tokens: Maximum batched prompt tokens per iteration.
        max_batch_size: Maximum number of requests (prompt + token) batched.
        max_kv_tokens: KV-cache capacity of the machine in tokens; requests
            whose combined context would exceed it cannot all be batched.
            ``0`` means the memory model is unconfigured and the KV-cache is
            treated as unlimited.
    """

    max_prompt_tokens: int = DEFAULT_MAX_PROMPT_TOKENS
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    max_kv_tokens: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_prompt_tokens < 1:
            raise ValueError(f"max_prompt_tokens must be >= 1, got {self.max_prompt_tokens}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_kv_tokens < 0:
            raise ValueError(f"max_kv_tokens must be >= 0, got {self.max_kv_tokens}")

    @property
    def kv_capacity(self) -> int:
        """Effective KV budget in tokens (``max_kv_tokens`` with 0 = unlimited)."""
        return self.max_kv_tokens or _UNBOUNDED_KV_TOKENS


@dataclass
class BatchPlan:
    """The composition of one iteration.

    The token totals are computed once at construction time: a plan is
    immutable after the policy returns it, and the simulator reads
    ``prompt_tokens`` on every queue probe of the owning machine, so eager
    totals keep those probes O(1).

    Attributes:
        prompt_requests: Requests whose prompt phase runs this iteration.
        token_requests: Requests that generate one token this iteration.
        prompt_tokens: Total prompt tokens processed this iteration.
        context_tokens: Total cached context read by token-phase requests
            this iteration (snapshot at planning time).
    """

    prompt_requests: list[Request] = field(default_factory=list)
    token_requests: list[Request] = field(default_factory=list)
    #: Totals may be passed by policies that already accumulated them during
    #: selection; negative sentinels trigger a recount for direct construction.
    prompt_tokens: int = -1
    context_tokens: int = -1

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0:
            self.prompt_tokens = sum(r.prompt_tokens for r in self.prompt_requests)
        if self.context_tokens < 0:
            self.context_tokens = sum(r.prompt_tokens + r.generated_tokens for r in self.token_requests)

    @property
    def is_empty(self) -> bool:
        """True when the iteration has no work."""
        return not self.prompt_requests and not self.token_requests

    @property
    def active_tokens(self) -> int:
        """Active tokens as defined in Fig. 4."""
        return self.prompt_tokens + len(self.token_requests)


class BatchingPolicy(ABC):
    """Decides which requests run in the next iteration of one machine."""

    name: str = "abstract"

    #: True when, given an empty prompt queue, the policy's token selection is
    #: exactly the first ``max_batch_size`` pool members in priority order
    #: (skipping only over-budget members).  A machine's rotation forest
    #: relies on this to reproduce the selection without invoking the policy.
    prefix_token_selection: bool = False

    #: True when, with prompts queued, the policy composes an iteration as
    #: FCFS prompt admission (:meth:`_select_prompts_with_total`) followed by
    #: prefix token selection over the remaining slots (the mixed continuous
    #: shape).  Lets a forest-ordered pool keep its forest while prompts queue.
    prefix_mixed_composition: bool = False

    @abstractmethod
    def plan_iteration(
        self,
        pending_prompts: deque[Request],
        token_pool: Sequence[Request],
        constraints: BatchConstraints,
        pool_context_tokens: int | None = None,
    ) -> BatchPlan:
        """Compose the next iteration.

        Args:
            pending_prompts: FCFS queue of requests waiting for their prompt
                phase.  The policy pops the requests it admits.
            token_pool: Requests currently in their token-generation phase on
                this machine (never popped; the policy selects a subset).
            constraints: Machine limits.
            pool_context_tokens: Optional exact total context (KV tokens) of
                ``token_pool``, supplied by owners that track it incrementally.
                Enables an O(1) whole-pool selection when the pool trivially
                fits the batch (the common steady-decode case); selection
                semantics are unchanged.
        """

    @staticmethod
    def _priority_order(token_pool: Iterable[Request]) -> Iterable[Request]:
        """The pool in ``(-priority_boost, arrival_time, request_id)`` order.

        A :class:`PriorityOrderedView` is returned as-is (its owner maintains
        the order incrementally, making this O(1)).  Any other sequence is
        checked in one O(n) scan — machines admit token requests roughly FCFS,
        so an unboosted pool is often already ordered — and re-sorted only
        when the scan finds a violation.
        """
        if isinstance(token_pool, PriorityOrderedView):
            return token_pool
        previous: tuple[float, float, int] | None = None
        for request in token_pool:
            key = priority_key(request)
            if previous is not None and key < previous:
                break
            previous = key
        else:
            return token_pool
        return sorted(token_pool, key=priority_key)

    @staticmethod
    def _select_tokens_with_total(
        token_pool: Iterable[Request],
        constraints: BatchConstraints,
        slots: int,
        kv_budget: int,
        pool_context_tokens: int | None = None,
    ) -> tuple[list[Request], int]:
        """Pick token-phase requests FCFS by arrival, respecting slots and memory.

        Returns the selection plus its total context tokens (accumulated while
        selecting, so the batch plan never recounts it).
        """
        selected: list[Request] = []
        if slots <= 0:
            return selected, 0
        if (
            pool_context_tokens is not None
            and isinstance(token_pool, PriorityOrderedView)
            and len(token_pool) <= slots
            and pool_context_tokens <= kv_budget
        ):
            # Whole pool fits: the scan below would admit every member in
            # view order with this exact context total, so skip it.
            return list(token_pool), pool_context_tokens
        pool = token_pool if isinstance(token_pool, list) else list(token_pool)
        used_kv = 0
        append = selected.append
        for request in BatchingPolicy._priority_order(pool):
            context = request.prompt_tokens + request.generated_tokens
            if used_kv + context > kv_budget:
                continue
            append(request)
            used_kv += context
            slots -= 1
            if slots <= 0:
                break
        return selected, used_kv

    @staticmethod
    def _select_prompts_with_total(
        pending_prompts: deque[Request], constraints: BatchConstraints, slots: int
    ) -> tuple[list[Request], int]:
        """Pop prompts FCFS until the token budget or slot budget is exhausted.

        The first prompt is always admitted even if it alone exceeds the token
        budget (a single oversized prompt must still run).  Returns the
        selection plus its total prompt tokens.
        """
        selected: list[Request] = []
        used_tokens = 0
        max_prompt_tokens = constraints.max_prompt_tokens
        while pending_prompts and len(selected) < slots:
            candidate = pending_prompts[0]
            if selected and used_tokens + candidate.prompt_tokens > max_prompt_tokens:
                break
            selected.append(pending_prompts.popleft())
            used_tokens += candidate.prompt_tokens
        return selected, used_tokens


class MixedContinuousBatching(BatchingPolicy):
    """Prompts and token generation share each iteration (Fig. 2c).

    Prompts are admitted first (they gate TTFT and are considered more
    important, §IV-B); remaining batch slots and KV-cache headroom go to
    token-phase requests.  Token requests that do not fit are effectively
    preempted for this iteration.
    """

    name = "mixed-continuous"
    prefix_token_selection = True
    prefix_mixed_composition = True

    def plan_iteration(
        self,
        pending_prompts: deque[Request],
        token_pool: Sequence[Request],
        constraints: BatchConstraints,
        pool_context_tokens: int | None = None,
    ) -> BatchPlan:
        prompts, prompt_tokens = self._select_prompts_with_total(
            pending_prompts, constraints, constraints.max_batch_size
        )
        remaining_slots = constraints.max_batch_size - len(prompts)
        kv_budget = constraints.kv_capacity - prompt_tokens
        tokens, context_tokens = self._select_tokens_with_total(
            token_pool, constraints, remaining_slots, max(0, kv_budget), pool_context_tokens
        )
        return BatchPlan(
            prompt_requests=prompts,
            token_requests=tokens,
            prompt_tokens=prompt_tokens,
            context_tokens=context_tokens,
        )


class ContinuousBatching(BatchingPolicy):
    """Iteration-level batching with phase-exclusive batches (Fig. 2b).

    Scheduling decisions happen every iteration, but an iteration holds either
    only prompt-phase requests or only token-phase requests.  Waiting prompts
    preempt token generation, which shortens TTFT but inflates tail TBT.
    """

    name = "continuous"
    prefix_token_selection = True

    def plan_iteration(
        self,
        pending_prompts: deque[Request],
        token_pool: Sequence[Request],
        constraints: BatchConstraints,
        pool_context_tokens: int | None = None,
    ) -> BatchPlan:
        if pending_prompts:
            prompts, prompt_tokens = self._select_prompts_with_total(
                pending_prompts, constraints, constraints.max_batch_size
            )
            return BatchPlan(prompt_requests=prompts, prompt_tokens=prompt_tokens, context_tokens=0)
        tokens, context_tokens = self._select_tokens_with_total(
            token_pool, constraints, constraints.max_batch_size, constraints.kv_capacity, pool_context_tokens
        )
        return BatchPlan(token_requests=tokens, prompt_tokens=0, context_tokens=context_tokens)


class RequestLevelBatching(BatchingPolicy):
    """Classic request-level batching (Fig. 2a).

    A batch is formed from the pending queue and runs — prompt phase then all
    token iterations — until every request in it completes; only then is the
    next batch admitted.  Requests arriving in between wait, which is what
    produces the long TTFT tail in the paper's comparison.

    The policy is stateful (it tracks the in-flight batch), so use one
    instance per machine.
    """

    name = "request-level"

    def __init__(self) -> None:
        self._current_batch: list[Request] = []

    def plan_iteration(
        self,
        pending_prompts: deque[Request],
        token_pool: Sequence[Request],
        constraints: BatchConstraints,
        pool_context_tokens: int | None = None,
    ) -> BatchPlan:
        # The in-flight batch may be a strict subset of the pool, so the
        # whole-pool context hint does not apply here.
        del pool_context_tokens
        self._current_batch = [r for r in self._current_batch if not r.is_complete]
        if not self._current_batch:
            # Admit a new batch: all its prompts run in the first iteration.
            admitted, prompt_tokens = self._select_prompts_with_total(
                pending_prompts, constraints, constraints.max_batch_size
            )
            self._current_batch = admitted
            return BatchPlan(prompt_requests=admitted, prompt_tokens=prompt_tokens, context_tokens=0)
        # Continue decoding only the members of the in-flight batch.
        in_flight = [r for r in token_pool if r in self._current_batch]
        tokens, context_tokens = self._select_tokens_with_total(
            in_flight, constraints, constraints.max_batch_size, constraints.kv_capacity
        )
        return BatchPlan(token_requests=tokens, prompt_tokens=0, context_tokens=context_tokens)


_POLICIES = {
    "request-level": RequestLevelBatching,
    "continuous": ContinuousBatching,
    "mixed-continuous": MixedContinuousBatching,
    "mixed": MixedContinuousBatching,
}


def make_policy(name: str) -> BatchingPolicy:
    """Instantiate a batching policy by name.

    Raises:
        KeyError: if the policy name is unknown.
    """
    key = name.lower()
    if key not in _POLICIES:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"Unknown batching policy {name!r}; known policies: {known}")
    return _POLICIES[key]()
