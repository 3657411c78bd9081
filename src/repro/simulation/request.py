"""Runtime request objects and their phase state machine.

A :class:`Request` wraps a trace descriptor and records every timestamp the
latency metrics need: arrival, prompt start/end (TTFT), each generated token
(TBT series), KV-cache transfer window, and completion (E2E).  The phase
enum mirrors the lifecycle in the paper's Fig. 1 and Fig. 10: a request is
queued, runs its prompt phase on a prompt machine, has its KV-cache shipped
to a token machine, generates tokens there, and completes.

``Request`` is the most frequently touched object in a cluster simulation
(every generated token mutates one), so it is a ``__slots__`` class with the
immutable descriptor fields (``request_id``, ``arrival_time``,
``prompt_tokens``, ``output_tokens``) copied into plain attributes at
construction — attribute reads on the hot path cost one slot lookup instead
of a property call plus a descriptor indirection.

Token times live in one packed ``array('d')`` per request
(:attr:`Request.token_times`).  Every stepping path appends to it as it
generates tokens, so ``len(token_times) == generated_tokens`` holds after
every event (see ``docs/telemetry.md``).
"""

from __future__ import annotations

import enum
from array import array

import numpy as np

from repro.workload.trace import RequestDescriptor


class RequestPhase(enum.Enum):
    """Lifecycle phases of an inference request."""

    QUEUED = "queued"
    PROMPT_RUNNING = "prompt_running"
    KV_TRANSFER = "kv_transfer"
    TOKEN_QUEUED = "token_queued"
    TOKEN_RUNNING = "token_running"
    COMPLETED = "completed"
    EXPIRED = "expired"


class Request:
    """A live request flowing through the simulated cluster.

    Requests are mutable runtime objects with identity semantics: two distinct
    ``Request`` instances are never equal, and they can be stored in sets and
    dict keys (hashed by identity).

    Attributes:
        descriptor: The immutable trace record (sizes and arrival time).
        request_id: Trace-level request id (copied from the descriptor).
        tenant: Tenant tag (copied from the descriptor; groups per-tenant
            SLO accounting and drives tenant-aware fleet routing).
        arrival_time: Arrival time in seconds from trace start.
        prompt_tokens: Number of prompt (input) tokens.
        output_tokens: Number of output tokens the request must generate.
        phase: Current lifecycle phase.
        prompt_machine: Name of the machine assigned to the prompt phase.
        token_machine: Name of the machine assigned to the token phase.
        prompt_start_time: When the prompt phase began executing.
        first_token_time: When the first output token was produced (TTFT end).
        token_times: Emission time of every generated token, including the
            first one produced by the prompt phase (packed ``array('d')``).
        completion_time: When the last token was produced.
        generated_tokens: Number of output tokens produced so far.
        kv_transfer_start: When the KV-cache transfer began.
        kv_transfer_end: When the KV-cache transfer finished.
        priority_boost: Number of iterations the request was left out of its
            batch (aging, §IV-B: it raises the request's priority so mixed
            machines cannot starve it after preemption).
        restarts: Number of times the request was restarted from scratch after
            a machine failure (§IV-E: Splitwise restarts failed requests).
        shed: Whether the fleet rejected the request for good: admission
            control up front, or no cluster could take it (it will never
            complete).
        ttft_deadline_s: TTFT deadline in seconds from arrival (``None`` when
            no deadline applies — either none was configured, or the
            lifecycle layer resolved a per-tenant default onto this slot).
        e2e_deadline_s: End-to-end deadline in seconds from arrival.
        expired: Whether a deadline timer cancelled the request; expired
            requests never complete and are censused separately from shed.
        degraded: Whether the request is being served in degraded mode (its
            ``output_tokens`` budget was truncated instead of dropping the
            request); degraded completions are reported separately in
            goodput.
    """

    __slots__ = (
        "descriptor",
        "request_id",
        "tenant",
        "arrival_time",
        "prompt_tokens",
        "output_tokens",
        "phase",
        "prompt_machine",
        "token_machine",
        "prompt_start_time",
        "first_token_time",
        "completion_time",
        "generated_tokens",
        "kv_transfer_start",
        "kv_transfer_end",
        "priority_boost",
        "restarts",
        "shed",
        "ttft_deadline_s",
        "e2e_deadline_s",
        "expired",
        "degraded",
        "token_times",
    )

    def __init__(self, descriptor: RequestDescriptor, phase: RequestPhase = RequestPhase.QUEUED) -> None:
        self.descriptor = descriptor
        self.request_id = descriptor.request_id
        self.tenant = descriptor.tenant
        self.arrival_time = descriptor.arrival_time_s
        self.prompt_tokens = descriptor.prompt_tokens
        self.output_tokens = descriptor.output_tokens
        self.phase = phase
        self.prompt_machine: str | None = None
        self.token_machine: str | None = None
        self.prompt_start_time: float | None = None
        self.first_token_time: float | None = None
        self.completion_time: float | None = None
        self.generated_tokens = 0
        self.kv_transfer_start: float | None = None
        self.kv_transfer_end: float | None = None
        self.priority_boost = 0
        self.restarts = 0
        self.shed = False
        self.ttft_deadline_s = descriptor.ttft_deadline_s
        self.e2e_deadline_s = descriptor.e2e_deadline_s
        self.expired = False
        self.degraded = False
        self.token_times = array("d")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(id={self.request_id}, phase={self.phase.value!r}, "
            f"prompt={self.prompt_tokens}, output={self.output_tokens}, "
            f"generated={self.generated_tokens})"
        )

    # -- state ------------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """Whether all output tokens have been generated."""
        return self.phase is RequestPhase.COMPLETED

    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to generate."""
        remaining = self.output_tokens - self.generated_tokens
        return remaining if remaining > 0 else 0

    @property
    def context_tokens(self) -> int:
        """Tokens of KV-cache context currently held for this request."""
        return self.prompt_tokens + self.generated_tokens

    # -- lifecycle transitions ------------------------------------------------------

    def start_prompt(self, time: float, machine: str) -> None:
        """Mark the prompt phase as started on ``machine``."""
        self.phase = RequestPhase.PROMPT_RUNNING
        self.prompt_machine = machine
        if self.prompt_start_time is None:
            self.prompt_start_time = time

    def finish_prompt(self, time: float) -> None:
        """Record the first output token (end of the prompt phase)."""
        if self.first_token_time is None:
            self.first_token_time = time
        self.token_times.append(time)
        generated = self.generated_tokens + 1
        self.generated_tokens = generated
        if generated >= self.output_tokens:
            self.complete(time)

    def start_kv_transfer(self, time: float) -> None:
        """Mark the start of the KV-cache transfer to the token machine."""
        if self.phase is not RequestPhase.COMPLETED:
            self.phase = RequestPhase.KV_TRANSFER
        self.kv_transfer_start = time

    def finish_kv_transfer(self, time: float) -> None:
        """Mark the end of the KV-cache transfer; the request can now decode."""
        self.kv_transfer_end = time
        if self.phase is not RequestPhase.COMPLETED:
            self.phase = RequestPhase.TOKEN_QUEUED

    def generate_token(self, time: float) -> None:
        """Record one generated token in the token phase.

        NOTE: ``SimulatedMachine._finish_iteration`` inlines this state
        transition on its per-token hot loop; keep the two in sync.
        """
        if self.phase is RequestPhase.COMPLETED:
            raise RuntimeError(f"request {self.request_id} already complete")
        self.token_times.append(time)
        generated = self.generated_tokens + 1
        self.generated_tokens = generated
        if generated >= self.output_tokens:
            self.complete(time)
        else:
            self.phase = RequestPhase.TOKEN_RUNNING

    def complete(self, time: float) -> None:
        """Mark the request as fully generated."""
        self.phase = RequestPhase.COMPLETED
        self.completion_time = time

    def expire(self, time: float) -> None:
        """Cancel the request because a deadline passed (lifecycle layer).

        Expired requests keep whatever partial telemetry they accumulated
        (useful for wasted-work accounting) but will never complete; the
        fleet census counts them separately from completed and shed.

        Raises:
            RuntimeError: if the request has already completed.
        """
        del time  # timestamp kept for interface symmetry / future tracing
        if self.phase is RequestPhase.COMPLETED:
            raise RuntimeError(f"request {self.request_id} already completed; cannot expire")
        self.phase = RequestPhase.EXPIRED
        self.expired = True

    def adopt_result(self, winner: "Request") -> None:
        """Copy a winning hedge attempt's telemetry onto this request.

        When a hedged duplicate completes first, the logical request (this
        object — the one the trace, the fleet census, and the SLO report all
        hold) adopts the clone's timestamps so that latency is measured from
        the original arrival to the winning completion, and the clone's
        token series becomes the request's token series.  Per-attempt stats
        stay on the lifecycle layer; this object ends up indistinguishable
        from having run the winning attempt itself.
        """
        self.phase = winner.phase
        self.prompt_machine = winner.prompt_machine
        self.token_machine = winner.token_machine
        self.prompt_start_time = winner.prompt_start_time
        self.first_token_time = winner.first_token_time
        self.completion_time = winner.completion_time
        self.kv_transfer_start = winner.kv_transfer_start
        self.kv_transfer_end = winner.kv_transfer_end
        self.degraded = winner.degraded
        # An owned copy: the loser attempt's partial series on self is discarded.
        self.token_times = array("d", winner.token_times)
        self.generated_tokens = winner.generated_tokens

    def reset_for_restart(self) -> None:
        """Restart the request from scratch after a machine failure (§IV-E).

        All runtime progress is discarded; only the arrival time (so that E2E
        latency still accounts for the wasted work) and the restart counter
        survive.

        Raises:
            RuntimeError: if the request has already completed.
        """
        if self.phase is RequestPhase.COMPLETED:
            raise RuntimeError(f"request {self.request_id} already completed; nothing to restart")
        self.phase = RequestPhase.QUEUED
        self.prompt_machine = None
        self.token_machine = None
        self.prompt_start_time = None
        self.first_token_time = None
        self.token_times = array("d")
        self.generated_tokens = 0
        self.kv_transfer_start = None
        self.kv_transfer_end = None
        self.priority_boost = 0
        self.restarts += 1

    # -- latency metrics ------------------------------------------------------------

    @property
    def ttft(self) -> float | None:
        """Time to first token (None until the first token exists)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def e2e_latency(self) -> float | None:
        """End-to-end latency (None until completed)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def token_intervals_np(self) -> np.ndarray:
        """Per-token gaps after the first token as a float64 array.

        Computed with one vectorized ``np.diff`` over the packed timestamps —
        identical float64 subtractions to a scalar loop, so the values are
        bit-for-bit the same.  The result owns its buffer (safe to keep).
        """
        times = self.token_times
        if len(times) < 2:
            return np.empty(0, dtype=np.float64)
        view = np.frombuffer(times)
        return np.diff(view)

    @property
    def mean_tbt(self) -> float | None:
        """Average time between tokens (None when fewer than two tokens).

        The gaps are added left to right (``np.cumsum``), as Python 3.11's
        built-in ``sum`` adds floats; ``sum`` compensates from 3.12 on, which
        would make the value, and the routing decisions it feeds, depend on
        the interpreter.
        """
        gaps = self.token_intervals_np
        if not gaps.size:
            return None
        return float(np.cumsum(gaps)[-1] / gaps.size)
