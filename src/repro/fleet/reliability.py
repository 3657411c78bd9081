"""Request-lifecycle reliability: deadlines, retry budgets, hedging, degradation.

PR 6 gave the fleet realistic *failures* (machine churn, outages,
stragglers, spot revocation) and cluster-level reactions (bans, admission
shedding) — but an individual request still had no reliability semantics: a
request caught on a failed machine silently restarted wherever the scheduler
put it, a shed request was simply dropped, and a request stuck behind a
straggler waited forever.  This module is the request-level layer production
inference front-ends put on top:

* **Deadlines** (:class:`DeadlineConfig`) — per-tenant TTFT and end-to-end
  deadlines, enforced by engine timer events that cancel-and-account expired
  work wherever it sits: queue, prompt pool, mid-decode, or mid-KV-transfer.
  Per-request deadlines on the trace descriptor override the per-tenant
  defaults.
* **Retries** (:class:`RetryPolicy`) — failed attempts are re-submitted
  through the :class:`~repro.fleet.router.FleetRouter` with the failing
  cluster excluded for that attempt, under a per-tenant retry budget and
  exponential backoff with deterministic jitter.  The jitter stream draws
  from a dedicated retry seed, so the trace and fault randomness are
  untouched — retries change *when* work re-enters the fleet, never what the
  fault plan or the workload look like.
* **Hedging** (:class:`HedgeConfig`) — a request still waiting for its first
  token after a rolling-P99-derived delay is speculatively duplicated onto a
  second cluster.  First attempt to finish wins; the loser is cancelled and
  its generated tokens are accounted as hedge waste.
* **Graceful degradation** (:class:`DegradedConfig`) — requests that would
  be shed by admission control (and, optionally, requests that miss their
  TTFT deadline) are served with a truncated output-token budget instead of
  being dropped, and reported separately in goodput.

Every decision is bit-deterministic: lifecycle timers are ordinary engine
events at a fixed priority (after machine finishes, fault injections, and
arrivals — see the engine's priority ladder), the hedge delay is computed
from the router's deterministic rolling windows, and the retry jitter RNG is
consumed in event order.  The census stays closed at the attempt level:
``submitted == completed + shed + expired``, with hedge duplicates accounted
as *attempts* of their logical request, never as requests of their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.simulation.events import LIFECYCLE_EVENT_PRIORITY, Event
from repro.simulation.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports this)
    from repro.fleet.fleet import FleetCluster, FleetSimulation

#: Hedge clones carry ``original_id + _CLONE_OFFSET`` as their request id —
#: far above any real trace id, so per-machine queues and transfer registries
#: keyed by request id never collide, and the lifecycle layer can map an
#: attempt back to its logical request with one subtraction.
_CLONE_OFFSET = 1 << 40


@dataclass(frozen=True)
class DeadlineConfig:
    """Per-tenant TTFT / end-to-end deadlines (seconds from arrival).

    Resolution order per request: an explicit deadline on the trace
    descriptor wins, then the tenant's entry here, then the fleet-wide
    default.  ``None`` anywhere means "no deadline of that kind".

    Attributes:
        ttft_s: Fleet-wide default TTFT deadline.
        e2e_s: Fleet-wide default end-to-end deadline.
        ttft_by_tenant: Per-tenant TTFT deadline overrides.
        e2e_by_tenant: Per-tenant end-to-end deadline overrides.
    """

    ttft_s: float | None = None
    e2e_s: float | None = None
    ttft_by_tenant: Mapping[str, float] = field(default_factory=dict)
    e2e_by_tenant: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = [self.ttft_s, self.e2e_s]
        values.extend(self.ttft_by_tenant.values())
        values.extend(self.e2e_by_tenant.values())
        for value in values:
            if value is not None and value <= 0:
                raise ValueError(f"deadlines must be > 0 seconds, got {value}")

    def ttft_for(self, tenant: str) -> float | None:
        """The TTFT deadline applying to ``tenant`` (None = no deadline)."""
        return self.ttft_by_tenant.get(tenant, self.ttft_s)

    def e2e_for(self, tenant: str) -> float | None:
        """The end-to-end deadline applying to ``tenant`` (None = no deadline)."""
        return self.e2e_by_tenant.get(tenant, self.e2e_s)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, seeded retries with exponential backoff and deterministic jitter.

    Attributes:
        max_retries: Retry budget per logical request (0 = fail fast: the
            first failed attempt expires the request).
        retries_by_tenant: Per-tenant budget overrides.
        backoff_base_s: Backoff before the first retry.
        backoff_multiplier: Growth factor per subsequent retry.
        backoff_max_s: Backoff ceiling.
        jitter_fraction: Each backoff is scaled by a uniform factor in
            ``[1 - jitter, 1 + jitter]`` drawn from the retry RNG (0 disables
            jitter entirely).
        seed: Seed of the dedicated retry RNG.  Independent of the trace and
            fault seeds, so retry timing can be varied without changing the
            workload or the fault plan.
    """

    max_retries: int = 2
    retries_by_tenant: Mapping[str, int] = field(default_factory=dict)
    backoff_base_s: float = 0.25
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 5.0
    jitter_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for tenant, budget in self.retries_by_tenant.items():
            if budget < 0:
                raise ValueError(f"tenant {tenant!r} retry budget must be >= 0, got {budget}")
        if self.backoff_base_s <= 0:
            raise ValueError(f"backoff_base_s must be > 0, got {self.backoff_base_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError(f"jitter_fraction must be in [0, 1), got {self.jitter_fraction}")

    def budget(self, tenant: str) -> int:
        """Retry budget for a tenant."""
        return self.retries_by_tenant.get(tenant, self.max_retries)

    def backoff_s(self, retry_number: int) -> float:
        """Un-jittered backoff before retry ``retry_number`` (1-based)."""
        return min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_multiplier ** (retry_number - 1),
        )


@dataclass(frozen=True)
class HedgeConfig:
    """Tail-latency hedging: duplicate a slow-starting request onto a second cluster.

    The hedge delay is derived from the fleet's *rolling P99 TTFT* at the
    moment the request is first routed — the classic "defer to the tail"
    rule: hedging before the P99 wastes work on requests that were about to
    start anyway.

    Attributes:
        p99_multiplier: Hedge after ``multiplier x rolling P99 TTFT``.
        min_delay_s: Delay floor (used verbatim while the windows are empty).
        max_delay_s: Delay ceiling.
    """

    p99_multiplier: float = 1.5
    min_delay_s: float = 0.5
    max_delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.p99_multiplier <= 0:
            raise ValueError(f"p99_multiplier must be > 0, got {self.p99_multiplier}")
        if self.min_delay_s <= 0:
            raise ValueError(f"min_delay_s must be > 0, got {self.min_delay_s}")
        if self.max_delay_s < self.min_delay_s:
            raise ValueError("max_delay_s must be >= min_delay_s")

    def delay_s(self, rolling_p99_ttft_s: float) -> float:
        """Hedge delay given the fleet's current rolling P99 TTFT."""
        return min(self.max_delay_s, max(self.min_delay_s, self.p99_multiplier * rolling_p99_ttft_s))


@dataclass(frozen=True)
class DegradedConfig:
    """Degraded service: truncate output budgets instead of dropping requests.

    Attributes:
        max_output_tokens: Output-token budget of a degraded request.
        on_shed: Serve would-be-shed requests degraded (only requests whose
            budget actually shrinks are admitted; already-short requests
            still shed).
        on_ttft_deadline: On a missed TTFT deadline, restart the request
            degraded instead of expiring it (one degradation per request;
            a second miss expires).
    """

    max_output_tokens: int = 32
    on_shed: bool = True
    on_ttft_deadline: bool = False

    def __post_init__(self) -> None:
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")


class _Lifecycle:
    """Mutable per-logical-request lifecycle state (attempts, timers)."""

    __slots__ = (
        "request",
        "clone",
        "primary_cluster",
        "hedge_cluster",
        "attempts",
        "retries_used",
        "retry_exclude",
        "settled",
        "hedged",
        "ttft_event",
        "e2e_event",
        "hedge_event",
        "retry_event",
    )

    def __init__(self, request: Request) -> None:
        self.request = request
        self.clone: Request | None = None
        self.primary_cluster: str | None = None
        self.hedge_cluster: str | None = None
        self.attempts = 0
        self.retries_used = 0
        self.retry_exclude: str | None = None
        self.settled = False
        self.hedged = False
        self.ttft_event: Event | None = None
        self.e2e_event: Event | None = None
        self.hedge_event: Event | None = None
        self.retry_event: Event | None = None


class ReliabilityCoordinator:
    """Threads deadlines, retries, hedging, and degradation through a fleet.

    Owned by :class:`~repro.fleet.fleet.FleetSimulation` whenever any of the
    four configs is supplied.  The fleet calls in at the lifecycle joints —
    admission (:meth:`register`, :meth:`degrade_admission`), routing
    (:meth:`on_routed`), completion (:meth:`on_attempt_complete`), and
    failure (:meth:`on_attempt_failed`) — and the coordinator schedules its
    own engine events for everything time-driven.

    First-wins invariant: exactly one attempt settles each logical request.
    The winning attempt's telemetry becomes the request's telemetry
    (latencies measured from the original arrival), the losing attempt is
    withdrawn from its cluster, and its generated tokens are accounted as
    wasted work.
    """

    def __init__(
        self,
        fleet: "FleetSimulation",
        retry: RetryPolicy | None = None,
        hedge: HedgeConfig | None = None,
        deadlines: DeadlineConfig | None = None,
        degraded: DegradedConfig | None = None,
    ) -> None:
        self.fleet = fleet
        self.retry = retry
        self.hedge = hedge
        self.deadlines = deadlines
        self.degraded = degraded
        self._rng = random.Random(retry.seed if retry is not None else 0)
        if fleet.engine.sanitizer is not None:
            # Backoff jitter is drawn in event order, inside retry callbacks.
            fleet.engine.sanitizer.register_stream("retry", run_phase=True)
        self._by_id: dict[int, _Lifecycle] = {}
        self.retries_scheduled = 0
        self.retries_fired = 0
        self.retries_exhausted = 0
        self.hedges_launched = 0
        self.hedges_won = 0
        self.hedges_suppressed = 0
        self.hedge_wasted_tokens = 0
        self.expired_wasted_tokens = 0
        self.expired = 0
        self.degraded_admissions = 0
        self.deadline_degradations = 0

    def reset(self) -> None:
        """Reset all per-run state (the fleet calls this at the start of ``run``)."""
        self._rng = random.Random(self.retry.seed if self.retry is not None else 0)
        self._by_id = {}
        self.retries_scheduled = 0
        self.retries_fired = 0
        self.retries_exhausted = 0
        self.hedges_launched = 0
        self.hedges_won = 0
        self.hedges_suppressed = 0
        self.hedge_wasted_tokens = 0
        self.expired_wasted_tokens = 0
        self.expired = 0
        self.degraded_admissions = 0
        self.deadline_degradations = 0

    # -- admission -------------------------------------------------------------------

    def wants_shed_degrade(self, request: Request) -> bool:
        """Whether a would-be-shed request should be admitted degraded instead."""
        return (
            self.degraded is not None
            and self.degraded.on_shed
            and not request.degraded
            and request.output_tokens > self.degraded.max_output_tokens
        )

    def degrade_admission(self, request: Request) -> None:
        """Truncate an unrouted request's output budget (safe: not yet routed)."""
        request.output_tokens = self.degraded.max_output_tokens
        request.degraded = True
        self.degraded_admissions += 1

    def register(self, request: Request) -> None:
        """Start tracking an admitted request; resolve and arm its deadlines."""
        lifecycle = _Lifecycle(request)
        self._by_id[request.request_id] = lifecycle
        ttft, e2e = self._resolve_deadlines(request)
        request.ttft_deadline_s = ttft
        request.e2e_deadline_s = e2e
        engine = self.fleet.engine
        if ttft is not None:
            lifecycle.ttft_event = engine.schedule_at(
                request.arrival_time + ttft,
                lambda lc=lifecycle: self._fire_ttft(lc),
                priority=LIFECYCLE_EVENT_PRIORITY,
                tag=f"ttft-deadline:{request.request_id}",
            )
        if e2e is not None:
            lifecycle.e2e_event = engine.schedule_at(
                request.arrival_time + e2e,
                lambda lc=lifecycle: self._fire_e2e(lc),
                priority=LIFECYCLE_EVENT_PRIORITY,
                tag=f"e2e-deadline:{request.request_id}",
            )

    def _resolve_deadlines(self, request: Request) -> tuple[float | None, float | None]:
        ttft = request.ttft_deadline_s
        e2e = request.e2e_deadline_s
        if self.deadlines is not None:
            if ttft is None:
                ttft = self.deadlines.ttft_for(request.tenant)
            if e2e is None:
                e2e = self.deadlines.e2e_for(request.tenant)
        return ttft, e2e

    # -- routing ---------------------------------------------------------------------

    def on_routed(self, request: Request, cluster_name: str) -> None:
        """Record where an attempt landed; arm the hedge timer on first routing."""
        request_id = request.request_id
        if request_id >= _CLONE_OFFSET:
            lifecycle = self._by_id.get(request_id - _CLONE_OFFSET)
            if lifecycle is not None and lifecycle.clone is request:
                lifecycle.hedge_cluster = cluster_name
            return
        lifecycle = self._by_id.get(request_id)
        if lifecycle is None:
            return
        lifecycle.primary_cluster = cluster_name
        lifecycle.attempts += 1
        if lifecycle.attempts == 1 and self.hedge is not None and not lifecycle.hedged:
            delay = self.hedge.delay_s(self._fleet_p99_ttft())
            lifecycle.hedge_event = self.fleet.engine.schedule_after(
                delay,
                lambda lc=lifecycle: self._fire_hedge(lc),
                priority=LIFECYCLE_EVENT_PRIORITY,
                tag=f"hedge:{request_id}",
            )

    def _fleet_p99_ttft(self) -> float:
        """Worst rolling P99 TTFT across routable clusters (0.0 = no samples)."""
        worst = 0.0
        for cluster in self.fleet.clusters:
            if not (cluster.routable and cluster.available):
                continue
            ttft, _tbt = self.fleet.router.traffic[cluster.name].rolling_p99()
            if ttft > worst:
                worst = ttft
        return worst

    # -- completion (first wins) -------------------------------------------------------

    def on_attempt_complete(self, cluster_name: str, request: Request) -> Request | None:
        """Settle a completing attempt.

        Returns the logical request to count as completed, or ``None`` when
        this completion must not be counted (stale attempt, already settled).
        """
        request_id = request.request_id
        if request_id >= _CLONE_OFFSET:
            lifecycle = self._by_id.get(request_id - _CLONE_OFFSET)
            if lifecycle is None or lifecycle.clone is not request or lifecycle.settled:
                return None
            self._settle(lifecycle)
            self.hedges_won += 1
            primary = lifecycle.request
            if lifecycle.primary_cluster is not None:
                self.hedge_wasted_tokens += self._cancel_attempt(
                    primary, lifecycle.primary_cluster
                )
            primary.adopt_result(request)
            # The logical request takes the clone's census slot on the
            # winning cluster, so each served request appears on exactly one
            # cluster's roster.
            cluster = self._cluster(cluster_name)
            if cluster is not None:
                for index, held in enumerate(cluster.requests):
                    if held is request:
                        cluster.requests[index] = primary
                        break
            lifecycle.clone = None
            lifecycle.hedge_cluster = None
            lifecycle.primary_cluster = cluster_name
            if self.fleet.obs is not None:
                self.fleet.obs.recorder.note_hedge_won(primary, cluster_name, self.fleet.engine.now)
            return primary
        lifecycle = self._by_id.get(request_id)
        if lifecycle is None:
            return request  # untracked (no lifecycle layer entry): count normally
        if lifecycle.settled:
            return None
        self._settle(lifecycle)
        if lifecycle.clone is not None:
            self.hedge_wasted_tokens += self._cancel_attempt(
                lifecycle.clone, lifecycle.hedge_cluster
            )
            lifecycle.clone = None
            lifecycle.hedge_cluster = None
        return request

    # -- failure ----------------------------------------------------------------------

    def on_attempt_failed(self, cluster_name: str, request: Request, accounted: bool = False) -> None:
        """Handle an attempt displaced by failure (already reset by the scheduler).

        Args:
            cluster_name: Cluster the attempt failed on.
            request: The reset attempt (a logical request or a hedge clone).
            accounted: True when the caller already withdrew the request from
                the router's books and the cluster roster (outage/revocation
                evacuation does this in batch).
        """
        request_id = request.request_id
        if request_id >= _CLONE_OFFSET:
            lifecycle = self._by_id.get(request_id - _CLONE_OFFSET)
            if lifecycle is None or lifecycle.clone is not request or lifecycle.settled:
                return
            if not accounted:
                self.fleet.router.note_evacuated(cluster_name, [request])
                self._prune(cluster_name, request)
            # Clones are one-shot: a failed hedge attempt is dropped, not
            # retried.  If the primary is also gone (both clusters died in
            # the same batch), the clone's failure re-arms the primary.
            lifecycle.clone = None
            lifecycle.hedge_cluster = None
            if lifecycle.primary_cluster is None and not self._retry_pending(lifecycle):
                self._schedule_retry(lifecycle, cluster_name)
            return
        lifecycle = self._by_id.get(request_id)
        if lifecycle is None:
            # Untracked request (defensive): restart through the router.
            self.fleet._submit_attempt(request)
            return
        if lifecycle.settled:
            return
        if not accounted:
            self.fleet.router.note_evacuated(cluster_name, [request])
            self._prune(cluster_name, request)
        lifecycle.primary_cluster = None
        if lifecycle.clone is not None:
            return  # the live hedge attempt carries the request; no retry burned
        self._schedule_retry(lifecycle, cluster_name)

    def settle_shed(self, request: Request) -> None:
        """Settle a logical request the fleet sheds because no cluster can take it."""
        lifecycle = self._by_id.get(request.request_id)
        if lifecycle is not None:
            self._settle(lifecycle)

    def _retry_pending(self, lifecycle: _Lifecycle) -> bool:
        event = lifecycle.retry_event
        return event is not None and event.live

    def _schedule_retry(self, lifecycle: _Lifecycle, failed_cluster: str) -> None:
        request = lifecycle.request
        if self.retry is None:
            # No retry policy: immediate re-route through the fleet router
            # (the pre-lifecycle restart semantics, minus the failed cluster
            # preference — no exclusion, no budget, no backoff).
            self.fleet._submit_attempt(request)
            return
        if lifecycle.retries_used >= self.retry.budget(request.tenant):
            self.retries_exhausted += 1
            self._expire(lifecycle)
            return
        lifecycle.retries_used += 1
        delay = self.retry.backoff_s(lifecycle.retries_used)
        jitter = self.retry.jitter_fraction
        if jitter:
            sanitizer = self.fleet.engine.sanitizer
            if sanitizer is not None:
                sanitizer.note_draw("retry")
            delay *= 1.0 + jitter * (2.0 * self._rng.random() - 1.0)
        lifecycle.retry_exclude = failed_cluster
        lifecycle.retry_event = self.fleet.engine.schedule_after(
            delay,
            lambda lc=lifecycle: self._fire_retry(lc),
            priority=LIFECYCLE_EVENT_PRIORITY,
            tag=f"retry:{request.request_id}",
        )
        self.retries_scheduled += 1
        if self.fleet.obs is not None:
            self.fleet.obs.recorder.note_retry_scheduled(request, delay, self.fleet.engine.now)

    def _fire_retry(self, lifecycle: _Lifecycle) -> None:
        lifecycle.retry_event = None
        if lifecycle.settled:
            return
        self.retries_fired += 1
        exclude = lifecycle.retry_exclude
        lifecycle.retry_exclude = None
        self.fleet._submit_attempt(lifecycle.request, exclude=exclude)

    # -- deadlines ---------------------------------------------------------------------

    def _fire_ttft(self, lifecycle: _Lifecycle) -> None:
        lifecycle.ttft_event = None
        if lifecycle.settled:
            return
        first = lifecycle.request.first_token_time
        if first is None and lifecycle.clone is not None:
            first = lifecycle.clone.first_token_time
        if first is not None:
            return  # deadline met
        degraded = self.degraded
        if (
            degraded is not None
            and degraded.on_ttft_deadline
            and not lifecycle.request.degraded
            and degraded.max_output_tokens < lifecycle.request.output_tokens
        ):
            self._degrade_restart(lifecycle)
        else:
            self._expire(lifecycle)

    def _fire_e2e(self, lifecycle: _Lifecycle) -> None:
        lifecycle.e2e_event = None
        if lifecycle.settled:
            return
        self._expire(lifecycle)

    def _degrade_restart(self, lifecycle: _Lifecycle) -> None:
        """Serve a TTFT-deadline-missing request degraded: restart truncated.

        The request has produced no token (the TTFT timer checked), so the
        restart discards only queueing progress.  In-place truncation of a
        routed request would corrupt the machines' token accounting, so the
        attempt is withdrawn and resubmitted with the smaller budget.
        """
        request = lifecycle.request
        if lifecycle.clone is not None:
            self.hedge_wasted_tokens += self._cancel_attempt(
                lifecycle.clone, lifecycle.hedge_cluster
            )
            lifecycle.clone = None
            lifecycle.hedge_cluster = None
        if lifecycle.primary_cluster is not None:
            self._cancel_attempt(request, lifecycle.primary_cluster)
            lifecycle.primary_cluster = None
        if lifecycle.retry_event is not None:
            self.fleet.engine.cancel(lifecycle.retry_event)
            lifecycle.retry_event = None
        request.reset_for_restart()
        request.output_tokens = self.degraded.max_output_tokens
        request.degraded = True
        self.deadline_degradations += 1
        self.fleet._submit_attempt(request)

    def _expire(self, lifecycle: _Lifecycle) -> None:
        """Cancel-and-account a request wherever its attempts sit."""
        self._settle(lifecycle)
        request = lifecycle.request
        if lifecycle.clone is not None:
            self.expired_wasted_tokens += self._cancel_attempt(
                lifecycle.clone, lifecycle.hedge_cluster
            )
            lifecycle.clone = None
            lifecycle.hedge_cluster = None
        if lifecycle.primary_cluster is not None:
            self.expired_wasted_tokens += self._cancel_attempt(
                request, lifecycle.primary_cluster
            )
            lifecycle.primary_cluster = None
        request.expire(self.fleet.engine.now)
        self.expired += 1
        self.fleet._note_expired(request)

    # -- hedging -----------------------------------------------------------------------

    def _fire_hedge(self, lifecycle: _Lifecycle) -> None:
        lifecycle.hedge_event = None
        if lifecycle.settled or lifecycle.hedged:
            return
        request = lifecycle.request
        if request.first_token_time is not None:
            return  # the primary started; no tail to hedge against
        if lifecycle.primary_cluster is None:
            # Mid-backoff: the retry path owns recovery; hedging a request
            # that is nowhere would be a second retry in disguise.
            self.hedges_suppressed += 1
            return
        fleet = self.fleet
        if fleet.admission is not None and fleet.router.total_outstanding() >= (
            fleet.admission.shed_threshold(request.tenant)
        ):
            self.hedges_suppressed += 1  # no speculative work under overload
            return
        alternatives = [
            c
            for c in fleet.clusters
            if c.routable and c.available and c.name != lifecycle.primary_cluster
        ]
        if not alternatives:
            self.hedges_suppressed += 1
            return
        clone = Request(descriptor=request.descriptor.replace(request_id=request.request_id + _CLONE_OFFSET))
        # Mirror any degraded truncation so both attempts race to the same
        # finish line (identical output budgets).
        clone.output_tokens = request.output_tokens
        clone.degraded = request.degraded
        lifecycle.clone = clone
        lifecycle.hedged = True
        self.hedges_launched += 1
        fleet._submit_attempt(clone, exclude=lifecycle.primary_cluster)
        if fleet.obs is not None:
            # ``on_routed`` (called inside ``_submit_attempt``) has recorded
            # where the clone landed by now.
            fleet.obs.recorder.note_hedge(request, lifecycle.hedge_cluster or "", fleet.engine.now)

    # -- internals ---------------------------------------------------------------------

    def _settle(self, lifecycle: _Lifecycle) -> None:
        """Mark the lifecycle decided and tombstone every pending timer.

        Eager cancellation matters beyond hygiene: an uncancelled no-op
        deadline timer would still advance the engine clock past the last
        real work, inflating the run's duration and machine-hour accounting.
        """
        lifecycle.settled = True
        engine = self.fleet.engine
        for name in ("ttft_event", "e2e_event", "hedge_event", "retry_event"):
            event = getattr(lifecycle, name)
            if event is not None:
                engine.cancel(event)
                setattr(lifecycle, name, None)

    def _cancel_attempt(self, request: Request, cluster_name: str | None) -> int:
        """Withdraw a losing/expired attempt from its cluster.

        Returns the number of tokens the attempt had generated (the wasted
        work).
        """
        cluster = self._cluster(cluster_name)
        if cluster is not None:
            cluster.scheduler.cancel_request(request)
            self.fleet.router.note_evacuated(cluster_name, [request])
            self._prune(cluster_name, request)
        return len(request.token_times)

    def _cluster(self, cluster_name: str | None) -> "FleetCluster | None":
        if cluster_name is None:
            return None
        for cluster in self.fleet.clusters:
            if cluster.name == cluster_name:
                return cluster
        return None

    def _prune(self, cluster_name: str, request: Request) -> None:
        """Drop one request from a cluster's routed roster (identity match)."""
        cluster = self._cluster(cluster_name)
        if cluster is None:
            return
        for index, held in enumerate(cluster.requests):
            if held is request:
                del cluster.requests[index]
                return

    # -- reporting ---------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly lifecycle statistics for provenance and smoke checks."""
        return {
            "retries_scheduled": self.retries_scheduled,
            "retries_fired": self.retries_fired,
            "retries_exhausted": self.retries_exhausted,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_suppressed": self.hedges_suppressed,
            "hedge_wasted_tokens": self.hedge_wasted_tokens,
            "expired_wasted_tokens": self.expired_wasted_tokens,
            "expired": self.expired,
            "degraded_admissions": self.degraded_admissions,
            "deadline_degradations": self.deadline_degradations,
        }
