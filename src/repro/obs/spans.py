"""Request-lifecycle and control-plane spans on the simulation clock.

The :class:`SpanRecorder` is the collection side of the observability plane:
the fleet, the reliability coordinator, the router's health state machine,
and the fault injector call its ``note_*`` hooks from their *cold* paths
(admission, routing, retries, bans, injections — never the per-token loop),
and after the run :meth:`SpanRecorder.record_result` derives the per-request
journey spans from the timestamps every :class:`~repro.simulation.request.Request`
already records (arrival, prompt start, first token, KV-transfer window,
completion).  That split keeps recording zero-overhead when the plane is off
and nearly free when it is on: the hot decode path is never touched.

All span times are **simulated** seconds — the recorder never reads the wall
clock (SIM002), draws no randomness, and schedules nothing, so traced runs
are bit-identical to untraced runs (property-tested).

Span taxonomy (see ``docs/observability.md``):

* ``request`` — one root span per submitted request, from arrival to its
  terminal instant, carrying the census ``outcome`` (``completed`` /
  ``shed`` / ``expired`` / ``incomplete``) so the trace itself closes the
  fleet census ``completed + shed + expired == submitted``.
* ``phase`` — nested ``queue`` / ``prompt`` / ``kv-transfer`` / ``decode``
  child spans on the same track.
* ``lifecycle`` — instants for routing, retries, hedges, shedding,
  degradation, and expiry.
* ``control`` — provisioner actions, router ban/probation transitions,
  and fault injections; correlated outages are recorded as real duration
  spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only (fleet layers above obs)
    from repro.fleet.fleet import FleetResult
    from repro.simulation.request import Request

#: Process name of everything that is not attributable to one cluster:
#: admission control, the provisioner, and unrouted requests.
FLEET_PROCESS = "fleet"


@dataclass(slots=True)
class Span:
    """One recorded span (``end_s is None`` marks an instant event).

    Attributes:
        name: Human-readable label shown in the trace viewer.
        cat: Span category (``request`` / ``phase`` / ``lifecycle`` /
            ``control``).
        start_s: Start in simulated seconds.
        end_s: End in simulated seconds, or ``None`` for an instant.
        process: Logical process (a cluster name or :data:`FLEET_PROCESS`).
        thread: Logical track inside the process (a machine name, a
            ``request-<id>`` track, or a control-plane track).
        args: JSON-friendly key/value payload attached to the event.
    """

    name: str
    cat: str
    start_s: float
    end_s: float | None = None
    process: str = FLEET_PROCESS
    thread: str = "control"
    args: dict[str, Any] = field(default_factory=dict)


def _cluster_of_machine(machine_name: str | None) -> str | None:
    """Cluster prefix of a fleet machine name (``cluster-0/prompt-1``)."""
    if machine_name is None or "/" not in machine_name:
        return None
    return machine_name.split("/", 1)[0]


class SpanRecorder:
    """Collects spans during a run and derives journeys afterwards.

    Live hooks only annotate (routing history, expiry instants, control
    actions); the per-request journey spans are derived once, post-run, in
    :meth:`record_result` from request telemetry that exists anyway.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Routing history per logical request id: (time_s, cluster, kind).
        self._routes: dict[int, list[tuple[float, str, str]]] = {}
        #: Expiry instants per request id (``Request`` itself records none).
        self._expire_times: dict[int, float] = {}
        #: Open correlated-outage windows per cluster name.
        self._open_outages: dict[str, float] = {}
        self._result_recorded = False

    @property
    def span_count(self) -> int:
        """Spans and instants recorded so far."""
        return len(self.spans)

    # -- generic recording -------------------------------------------------------------

    def instant(
        self,
        name: str,
        time_s: float,
        *,
        cat: str = "lifecycle",
        process: str = FLEET_PROCESS,
        thread: str = "control",
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a point event at ``time_s``."""
        self.spans.append(
            Span(name=name, cat=cat, start_s=time_s, process=process, thread=thread, args=args or {})
        )

    def span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        cat: str = "phase",
        process: str = FLEET_PROCESS,
        thread: str = "control",
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a duration span; degenerate (negative) windows are dropped."""
        if end_s < start_s:
            return
        self.spans.append(
            Span(
                name=name, cat=cat, start_s=start_s, end_s=end_s,
                process=process, thread=thread, args=args or {},
            )
        )

    # -- live lifecycle hooks (cold paths only) ----------------------------------------

    def note_route(self, request: "Request", cluster_name: str, time_s: float, kind: str) -> None:
        """One attempt routed (``kind``: ``route`` / ``retry`` / ``hedge``)."""
        self._routes.setdefault(request.request_id, []).append((time_s, cluster_name, kind))

    def note_shed(self, request: "Request", time_s: float) -> None:
        """Admission control rejected the request up front."""
        self.instant(
            "shed", time_s, thread="admission",
            args={"request": request.request_id, "tenant": request.tenant},
        )

    def note_degraded_admission(self, request: "Request", time_s: float) -> None:
        """A would-be-shed request was admitted with a truncated budget."""
        self.instant(
            "degrade-admission", time_s, thread="admission",
            args={"request": request.request_id, "tenant": request.tenant,
                  "output_tokens": request.output_tokens},
        )

    def note_expired(self, request: "Request", time_s: float) -> None:
        """The lifecycle layer cancelled the request (deadline / retry budget)."""
        self._expire_times[request.request_id] = time_s
        self.instant("expire", time_s, thread="lifecycle", args={"request": request.request_id})

    def note_retry_scheduled(self, request: "Request", delay_s: float, time_s: float) -> None:
        """A retry was scheduled with backoff ``delay_s``."""
        self.instant(
            "retry-scheduled", time_s, thread="lifecycle",
            args={"request": request.request_id, "backoff_s": round(delay_s, 6)},
        )

    def note_hedge(self, request: "Request", cluster_name: str, time_s: float) -> None:
        """A hedge clone was launched onto ``cluster_name``."""
        self.instant(
            "hedge-launched", time_s, thread="lifecycle",
            args={"request": request.request_id, "cluster": cluster_name},
        )

    def note_hedge_won(self, request: "Request", cluster_name: str, time_s: float) -> None:
        """The hedge clone beat the primary attempt."""
        self.instant(
            "hedge-won", time_s, thread="lifecycle",
            args={"request": request.request_id, "cluster": cluster_name},
        )

    # -- live control-plane hooks ------------------------------------------------------

    def note_health_transition(self, cluster_name: str, state: str, time_s: float) -> None:
        """The router's reliability state machine moved ``cluster_name`` to ``state``."""
        self.instant(
            f"health:{state}", time_s, cat="control",
            process=cluster_name, thread="health", args={"state": state},
        )

    def note_injection(self, kind: str, target: str, fired: bool, time_s: float) -> None:
        """A fault injection fired (or was skipped by its deterministic guard)."""
        cluster = _cluster_of_machine(target) or (target if target else FLEET_PROCESS)
        self.instant(
            f"fault:{kind}", time_s, cat="control",
            process=cluster if cluster.startswith("cluster") else FLEET_PROCESS,
            thread="faults",
            args={"kind": kind, "target": target, "fired": fired},
        )

    def note_outage(self, cluster_name: str, start: bool, time_s: float) -> None:
        """Open (``start=True``) or close a correlated-outage window."""
        if start:
            self._open_outages[cluster_name] = time_s
            return
        begun = self._open_outages.pop(cluster_name, None)
        if begun is not None:
            self.span(
                "outage", begun, time_s, cat="control",
                process=cluster_name, thread="faults",
            )

    # -- post-run derivation -----------------------------------------------------------

    def record_result(self, result: "FleetResult") -> dict[str, int]:
        """Derive the journey and control-plane spans from a finished run.

        Idempotent: a second call is a no-op, so the CLI and tests can both
        finalize defensively.

        Returns:
            The span census: root-span count per outcome.
        """
        census: dict[str, int] = {}
        if self._result_recorded:
            for span in self.spans:
                if span.cat == "request":
                    outcome = str(span.args.get("outcome", "incomplete"))
                    census[outcome] = census.get(outcome, 0) + 1
            return census
        self._result_recorded = True
        for request in result.requests:
            outcome = self._record_journey(request, result.duration_s)
            census[outcome] = census.get(outcome, 0) + 1
        self._record_control_plane(result)
        # Close any outage window the run ended inside of.
        for cluster_name, begun in sorted(self._open_outages.items()):
            self.span(
                "outage", begun, max(begun, result.duration_s), cat="control",
                process=cluster_name, thread="faults",
            )
        self._open_outages.clear()
        return census

    def _record_journey(self, request: "Request", duration_s: float) -> str:
        request_id = request.request_id
        routes = self._routes.get(request_id, [])
        if request.is_complete:
            outcome = "completed"
        elif request.shed:
            outcome = "shed"
        elif request.expired:
            outcome = "expired"
        else:
            outcome = "incomplete"  # never in a drained run; the run's census raises on it
        process = (
            _cluster_of_machine(request.token_machine)
            or _cluster_of_machine(request.prompt_machine)
            or (routes[-1][1] if routes else FLEET_PROCESS)
        )
        thread = f"request-{request_id}"
        start = request.arrival_time
        end = self._journey_end(request, duration_s)
        args: dict[str, Any] = {
            "outcome": outcome,
            "tenant": request.tenant,
            "prompt_tokens": request.prompt_tokens,
            "output_tokens": request.output_tokens,
            "attempts": max(1, len(routes)),
            "restarts": request.restarts,
            "parent": None,
        }
        if request.degraded:
            args["degraded"] = True
        self.span(f"request {request_id}", start, end, cat="request",
                  process=process, thread=thread, args=args)
        child_args = {"parent": request_id}
        if request.prompt_start_time is not None:
            self.span("queue", start, request.prompt_start_time,
                      process=process, thread=thread, args=child_args)
            if request.first_token_time is not None:
                self.span(
                    "prompt", request.prompt_start_time, request.first_token_time,
                    process=process, thread=thread,
                    args={**child_args, "machine": request.prompt_machine},
                )
        if request.kv_transfer_start is not None and request.kv_transfer_end is not None:
            self.span("kv-transfer", request.kv_transfer_start, request.kv_transfer_end,
                      process=process, thread=thread, args=child_args)
        if request.completion_time is not None:
            decode_start = (
                request.kv_transfer_end
                if request.kv_transfer_end is not None
                else request.first_token_time
            )
            if decode_start is not None:
                self.span(
                    "decode", decode_start, request.completion_time,
                    process=process, thread=thread,
                    args={**child_args, "machine": request.token_machine},
                )
        for time_s, cluster_name, kind in routes:
            self.instant(kind, time_s, process=process, thread=thread,
                         args={**child_args, "cluster": cluster_name})
        return outcome

    def _journey_end(self, request: "Request", duration_s: float) -> float:
        """Terminal instant of a request's root span.

        Completions and expirations carry exact instants; shed requests were
        rejected at arrival (zero-length span); anything else (a request
        with no terminal outcome) is clipped to the run window.
        """
        if request.completion_time is not None:
            return request.completion_time
        expire_time = self._expire_times.get(request.request_id)
        if expire_time is not None:
            return expire_time
        if request.shed:
            return request.arrival_time
        return max(request.arrival_time, duration_s)

    def _record_control_plane(self, result: "FleetResult") -> None:
        if result.provisioner is not None:
            for event in result.provisioner.timeline:
                self.instant(
                    f"provision:{event.action}", event.time_s, cat="control",
                    thread="provisioner",
                    args={"cluster": event.cluster, "reason": event.reason},
                )
