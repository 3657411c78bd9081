"""The observability plane: opt-in wiring of spans + metrics onto a fleet.

``FleetSimulation.observe(ObservabilityConfig(...))`` creates an
:class:`ObservabilityPlane` and every hook in the fleet/reliability/router/
fault layers is guarded by ``if self.obs is not None`` — a fleet that never
calls ``observe()`` takes one attribute check per cold-path branch and pays
nothing else (the ``repro.obs`` modules are imported lazily by
``observe()`` itself).

The plane owns three artifacts:

* a :class:`~repro.obs.spans.SpanRecorder` (request journeys + control
  plane), exported as Perfetto trace-event JSON;
* a :class:`~repro.obs.metrics.MetricsRegistry` fed by a recurring
  :class:`~repro.obs.metrics.MetricsTicker` (JSONL/CSV + Prometheus text);
* a provenance block for ``repro-sim fleet --json``.

Everything here runs on simulated time; the wall-clock profiler
(:mod:`repro.obs.profiler`) is deliberately *not* part of the plane — it is
a benchmark instrument, attached only by ``perfbench/``'s traced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import DEFAULT_TICK_INTERVAL_S, MetricsRegistry, MetricsTicker
from repro.obs.perfetto import export_trace, span_census
from repro.obs.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only (fleet layers above obs)
    from repro.fleet.fleet import FleetResult, FleetSimulation
    from repro.simulation.request import Request


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to record and where to write it.

    Attributes:
        trace_path: Perfetto trace-event JSON output path (``None`` keeps
            the trace in memory only).
        metrics_path: Metrics time-series output path; ``.csv`` selects CSV,
            anything else JSONL, and a ``.prom`` Prometheus snapshot is
            written alongside.
        interval_s: Simulated seconds between metrics samples.
        spans: Record lifecycle/control spans.
        metrics: Run the metrics ticker.
    """

    trace_path: str | None = None
    metrics_path: str | None = None
    interval_s: float = DEFAULT_TICK_INTERVAL_S
    spans: bool = True
    metrics: bool = True


class ObservabilityPlane:
    """Span recorder + metrics ticker bound to one fleet simulation."""

    def __init__(self, config: ObservabilityConfig) -> None:
        self.config = config
        self.recorder: SpanRecorder | None = SpanRecorder() if config.spans else None
        self.registry: MetricsRegistry | None = MetricsRegistry() if config.metrics else None
        self.ticker: MetricsTicker | None = None
        self._census: dict[str, int] = {}
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------------

    def begin(self, fleet: "FleetSimulation") -> None:
        """Arm per-run recording (called at the top of ``FleetSimulation.run``)."""
        if self.registry is not None:
            self.ticker = MetricsTicker(fleet, self.registry, self.config.interval_s)
            self.ticker.start()
        if self.recorder is not None and fleet.router.reliability is not None:
            fleet.router.observe_health(self._on_health_transition)

    def stop_ticker(self) -> None:
        """Stop sampling; called when the fleet census closes.

        Without this the ticker would keep the engine alive past the last
        completion, inflating ``engine.now`` — the same reason the fleet
        stops its autoscalers and provisioner there.
        """
        if self.ticker is not None:
            self.ticker.stop()

    def finalize(self, result: "FleetResult") -> None:
        """Derive journey spans and the span census from the finished run."""
        if self._finalized:
            return
        self._finalized = True
        if self.recorder is not None:
            self._census = self.recorder.record_result(result)

    # -- span hook forwarding (every caller guards on ``fleet.obs is not None``) -------

    def _on_health_transition(self, cluster_name: str, state: str, now: float) -> None:
        if self.recorder is not None:
            self.recorder.note_health_transition(cluster_name, state, now)

    def note_route(self, request: "Request", cluster_name: str, time_s: float, kind: str) -> None:
        if self.recorder is not None:
            self.recorder.note_route(request, cluster_name, time_s, kind)

    def note_shed(self, request: "Request", time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_shed(request, time_s)

    def note_degraded_admission(self, request: "Request", time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_degraded_admission(request, time_s)

    def note_expired(self, request: "Request", time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_expired(request, time_s)

    def note_retry_scheduled(self, request: "Request", delay_s: float, time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_retry_scheduled(request, delay_s, time_s)

    def note_hedge(self, request: "Request", cluster_name: str, time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_hedge(request, cluster_name, time_s)

    def note_hedge_won(self, request: "Request", cluster_name: str, time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_hedge_won(request, cluster_name, time_s)

    def note_injection(self, kind: str, target: str, fired: bool, time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_injection(kind, target, fired, time_s)

    def note_outage(self, cluster_name: str, start: bool, time_s: float) -> None:
        if self.recorder is not None:
            self.recorder.note_outage(cluster_name, start, time_s)

    # -- exports -----------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        """Spans recorded (0 when span recording is off)."""
        return self.recorder.span_count if self.recorder is not None else 0

    def census(self) -> dict[str, int]:
        """Root-span outcomes derived at :meth:`finalize` (empty before it)."""
        return dict(self._census)

    def export(self) -> dict[str, Any]:
        """Write configured artifacts; returns the ``--json`` provenance block."""
        provenance: dict[str, Any] = {
            "trace_path": self.config.trace_path,
            "metrics_path": self.config.metrics_path,
            "ticker_interval_s": self.config.interval_s if self.registry is not None else None,
            "span_count": self.span_count,
            "metric_samples": self.registry.num_samples if self.registry is not None else 0,
            "span_census": dict(self._census),
        }
        if self.recorder is not None and self.config.trace_path is not None:
            payload = export_trace(self.recorder, self.config.trace_path)
            provenance["trace_events"] = len(payload["traceEvents"])
            provenance["span_census"] = span_census(payload)
        if self.registry is not None and self.config.metrics_path is not None:
            path = self.config.metrics_path
            if path.endswith(".csv"):
                text = self.registry.to_csv()
            else:
                text = self.registry.to_jsonl()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            prom_path = path.rsplit(".", 1)[0] + ".prom"
            with open(prom_path, "w", encoding="utf-8") as handle:
                handle.write(self.registry.prometheus_text())
            provenance["prometheus_path"] = prom_path
        return provenance
