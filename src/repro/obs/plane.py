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
    """

    trace_path: str | None = None
    metrics_path: str | None = None
    interval_s: float = DEFAULT_TICK_INTERVAL_S


class ObservabilityPlane:
    """Span recorder + metrics ticker bound to one fleet simulation.

    The fleet layers record spans straight into :attr:`recorder`
    (``fleet.obs.recorder.note_*``), each behind its ``fleet.obs is not
    None`` guard.
    """

    def __init__(self, config: ObservabilityConfig) -> None:
        self.config = config
        self.recorder = SpanRecorder()
        self.registry = MetricsRegistry()
        self.ticker: MetricsTicker | None = None
        self._census: dict[str, int] = {}
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------------

    def begin(self, fleet: "FleetSimulation") -> None:
        """Arm per-run recording (called at the top of ``FleetSimulation.run``)."""
        self.ticker = MetricsTicker(fleet, self.registry, self.config.interval_s)
        self.ticker.start()
        if fleet.router.reliability is not None:
            fleet.router.observe_health(self.recorder.note_health_transition)

    def stop_ticker(self) -> None:
        """Stop sampling; called when the fleet census closes.

        Without this the ticker would keep the engine alive past the last
        completion, inflating ``engine.now`` — the same reason the fleet
        stops its provisioner there.
        """
        if self.ticker is not None:
            self.ticker.stop()

    def finalize(self, result: "FleetResult") -> None:
        """Derive journey spans and the span census from the finished run."""
        if self._finalized:
            return
        self._finalized = True
        self._census = self.recorder.record_result(result)

    # -- exports -----------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        """Spans recorded."""
        return self.recorder.span_count

    def census(self) -> dict[str, int]:
        """Root-span outcomes derived at :meth:`finalize` (empty before it)."""
        return dict(self._census)

    def export(self) -> dict[str, Any]:
        """Write configured artifacts; returns the ``--json`` provenance block."""
        provenance: dict[str, Any] = {
            "trace_path": self.config.trace_path,
            "metrics_path": self.config.metrics_path,
            "ticker_interval_s": self.config.interval_s,
            "span_count": self.span_count,
            "metric_samples": self.registry.num_samples,
            "span_census": dict(self._census),
        }
        if self.config.trace_path is not None:
            payload = export_trace(self.recorder, self.config.trace_path)
            provenance["trace_events"] = len(payload["traceEvents"])
            provenance["span_census"] = span_census(payload)
        if self.config.metrics_path is not None:
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
