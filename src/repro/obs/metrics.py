"""Deterministic metrics: a columnar time series sampled on the sim clock.

The :class:`MetricsRegistry` is a deliberately small reimplementation of the
Prometheus data model for a deterministic simulator: metric names carry
label sets in the familiar ``name{label="value"}`` spelling, every sample
row records the *same* column set (so the export is columnar, not sparse),
and all timestamps are simulated seconds.  The :class:`MetricsTicker` is the
only producer — a recurring engine event at
:data:`~repro.simulation.events.METRICS_TICK_PRIORITY` (the bottom of the
priority ladder), so each sample observes an instant that no controller
will touch again.

The ticker is a pure observer: it draws no randomness, schedules nothing
besides its own recurrence, and mutates no simulation state.  The gauges it
reads include the machines' lazily-committed fast-forward counters
(``pending_decode_tokens`` & co trigger ``_ff_sync``), which is exactly the
commit-on-observe path the autoscaler already exercises and that the ff
parity suite pins as bit-neutral.  The observability parity test
(``tests/property/test_obs_parity.py``) pins the end-to-end claim: a ticked
run is bit-identical to an unticked one.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.simulation.events import METRICS_TICK_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - typing only (fleet layers above obs)
    from repro.fleet.fleet import FleetSimulation

#: Default simulated seconds between two metrics samples.
DEFAULT_TICK_INTERVAL_S = 1.0

#: Histogram bucket bounds (requests) for fleet-wide outstanding depth.
OUTSTANDING_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


def metric_key(name: str, **labels: str) -> str:
    """Spell a metric column key Prometheus-style: ``name{label="value"}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, str]:
    """Split a column key into ``(bare_name, label_block)`` (block may be '')."""
    if "{" not in key:
        return key, ""
    name, _, rest = key.partition("{")
    return name, "{" + rest


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus ``le`` semantics)."""

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(sorted(float(b) for b in bounds))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = ordered
        #: Per-bound counts (non-cumulative); overflow lives in ``total``.
        self.counts = [0] * len(ordered)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the buckets."""
        self.total += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(+Inf, total)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.total))
        return out


class MetricsRegistry:
    """Columnar sim-time series plus named histograms.

    Every :meth:`sample` call appends one row; after the first row the
    column set is frozen — a producer adding or dropping a column mid-run
    is a bug (it would silently misalign the columnar export) and raises.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.columns: dict[str, list[float]] = {}
        self.histograms: dict[str, Histogram] = {}

    @property
    def num_samples(self) -> int:
        """Rows recorded so far."""
        return len(self.times)

    def sample(self, time_s: float, values: Mapping[str, float]) -> None:
        """Append one row of gauge/counter readings at ``time_s``."""
        if not self.columns:
            for key in values:
                self.columns[key] = []
        elif set(values) != set(self.columns):
            missing = sorted(set(self.columns) - set(values))
            extra = sorted(set(values) - set(self.columns))
            raise ValueError(
                f"metrics sample changed the column set (missing={missing}, extra={extra})"
            )
        self.times.append(time_s)
        for key, series in self.columns.items():
            series.append(float(values[key]))

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """Fetch (or create) the named histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        return hist

    # -- exports -----------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per sample row (``time_s`` plus every column)."""
        lines = []
        keys = sorted(self.columns)
        for row, time_s in enumerate(self.times):
            record = {"time_s": time_s}
            for key in keys:
                record[key] = self.columns[key][row]
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_csv(self) -> str:
        """Header + one line per sample (columns sorted for determinism)."""
        keys = sorted(self.columns)
        header = ",".join(["time_s", *keys])
        lines = [header]
        for row, time_s in enumerate(self.times):
            cells = [f"{time_s:g}"] + [f"{self.columns[key][row]:g}" for key in keys]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def prometheus_text(self) -> str:
        """Prometheus exposition-format snapshot of the *final* sample.

        A simulator has no scrape loop — this is the end-of-run state of
        every gauge plus the full cumulative histograms, for tooling that
        already speaks the format.
        """
        lines: list[str] = []
        seen_names: set[str] = set()
        for key in sorted(self.columns):
            series = self.columns[key]
            if not series:
                continue
            name, labels = split_metric_key(key)
            if name not in seen_names:
                seen_names.add(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{labels} {series[-1]:g}")
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            lines.append(f"# TYPE {name} histogram")
            for le, count in hist.cumulative():
                le_text = "+Inf" if le == float("inf") else f"{le:g}"
                lines.append(f'{name}_bucket{{le="{le_text}"}} {count}')
            lines.append(f"{name}_sum {hist.sum:g}")
            lines.append(f"{name}_count {hist.total}")
        return "\n".join(lines) + ("\n" if lines else "")


class MetricsTicker:
    """Recurring sim-time sampler feeding a :class:`MetricsRegistry`.

    Args:
        fleet: The fleet under observation.
        registry: Destination time series.
        interval_s: Simulated seconds between samples.
    """

    def __init__(
        self,
        fleet: "FleetSimulation",
        registry: MetricsRegistry,
        interval_s: float = DEFAULT_TICK_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.fleet = fleet
        self.registry = registry
        self.interval_s = interval_s
        self._task = None

    def start(self) -> None:
        """Arm the recurring sampling event (first sample at t=0)."""
        if self._task is not None:
            return
        self._task = self.fleet.engine.schedule_recurring(
            self.interval_s,
            self._tick,
            priority=METRICS_TICK_PRIORITY,
            tag="metrics-tick",
            first_delay=0.0,
        )

    def stop(self) -> None:
        """Cancel the recurrence (called when the fleet census closes)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # -- sampling ----------------------------------------------------------------------

    def _tick(self) -> None:
        fleet = self.fleet
        now = fleet.engine.now
        values: dict[str, float] = {}
        total_busy = 0
        total_failed = 0
        total_power = 0.0
        for cluster in fleet.clusters:
            scheduler = cluster.scheduler
            failed = scheduler.failed_machines
            busy = 0
            power = 0.0
            prompt_tokens = 0
            decode_tokens = 0
            occupancy = 0
            kv_headroom_min = 1.0
            for machine in scheduler.machines:
                if machine.failed:
                    continue
                if machine.is_busy:
                    busy += 1
                    power += machine.spec.provisioned_power_watts
                prompt_tokens += machine.pending_prompt_tokens
                decode_tokens += machine.pending_decode_tokens
                occupancy += machine.active_token_requests
                headroom = machine.memory_headroom_fraction
                if headroom < kv_headroom_min:
                    kv_headroom_min = headroom
            labels = {"cluster": cluster.name}
            traffic = fleet.router.traffic.get(cluster.name)
            values[metric_key("queue_prompt_tokens", **labels)] = prompt_tokens
            values[metric_key("queue_decode_tokens", **labels)] = decode_tokens
            values[metric_key("batch_occupancy_requests", **labels)] = occupancy
            values[metric_key("kv_headroom_min_fraction", **labels)] = kv_headroom_min
            values[metric_key("outstanding_requests", **labels)] = (
                traffic.outstanding if traffic is not None else 0
            )
            values[metric_key("machines_busy", **labels)] = busy
            values[metric_key("machines_failed", **labels)] = len(failed)
            values[metric_key("power_draw_watts", **labels)] = power
            values[metric_key("cluster_routable", **labels)] = 1.0 if cluster.routable else 0.0
            total_busy += busy
            total_failed += len(failed)
            total_power += power
        outstanding = fleet.router.total_outstanding()
        values["fleet_outstanding_requests"] = outstanding
        values["fleet_completed_total"] = fleet._completed
        values["fleet_shed_total"] = fleet._shed
        values["fleet_expired_total"] = fleet._expired
        values["fleet_bans_total"] = fleet.router.bans_issued
        values["fleet_machines_busy"] = total_busy
        values["fleet_machines_failed"] = total_failed
        values["fleet_power_draw_watts"] = total_power
        lifecycle = fleet.lifecycle
        values["fleet_retries_scheduled_total"] = (
            lifecycle.retries_scheduled if lifecycle is not None else 0
        )
        values["fleet_hedges_launched_total"] = (
            lifecycle.hedges_launched if lifecycle is not None else 0
        )
        self.registry.sample(now, values)
        self.registry.histogram(
            "fleet_outstanding_depth", OUTSTANDING_BUCKETS
        ).observe(outstanding)
