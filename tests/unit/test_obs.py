"""Observability plane: spans, Perfetto export, metrics, and the profiler."""

from __future__ import annotations

import json

import pytest

from repro.core.designs import splitwise_hh
from repro.experiments.fleet_sweep import prepare_fleet_run
from repro.fleet.fleet import FleetSimulation
from repro.obs import (
    Histogram,
    MetricsRegistry,
    ObservabilityConfig,
    PhaseProfiler,
    SpanRecorder,
    bucket_for_tag,
    build_trace,
    export_trace,
    metric_key,
    span_census,
    validate_trace,
)
from repro.simulation.engine import SimulationEngine
from repro.workload.scenarios import get_scenario
from repro.workload.trace import Trace


def _storm_observed(seed=7, **config_kwargs):
    """Observed failure-storm run; returns (result, fleet, plane)."""
    fleet, trace, failures = prepare_fleet_run(
        get_scenario("failure-storm"),
        clusters=2,
        burst_clusters=1,
        seed=seed,
        scale=0.2,
        chaos="failure-storm",
    )
    plane = fleet.observe(ObservabilityConfig(**config_kwargs))
    result = fleet.run(trace, failures=failures)
    return result, fleet, plane


class TestSpanCensus:
    """The trace's root spans must close the fleet census exactly."""

    def test_failure_storm_census_closes(self):
        result, _fleet, plane = _storm_observed()
        census = plane.census()
        assert sum(census.values()) == len(result.requests)
        assert census.get("completed", 0) == len(result.completed_requests)
        assert census.get("shed", 0) == result.requests_shed
        assert census.get("expired", 0) == result.requests_expired
        assert "incomplete" not in census  # drained run: every journey ended

    def test_trace_census_matches_plane_census(self):
        _result, _fleet, plane = _storm_observed()
        payload = build_trace(plane.recorder)
        assert span_census(payload) == plane.census()

    def test_finalize_is_idempotent(self):
        result, _fleet, plane = _storm_observed()
        spans_before = plane.span_count
        plane.finalize(result)  # second call (run() already finalized)
        assert plane.span_count == spans_before
        assert sum(plane.census().values()) == len(result.requests)


class TestPerfettoSchema:
    def test_emitted_trace_validates(self):
        _result, _fleet, plane = _storm_observed()
        payload = build_trace(plane.recorder)
        assert validate_trace(payload) == []

    def test_pid_tid_map_to_cluster_and_tracks(self):
        _result, fleet, plane = _storm_observed()
        payload = build_trace(plane.recorder)
        processes = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        cluster_names = {c.name for c in fleet.clusters}
        named = set(processes.values())
        assert "fleet" in named
        assert named - {"fleet"} <= cluster_names
        # Every non-metadata event lands on a named pid/tid.
        tids = {
            (e["pid"], e["tid"])
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for event in payload["traceEvents"]:
            if event["ph"] == "M":
                continue
            assert (event["pid"], event["tid"]) in tids

    def test_timestamps_monotone_and_x_complete(self):
        _result, _fleet, plane = _storm_observed()
        payload = build_trace(plane.recorder)
        last = None
        for event in payload["traceEvents"]:
            if event["ph"] == "M":
                continue
            assert event["ts"] >= 0
            if last is not None:
                assert event["ts"] >= last
            last = event["ts"]
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_export_is_byte_stable(self, tmp_path):
        _result, _fleet, plane = _storm_observed()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_trace(plane.recorder, str(a))
        export_trace(plane.recorder, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert validate_trace(json.loads(a.read_text())) == []

    def test_validator_flags_broken_traces(self):
        assert validate_trace({}) == ["payload has no traceEvents list"]
        bad = {
            "traceEvents": [
                {"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {"name": "p"}},
                {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "t"}},
                {"ph": "X", "name": "s", "pid": 1, "tid": 1, "ts": 5.0, "dur": -1.0},
                {"ph": "X", "name": "s", "pid": 1, "tid": 1, "ts": 1.0, "dur": 1.0},
                {"ph": "X", "name": "s", "pid": 2, "tid": 9, "ts": 2.0, "dur": 1.0},
                {"ph": "B", "name": "open", "pid": 1, "tid": 1, "ts": 3.0},
            ]
        }
        problems = validate_trace(bad)
        assert any("bad dur" in p for p in problems)
        assert any("monotonicity" in p for p in problems)
        assert any("unnamed pid" in p for p in problems)
        assert any("unclosed B" in p for p in problems)


class TestEmptyRun:
    def test_empty_trace_yields_valid_zero_span_trace(self):
        fleet = FleetSimulation(splitwise_hh(1, 1), num_clusters=1)
        plane = fleet.observe(ObservabilityConfig())
        result = fleet.run(Trace(requests=(), name="empty"))
        assert result.requests == []
        assert plane.census() == {}
        payload = build_trace(plane.recorder)
        assert validate_trace(payload) == []
        assert span_census(payload) == {}
        # No journeys: only (possibly zero) metadata records.
        assert all(e["ph"] == "M" for e in payload["traceEvents"])

    def test_fresh_recorder_exports_cleanly(self):
        payload = build_trace(SpanRecorder())
        assert payload["traceEvents"] == []
        assert validate_trace(payload) == []


class TestMetrics:
    def test_ticker_samples_and_exports(self, tmp_path):
        _result, _fleet, plane = _storm_observed()
        registry = plane.registry
        assert registry.num_samples > 0
        key = metric_key("outstanding_requests", cluster="cluster-0")
        assert key in registry.columns
        assert len(registry.columns[key]) == registry.num_samples
        jsonl = registry.to_jsonl()
        rows = [json.loads(line) for line in jsonl.splitlines()]
        assert len(rows) == registry.num_samples
        assert rows[0]["time_s"] == 0.0  # first sample at t=0
        csv = registry.to_csv()
        assert csv.splitlines()[0].startswith("time_s,")
        assert len(csv.splitlines()) == registry.num_samples + 1
        prom = registry.prometheus_text()
        assert "# TYPE fleet_outstanding_requests gauge" in prom
        assert 'fleet_outstanding_depth_bucket{le="+Inf"}' in prom

    def test_column_set_is_frozen_after_first_sample(self):
        registry = MetricsRegistry()
        registry.sample(0.0, {"a": 1.0, "b": 2.0})
        with pytest.raises(ValueError, match="column set"):
            registry.sample(1.0, {"a": 1.0})

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram((1.0, 5.0, 10.0))
        for value in (0.5, 3.0, 7.0, 100.0):
            hist.observe(value)
        assert hist.cumulative() == [(1.0, 1), (5.0, 2), (10.0, 3), (float("inf"), 4)]
        assert hist.total == 4

    def test_metrics_files_written(self, tmp_path):
        metrics_path = tmp_path / "metrics.jsonl"
        _result, _fleet, plane = _storm_observed(metrics_path=str(metrics_path))
        provenance = plane.export()
        assert metrics_path.exists()
        prom_path = tmp_path / "metrics.prom"
        assert prom_path.exists()
        assert provenance["prometheus_path"] == str(prom_path)
        assert provenance["metric_samples"] == plane.registry.num_samples


class TestLifecycleSpans:
    def test_storm_records_control_plane_spans(self):
        result, _fleet, plane = _storm_observed()
        cats = {span.cat for span in plane.recorder.spans}
        assert "request" in cats
        assert "phase" in cats
        assert "control" in cats  # injections / health transitions / provisioner
        names = {span.name for span in plane.recorder.spans}
        assert any(name.startswith("fault:") for name in names)
        # Every fired-or-skipped injection left an instant.
        injections = [s for s in plane.recorder.spans if s.name.startswith("fault:")]
        snap = result.injector.snapshot()
        assert len(injections) == sum(snap["fired"].values()) + sum(snap["skipped"].values())

    def test_shed_requests_get_zero_length_root_spans(self):
        result, _fleet, plane = _storm_observed()
        shed_ids = {r.request_id for r in result.requests if r.shed}
        if not shed_ids:  # pragma: no cover - storm preset always sheds
            pytest.skip("storm run shed nothing at this seed")
        roots = {
            span.args["outcome"]
            for span in plane.recorder.spans
            if span.cat == "request" and int(span.name.split()[-1]) in shed_ids
        }
        assert roots == {"shed"}


class TestPhaseProfiler:
    def test_bucket_mapping(self):
        assert bucket_for_tag("fleet-arrival:7") == "routing"
        assert bucket_for_tag("retry:3") == "lifecycle"
        assert bucket_for_tag("fault:machine-fail:cluster-0/p0") == "faults"
        assert bucket_for_tag("metrics-tick") == "observability"
        assert bucket_for_tag("") == "machine-step"

    def test_attach_detach_round_trip(self):
        engine = SimulationEngine()
        profiler = PhaseProfiler()
        profiler.attach(engine)
        assert profiler.attached
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1), priority=2, tag="arrival:1")
        engine.run()
        assert fired == [1]
        snapshot = profiler.snapshot()
        assert snapshot["routing"]["events"] == 1
        assert snapshot["routing"]["wall_s"] >= 0.0
        profiler.detach()
        assert not profiler.attached
        # The engine's own method is restored (class attribute, not wrapper).
        assert "schedule_at" not in vars(engine)
        with pytest.raises(RuntimeError):
            profiler.attach(engine)
            profiler.attach(engine)

    def test_unobserved_fleet_has_no_plane(self):
        fleet = FleetSimulation(splitwise_hh(1, 1), num_clusters=1)
        assert fleet.obs is None
