"""Tests of the benchmark's own code: checks, tracing harness, descriptor."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest
from repro.simulation.request import RequestPhase

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_checks import census, fingerprint, fingerprint_mismatches, paper_ratio  # noqa: E402
from bench_pass import LAYER_METRICS  # noqa: E402
from bench_trace import LAYER_PLAN, WORKER_ENTRY, Tracer  # noqa: E402


def _small_result():
    from repro.core.cluster import simulate_design
    from repro.core.designs import splitwise_hh
    from repro.workload.generator import generate_trace

    trace = generate_trace("conversation", rate_rps=4.0, duration_s=5.0, seed=3)
    return simulate_design(splitwise_hh(1, 1), trace), len(trace)


def test_corrupted_result_trips_census_and_fingerprint():
    result, submitted = _small_result()
    good = census(result.requests, submitted)
    assert good["closed"] and good["completed"] == submitted
    before = fingerprint("{}", result.duration_s, result.requests)
    assert fingerprint("{}", result.duration_s, result.requests) == before

    victim, other = result.requests[0], result.requests[1]
    victim.expired = True  # completed *and* expired: counted twice
    assert not census(result.requests, submitted)["closed"]
    other.phase = RequestPhase.QUEUED  # ...while another is in no final state
    counts = census(result.requests, submitted)
    assert counts["completed"] + counts["shed"] + counts["expired"] == submitted
    assert not counts["closed"]
    victim.expired = False
    other.phase = RequestPhase.COMPLETED
    assert not census(result.requests, submitted + 1)["closed"]  # a request went missing
    assert not census(result.requests, submitted, shed_total=1)["closed"]  # totals disagree

    victim.completion_time += 1e-9
    after = fingerprint("{}", result.duration_s, result.requests)
    assert after != before
    reference = [{"name": "simulate", "fingerprint": before}]
    assert fingerprint_mismatches(reference, [{"name": "simulate", "fingerprint": after}]) == ["simulate"]
    assert fingerprint_mismatches(reference, []) == ["simulate"]
    assert fingerprint_mismatches(reference, reference) == []


def test_zero_rps_design_fails_instead_of_inf():
    passing = {6: {"slo_ok": 1.0}, 12: {"slo_ok": 1.0}}
    failing = {6: {"slo_ok": 0.0}, 12: {"slo_ok": 0.0}}
    with pytest.raises(ValueError, match="0 RPS"):
        paper_ratio({"Baseline-H100": failing, "Splitwise-HH": passing})
    with pytest.raises(ValueError, match="no Splitwise design"):
        paper_ratio({"Baseline-H100": passing, "Splitwise-HH": failing})
    ratio, error = paper_ratio({"Baseline-H100": {6: {"slo_ok": 1.0}}, "Splitwise-HH": passing})
    assert ratio == 2.0
    assert error == pytest.approx(abs(2.0 / 2.35 - 1.0))


def _traced_attributes() -> dict:
    """Every attribute the tracer may touch, by (owner, name) -> object."""
    import repro.cli  # noqa: F401  (binds traced functions by name)
    import repro.experiments  # noqa: F401
    import repro.faults.injector  # noqa: F401
    from repro.core.cluster import ClusterSimulation
    from repro.simulation.engine import SimulationEngine

    snapshot = {}
    for module_name, owner, attribute, *_rest in LAYER_PLAN:
        module = importlib.import_module(module_name)
        target = module if owner is None else getattr(module, owner)
        snapshot[(target, attribute)] = vars(target).get(attribute)
    for cls in (SimulationEngine, ClusterSimulation):
        snapshot[(cls, "__init__")] = vars(cls)["__init__"]
    worker_module = importlib.import_module(WORKER_ENTRY[0])
    snapshot[(worker_module, WORKER_ENTRY[1])] = getattr(worker_module, WORKER_ENTRY[1])
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for key, value in vars(module).items():
                if inspect.isfunction(value):
                    snapshot[(module, key)] = value
    return snapshot


def test_tracer_records_layers_and_restores_every_original(tmp_path, monkeypatch):
    import types

    from repro.workload import generator

    before = _traced_attributes()
    original_generate = generator.generate_trace
    late = types.ModuleType("repro.late_import")  # imported while traced: binds the wrapper
    tracer = Tracer(dump_dir=tmp_path)
    with tracer:
        late.generate_trace = generator.generate_trace
        monkeypatch.setitem(sys.modules, late.__name__, late)
        assert late.generate_trace is not original_generate
        result, _submitted = _small_result()
        result.slo_report()
        harvest = tracer.harvest()
    assert late.generate_trace is original_generate
    assert harvest["stats"]["engine.run"][0] == 1
    assert harvest["stats"]["workload.generate"][3] == len(result.requests)
    assert harvest["stats"]["metrics.slo"][0] == 1
    assert harvest["engine"]["events"] > 0
    assert "machine-step" in harvest["phases"]
    assert tracer.spans and all(end >= start for _name, start, end, _parent, _op in tracer.spans)
    after = _traced_attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_benchmark_descriptor_matches_the_code():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    descriptor = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in descriptor["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in descriptor["end_to_end"]} == run.E2E_METRICS
    expected_layers = {name: (unit, better) for name, (unit, better, listed) in LAYER_METRICS.items() if listed}
    expected_layers[run.TRACE_OVERHEAD[0]] = run.TRACE_OVERHEAD[1:]
    assert {m["name"]: (m["unit"], m["better"]) for m in descriptor["per_layer"]} == expected_layers
