"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import span_census, validate_trace
from repro.workload.trace import Trace


def _fleet_json(capsys, *args: str) -> dict:
    """Run ``repro-sim fleet ... --json`` in-process; an SLO miss (exit 2) is allowed."""
    code = main(["fleet", *args, "--json"])
    assert code in (0, 2)
    return json.loads(capsys.readouterr().out)


def _assert_census_closes(run: dict, submitted: int) -> None:
    """completed + shed + expired == submitted, from a fleet run's JSON summary."""
    completed = round(run["completion_rate"] * submitted)
    shed = sum(run.get("requests_shed", {}).values())
    expired = sum(run.get("requests_expired", {}).values())
    assert completed + shed + expired == submitted, (completed, shed, expired, submitted)


class TestTraceCommand:
    def test_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        code = main(["trace", "--workload", "coding", "--rate", "3", "--duration", "20", "-o", str(output)])
        assert code == 0
        assert output.exists()
        trace = Trace.from_csv(output)
        assert len(trace) > 20
        assert "wrote" in capsys.readouterr().out


class TestSimulateCommand:
    def test_generated_trace_summary(self, capsys):
        code = main([
            "simulate", "--design", "Splitwise-HH", "--prompt", "1", "--token", "1",
            "--workload", "coding", "--rate", "2", "--duration", "15",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ttft_p50_ms" in out
        assert "Splitwise-HH (1P, 1T)" in out

    def test_json_output_parses(self, capsys):
        code = main([
            "simulate", "--design", "Baseline-H100", "--prompt", "1", "--token", "0",
            "--workload", "coding", "--rate", "1", "--duration", "15", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert payload["design"].startswith("Baseline-H100")
        assert payload["completion_rate"] == 1.0
        assert payload["ttft_p50_ms"] > 0

    def test_replays_csv_trace(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        main(["trace", "--workload", "coding", "--rate", "2", "--duration", "15", "-o", str(output)])
        capsys.readouterr()
        code = main(["simulate", "--design", "Splitwise-HA", "--prompt", "1", "--token", "1",
                     "--trace", str(output)])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "trace" in out

    def test_rate_and_duration_reshape_replayed_trace(self, tmp_path, capsys):
        """Explicit --rate / --duration must apply to a replayed trace, not be
        silently ignored."""
        output = tmp_path / "trace.csv"
        main(["trace", "--workload", "coding", "--rate", "2", "--duration", "30", "-o", str(output)])
        capsys.readouterr()
        full = len(Trace.from_csv(output))
        code = main(["simulate", "--design", "Splitwise-HH", "--prompt", "1", "--token", "1",
                     "--trace", str(output), "--rate", "4", "--duration", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert payload["requests"] < full
        # ~4 RPS over the 5s truncation window.
        assert 5 <= payload["requests"] <= 40
        assert any("rescaled" in note for note in payload["notes"])
        assert any("truncated" in note for note in payload["notes"])

    def test_replayed_trace_untouched_without_flags(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        main(["trace", "--workload", "coding", "--rate", "2", "--duration", "15", "-o", str(output)])
        capsys.readouterr()
        full = len(Trace.from_csv(output))
        code = main(["simulate", "--design", "Splitwise-HH", "--prompt", "1", "--token", "1",
                     "--trace", str(output), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert payload["requests"] == full
        assert "notes" not in payload

    def test_overloaded_cluster_returns_slo_exit_code(self, capsys):
        code = main([
            "simulate", "--design", "Baseline-H100", "--prompt", "1", "--token", "0",
            "--workload", "conversation", "--rate", "20", "--duration", "15",
        ])
        assert code == 2
        capsys.readouterr()


class TestScenarioCommand:
    def test_diurnal_preset_prints_slo_and_machine_hours(self, capsys):
        code = main(["scenario", "--preset", "diurnal", "--scale", "0.5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "static" in out
        assert "autoscaled" in out
        assert "machine-hours saved" in out

    def test_json_output_is_non_vacuous_and_deterministic(self, capsys):
        payloads = []
        for _ in range(2):
            code = main(["scenario", "--preset", "diurnal", "--scale", "0.5", "--json"])
            payloads.append(json.loads(capsys.readouterr().out))
            assert code in (0, 2)
        first, second = payloads
        # Same seed => bit-identical results across two runs.
        assert first == second
        # The SLO evaluator must judge real evidence, and the autoscaler must act.
        for label in ("static", "autoscaled"):
            samples = first[label]["slo_samples"]
            assert samples["ttft"] > 0 and samples["tbt"] > 0 and samples["e2e"] > 0, label
            assert first[label]["completion_rate"] == 1.0, label
        assert first["autoscaled"]["slo_satisfied"]
        assert first["machine_hours_saved"] > 0
        assert isinstance(first["timeline"], list)

    def test_no_autoscaler_skips_comparison(self, capsys):
        code = main(["scenario", "--preset", "failure-under-load", "--scale", "0.5",
                     "--no-autoscaler", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert "autoscaled" not in payload
        assert "machine_hours_saved" not in payload

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--preset", "lunar-eclipse"])


class TestFleetCommand:
    def test_mixed_tenant_reports_per_tenant_slo_and_hours(self, capsys):
        code = main(["fleet", "--preset", "mixed-tenant", "--clusters", "2", "--scale", "0.5"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "per-tenant SLO" in out
        assert "coding=" in out and "conversation=" in out
        assert "machine-hours saved vs static" in out

    def test_json_output_is_non_vacuous_and_deterministic(self, capsys):
        first, second = (
            _fleet_json(capsys, "--preset", "mixed-tenant", "--clusters", "2", "--scale", "0.5")
            for _ in range(2)
        )
        assert first == second  # same seed => bit-identical
        assert sorted(first["tenants"]) == ["coding", "conversation"]
        for label in ("static", "burst"):
            assert first[label]["completion_rate"] == 1.0, label
            tenants = first[label]["tenant_slo"]["tenants"]
            assert sorted(tenants) == ["coding", "conversation"]
            for tenant, entry in tenants.items():
                samples = entry["samples"]
                assert samples["ttft"] > 0 and samples["tbt"] > 0 and samples["e2e"] > 0, (label, tenant)
        assert first["burst"]["tenant_slo"]["satisfied"]
        assert first["burst"]["bursts"] >= 1  # the provisioner burst a standby
        assert "machine_hours_saved" in first
        assert isinstance(first["timeline"], list)

    def test_failure_storm_fires_faults_and_closes_the_census(self, capsys):
        """An SLO miss is expected under a storm; the report's evidence is what counts."""
        first, second = (
            _fleet_json(capsys, "--preset", "failure-storm", "--scale", "0.5") for _ in range(2)
        )
        assert first == second
        assert first["chaos"] == "failure-storm"
        assert first["fault_seed"] is not None
        for label in ("static", "burst"):
            run = first[label]
            fired = run["faults"]["fired"]
            assert sum(fired.values()) > 0, label
            assert fired.get("machine-fail", 0) > 0, label
            _assert_census_closes(run, first["requests"])
            goodput = run["tenant_slo"]["fleet"]["goodput"]
            assert goodput is not None and 0 < goodput <= 1, label
        assert first["burst"]["bans_issued"] >= 1  # the router's reliability loop banned

    def test_reliability_layer_pays_for_itself_under_storm(self, capsys):
        args = ("--preset", "mixed-tenant", "--chaos", "failure-storm", "--clusters", "2",
                "--burst-clusters", "0", "--scale", "0.5", "--no-burst")
        payload, repeat = (_fleet_json(capsys, *args) for _ in range(2))
        baseline = _fleet_json(capsys, *args, "--no-reliability")
        assert payload == repeat
        assert payload["retry"] is not None and payload["hedge"]
        assert baseline["retry"] is None and not baseline["hedge"]
        run = payload["static"]
        lifecycle = run["reliability"]
        assert lifecycle["retries_fired"] > 0
        assert lifecycle["hedges_launched"] > 0
        assert lifecycle["hedge_wasted_tokens"] >= 0
        _assert_census_closes(run, payload["requests"])
        goodput = run["tenant_slo"]["fleet"]["goodput"]
        assert goodput >= baseline["static"]["tenant_slo"]["fleet"]["goodput"]

    def test_traced_storm_artifacts_match_untraced_run(self, tmp_path, capsys):
        args = ("--preset", "failure-storm", "--chaos", "failure-storm", "--clusters", "2",
                "--burst-clusters", "1", "--scale", "0.25")
        trace_path, metrics_path = tmp_path / "obs_trace.json", tmp_path / "obs_metrics.jsonl"
        traced = _fleet_json(capsys, *args, "--trace-out", str(trace_path), "--metrics-out", str(metrics_path))
        untraced = _fleet_json(capsys, *args)
        obs = traced.pop("observability")
        assert traced == untraced  # observing never perturbs the simulation

        trace = json.loads(trace_path.read_text())
        assert validate_trace(trace) == []
        census = span_census(trace)
        assert census == obs["span_census"]
        assert sum(census.values()) == traced["requests"]  # closes from the artifact alone

        rows = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert rows and rows[0]["time_s"] == 0.0
        assert len(rows) == obs["metric_samples"]
        prom = (tmp_path / "obs_metrics.prom").read_text()
        assert "# TYPE fleet_outstanding_requests gauge" in prom

    def test_json_is_independent_of_hash_seed(self):
        """Set/dict-order leaks would show up as a diff between two hash seeds."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "fleet", "--preset", "mixed-tenant",
                 "--scale", "0.25", "--json"],
                env=env, capture_output=True, check=False,
            )
            assert completed.returncode in (0, 2), completed.stderr.decode()
            outputs.append(completed.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_no_burst_skips_comparison(self, capsys):
        code = main(["fleet", "--preset", "diurnal", "--clusters", "2", "--scale", "0.5",
                     "--no-burst", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert "burst" not in payload
        assert "machine_hours_saved" not in payload

    def test_parallel_json_matches_serial(self, capsys):
        """A decomposable fleet shards for real; only the provenance block differs."""
        args = ["fleet", "--preset", "mixed-tenant", "--clusters", "4", "--burst-clusters", "0",
                "--no-burst", "--policy", "weighted-rr", "--scale", "0.5", "--json"]
        payloads = []
        for extra in ([], ["--parallel", "2"]):
            code = main(args + extra)
            assert code in (0, 2)
            payloads.append(json.loads(capsys.readouterr().out))
        serial, parallel = payloads
        info = parallel["parallel"]
        for payload in payloads:
            payload.pop("parallel")
            payload.pop("burst_parallel", None)
        assert parallel == serial
        assert info["mode"] == "parallel"
        assert info["shards"] == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "fastest-first"])


class TestProvisionCommand:
    def test_reports_optimum_for_feasible_load(self, capsys):
        code = main([
            "provision", "--design", "Splitwise-HH", "--workload", "coding",
            "--rate", "4", "--duration", "20", "--spread", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal (cost):" in out
        assert "analytical estimate" in out


class TestDesignsCommand:
    def test_lists_all_families(self, capsys):
        code = main(["designs", "--prompt", "2", "--token", "2"])
        out = capsys.readouterr().out
        assert code == 0
        for family in ("Baseline-A100", "Splitwise-HHcap", "Splitwise-HA"):
            assert family in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--design", "Splitwise-XY"])
