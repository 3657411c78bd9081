"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.workload.trace import Trace


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
        for label in ("static", "autoscaled"):
            assert first[label]["slo_samples"]["tbt"] > 0
            assert first[label]["slo_samples"]["ttft"] > 0
        assert "machine_hours_saved" in first
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
        payloads = []
        for _ in range(2):
            code = main(["fleet", "--preset", "mixed-tenant", "--clusters", "2",
                         "--scale", "0.5", "--json"])
            payloads.append(json.loads(capsys.readouterr().out))
            assert code in (0, 2)
        first, second = payloads
        assert first == second  # same seed => bit-identical
        assert sorted(first["tenants"]) == ["coding", "conversation"]
        for label in ("static", "burst"):
            tenants = first[label]["tenant_slo"]["tenants"]
            assert sorted(tenants) == ["coding", "conversation"]
            for entry in tenants.values():
                assert entry["samples"]["ttft"] > 0
                assert entry["samples"]["tbt"] > 0
        assert "machine_hours_saved" in first
        assert isinstance(first["timeline"], list)

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
