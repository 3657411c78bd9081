"""Integration tests for the experiment runners (paper figures/tables).

Each test runs a reduced-scale version of an experiment and asserts the
qualitative result the paper reports.  The benchmark harness runs the same
functions at their default (larger) scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig3_token_distributions,
    fig4_batch_utilization,
    fig5_latency,
    fig6_throughput,
    fig7_memory,
    fig8_power,
    fig9_power_cap,
    fig12_design_space,
    fig14_transfer_latency,
    fig15_transfer_overhead,
    fig17_batch_occupancy,
    table1_hardware_comparison,
    table4_gpu_comparison,
)
from repro.experiments.cluster_eval import (
    PAPER_ISO_POWER_CONFIGS,
    batch_job_throughput_per_cost,
    fig16_latency_vs_load,
    scaled_design_suite,
)


class TestCharacterizationExperiments:
    def test_table1_ratios(self):
        table = table1_hardware_comparison()
        assert table["TFLOPs"]["ratio"] == pytest.approx(3.43, abs=0.01)
        assert table["HBM bandwidth (GBps)"]["ratio"] == pytest.approx(1.64, abs=0.01)
        assert table["Power (W)"]["ratio"] == pytest.approx(1.75, abs=0.01)

    def test_fig3_medians_match_paper(self):
        dists = fig3_token_distributions(sample_size=20000)
        assert dists["coding"]["prompt_p50"] == pytest.approx(1500, rel=0.08)
        assert 10 <= dists["coding"]["output_p50"] <= 17
        assert dists["conversation"]["prompt_p50"] == pytest.approx(1020, rel=0.10)
        assert dists["conversation"]["output_p50"] > dists["coding"]["output_p50"]

    def test_fig4_mixed_batching_underutilizes(self):
        """Insight II: most time is spent with few active tokens."""
        results = fig4_batch_utilization(duration_s=60.0)
        assert results["conversation"]["fraction_at_or_below_20_tokens"] > 0.4
        assert results["coding"]["fraction_at_1_token"] > 0.15

    def test_fig5_shapes(self):
        results = fig5_latency(num_requests=100)
        llama_ttft = results["ttft"]["Llama2-70B"]
        assert llama_ttft[8192] > llama_ttft[1024] > llama_ttft[128]
        llama_tbt = results["tbt"]["Llama2-70B"]
        assert llama_tbt[64] < 3 * llama_tbt[1]
        assert results["e2e"]["conversation-Llama2-70B"]["p99"] > results["e2e"]["conversation-Llama2-70B"]["p50"]

    def test_fig5_e2e_dominated_by_token_phase_for_conversation(self):
        """Insight III."""
        results = fig5_latency(num_requests=200)
        e2e_p50 = results["e2e"]["conversation-Llama2-70B"]["p50"]
        ttft_at_median_prompt = results["ttft"]["Llama2-70B"][1024] / 1e3
        assert e2e_p50 > 3 * ttft_at_median_prompt

    def test_fig6_throughput_shapes(self):
        results = fig6_throughput()
        prompt = results["prompt"]["Llama2-70B"]
        token = results["token"]["Llama2-70B"]
        assert max(prompt, key=prompt.get) in (2048, 4096)
        assert token[64] > token[1]

    def test_fig7_memory_grows_with_tokens_and_hits_capacity(self):
        results = fig7_memory()
        memory = results["memory_gb"]
        values = [memory[k] for k in sorted(memory)]
        assert values == sorted(values)
        assert results["max_kv_tokens"][0] < 120000  # BLOOM KV capacity is limited

    def test_fig8_power_shapes(self):
        results = fig8_power()
        prompt = results["prompt"]
        token = results["token"]
        assert prompt[8192] > prompt[512]
        assert max(token.values()) - min(token.values()) < 0.1
        assert prompt[8192] > max(token.values())

    def test_fig9_power_cap_asymmetry(self):
        results = fig9_power_cap()
        ttft = results["ttft_ms"]
        tbt = results["tbt_ms"]
        assert ttft[200] > 2.5 * ttft[700]
        assert tbt[350] == pytest.approx(tbt[700], rel=0.05)

    def test_table4_ratios_match_paper(self):
        table = table4_gpu_comparison(num_requests=200)
        for workload in ("coding", "conversation"):
            ratios = table[workload]["ratio_h100_over_a100"]
            assert 0.45 <= ratios["ttft_ms"] <= 0.60
            assert 0.6 <= ratios["tbt_ms"] <= 0.8
            assert 0.5 <= ratios["e2e_ms"] <= 0.8
            assert ratios["cost_usd"] > 1.0  # H100 costs more per request
            assert ratios["energy_wh"] >= 0.9


class TestTransferExperiments:
    def test_fig14_shapes(self):
        results = fig14_transfer_latency()
        assert results["A100-Serialized"][2048] > results["A100-Serialized"][512]
        assert results["A100-Serialized"][2048] > results["H100-Serialized"][2048]
        assert results["H100-Per-Layer"][2048] < results["H100-Serialized"][2048]
        assert results["A100-Per-Layer"][2048] < 12.0  # ms, small constant residue

    def test_fig15_overheads_match_paper_scale(self):
        results = fig15_transfer_overhead()
        assert results["e2e_overhead_per_layer"][2048] < 0.05
        assert results["e2e_overhead_serialized"][2048] < 0.10
        assert results["second_token_overhead_per_layer"][2048] < results["second_token_overhead_serialized"][2048]


class TestClusterExperiments:
    def test_scaled_suite_preserves_paper_proportions(self):
        suite = scaled_design_suite("conversation", scale=0.2)
        assert set(suite) == set(PAPER_ISO_POWER_CONFIGS["conversation"])
        assert suite["Splitwise-HH"].num_prompt == 5
        assert suite["Splitwise-HH"].num_token == 3
        assert not suite["Baseline-H100"].split

    def test_scaled_suite_is_roughly_iso_power(self):
        suite = scaled_design_suite("conversation", scale=0.2)
        powers = [design.provisioned_power_kw for design in suite.values()]
        assert max(powers) / min(powers) < 1.35

    def test_fig16_splitwise_improves_ttft_under_load(self):
        suite = scaled_design_suite("conversation", scale=0.15, families=("Baseline-H100", "Splitwise-HH"))
        results = fig16_latency_vs_load(suite, rates=(10.0,), duration_s=30.0)
        baseline = results["Baseline-H100"][10.0]
        splitwise = results["Splitwise-HH"][10.0]
        assert splitwise["ttft_p90"] < baseline["ttft_p90"]
        assert splitwise["completion_rate"] == 1.0

    def test_fig17_token_pool_batches_better_than_baseline(self):
        results = fig17_batch_occupancy(scale=0.15, low_rate=10.0, high_rate=16.0, duration_s=30.0)
        low = results["low"]
        assert low["splitwise_token_frac_le_15"] <= low["baseline_h100_frac_le_15"]

    def test_batch_job_throughput_per_cost_favours_a100(self):
        """§VI-E: A100-based clusters win on RPS/$ for batch jobs."""
        results = batch_job_throughput_per_cost(scale=0.12, stress_rate=25.0, duration_s=30.0)
        assert results["Baseline-A100"]["rps_per_dollar_hour"] >= results["Baseline-H100"]["rps_per_dollar_hour"]

    def test_fig12_design_space_finds_cost_optimum(self):
        results = fig12_design_space(
            target_rps=6.0,
            prompt_counts=(2, 3),
            token_counts=(1,),
            trace_duration_s=25.0,
        )
        assert results["grid"]
        if results["optimal"] is not None:
            optimal = results["grid"][results["optimal"]]
            assert optimal["feasible"]
            feasible_costs = [v["cost_per_hour"] for v in results["grid"].values() if v["feasible"]]
            assert optimal["cost_per_hour"] == min(feasible_costs)


class TestFleetRuns:
    def test_static_and_burst_fleets_serve_every_tenant(self):
        from repro.experiments.fleet_sweep import fleet_run_summary, prepare_fleet_run
        from repro.workload.scenarios import get_scenario

        entry = {}
        for label in ("static", "burst"):
            fleet, trace, failures = prepare_fleet_run(
                get_scenario("mixed-tenant"), clusters=2, burst_clusters=1, scale=0.5,
                policy="least-outstanding", burst=label == "burst",
            )
            entry[label] = fleet_run_summary(fleet.run(trace, failures=failures))
        for label in ("static", "burst"):
            run = entry[label]
            assert run["completion_rate"] == 1.0
            tenants = run["tenant_slo"]["tenants"]
            assert sorted(tenants) == ["coding", "conversation"]
            for tenant_entry in tenants.values():
                assert tenant_entry["samples"]["ttft"] > 0
        # The burst fleet's own provision-for-peak bound (same clusters, its
        # own window) must exceed what bursting actually consumed.
        assert entry["burst"]["static_machine_hours"] >= entry["burst"]["machine_hours"]
