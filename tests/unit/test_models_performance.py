"""Unit tests for the performance models (Figs. 5/6, Table IV)."""

from __future__ import annotations

import pytest

from repro.hardware.machine import DGX_H100, DGX_H100_CAPPED, MachineSpec
from repro.hardware.gpu import GPU_H100
from repro.models.llm import BLOOM_176B, LLAMA2_70B, ModelSpec
from repro.models.performance import AnalyticalPerformanceModel


class TestCalibrationAnchors:
    """The analytical model reproduces the paper's published latencies."""

    def test_ttft_h100_at_1500_tokens_about_95ms(self, llama_h100_perf):
        assert llama_h100_perf.ttft(1500) * 1e3 == pytest.approx(95, rel=0.10)

    def test_ttft_a100_at_1500_tokens_about_185ms(self, llama_a100_perf):
        assert llama_a100_perf.ttft(1500) * 1e3 == pytest.approx(185, rel=0.10)

    def test_ttft_ratio_h100_over_a100_about_half(self, llama_h100_perf, llama_a100_perf):
        ratio = llama_h100_perf.ttft(1500) / llama_a100_perf.ttft(1500)
        assert 0.45 <= ratio <= 0.60

    def test_tbt_h100_about_28ms(self, llama_h100_perf):
        assert llama_h100_perf.tbt(1, 1024) * 1e3 == pytest.approx(28, rel=0.10)

    def test_tbt_ratio_h100_over_a100_about_07(self, llama_h100_perf, llama_a100_perf):
        ratio = llama_h100_perf.tbt(1, 1024) / llama_a100_perf.tbt(1, 1024)
        assert 0.6 <= ratio <= 0.8

    def test_tbt_at_batch_64_roughly_doubles(self, llama_h100_perf):
        """Fig. 5b: batching 64 decode requests only ~doubles TBT."""
        ratio = llama_h100_perf.tbt(64, 64 * 1024) / llama_h100_perf.tbt(1, 1024)
        assert 1.5 <= ratio <= 2.6

    def test_ttft_grows_with_prompt_size(self, llama_h100_perf):
        sizes = [128, 256, 512, 1024, 2048, 4096, 8192]
        latencies = [llama_h100_perf.ttft(n) for n in sizes]
        assert latencies == sorted(latencies)

    def test_bloom_slower_than_llama(self):
        bloom = AnalyticalPerformanceModel(BLOOM_176B, DGX_H100)
        llama = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100)
        assert bloom.ttft(1500) > llama.ttft(1500)
        assert bloom.tbt(1, 1024) > llama.tbt(1, 1024)

    def test_bloom_prompt_1500_about_six_decode_iterations(self):
        """Insight III for BLOOM-176B."""
        bloom = AnalyticalPerformanceModel(BLOOM_176B, DGX_H100)
        equivalent_tokens = bloom.ttft(1500) / bloom.tbt(1, 1500)
        assert 3.5 <= equivalent_tokens <= 8.0


class TestThroughputShapes:
    def test_prompt_throughput_peaks_near_2048(self, llama_h100_perf):
        """Fig. 6a / Insight IV: prompt throughput declines past ~2048 tokens."""
        t2048 = llama_h100_perf.prompt_throughput(2048)
        t8192 = llama_h100_perf.prompt_throughput(8192)
        t512 = llama_h100_perf.prompt_throughput(512)
        assert t2048 > t512
        assert t2048 > t8192

    def test_token_throughput_monotonically_increases_with_batch(self, llama_h100_perf):
        """Fig. 6b: decode throughput keeps scaling with batch size."""
        throughputs = [llama_h100_perf.token_throughput(b, b * 1024) for b in (1, 2, 4, 8, 16, 32, 64)]
        assert all(b > a for a, b in zip(throughputs, throughputs[1:]))


class TestLatencyComposition:
    def test_empty_iteration_takes_no_time(self, llama_h100_perf):
        assert llama_h100_perf.prompt_latency(0) == 0.0
        assert llama_h100_perf.token_latency(0) == 0.0

    def test_e2e_latency_grows_with_output_tokens(self, llama_h100_perf):
        _, _, e2e = llama_h100_perf.unbatched_latencies([1000, 1000], [50, 10])
        assert e2e[0] > e2e[1]

    def test_e2e_latency_of_single_token_is_ttft(self, llama_h100_perf):
        _, _, e2e = llama_h100_perf.unbatched_latencies([1000], [1])
        assert e2e[0] == pytest.approx(llama_h100_perf.ttft(1000))

    def test_e2e_rejects_zero_output(self, llama_h100_perf):
        with pytest.raises(ValueError, match="output_tokens"):
            llama_h100_perf.unbatched_latencies([100], [0])

    def test_negative_inputs_rejected(self, llama_h100_perf):
        with pytest.raises(ValueError):
            llama_h100_perf.prompt_latency(-1)
        with pytest.raises(ValueError):
            llama_h100_perf.token_latency(-1)


class TestPowerCapInteraction:
    def test_capped_machine_has_slower_prompts(self):
        capped = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100_CAPPED)
        uncapped = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100)
        assert capped.prompt_latency(4096) > uncapped.prompt_latency(4096)

    def test_capped_machine_decode_unaffected_at_50_percent(self):
        """Fig. 9b / Insight VI: 50% cap leaves the token phase untouched."""
        capped = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100_CAPPED)
        uncapped = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100)
        assert capped.token_latency(16, 16 * 1024) == pytest.approx(uncapped.token_latency(16, 16 * 1024))

    def test_cap_can_be_disabled(self):
        ignore_cap = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100_CAPPED, apply_power_cap=False)
        uncapped = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100)
        assert ignore_cap.prompt_latency(4096) == pytest.approx(uncapped.prompt_latency(4096))


class TestExtrapolationToUnknownHardware:
    def test_unknown_model_scales_with_parameter_count(self):
        small = ModelSpec(
            name="Phi-20B", num_parameters=20e9, num_layers=40, hidden_size=5120, num_heads=40, num_kv_heads=8
        )
        perf_small = AnalyticalPerformanceModel(small, DGX_H100)
        perf_llama = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100)
        assert perf_small.tbt(1, 1024) < perf_llama.tbt(1, 1024)

    def test_unknown_gpu_scales_with_compute(self):
        from dataclasses import replace

        slow_gpu = replace(GPU_H100, name="H50", fp16_tflops=GPU_H100.fp16_tflops / 2)
        slow_machine = MachineSpec(name="DGX-H50", gpu=slow_gpu)
        slow = AnalyticalPerformanceModel(LLAMA2_70B, slow_machine)
        fast = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100)
        assert slow.prompt_latency(2048) > fast.prompt_latency(2048)


class TestMemoizedLatencyTables:
    def test_prompt_latency_cache_hits_are_bit_identical(self, llama_h100_perf):
        first = llama_h100_perf.prompt_latency(1024)
        assert llama_h100_perf.prompt_latency(1024) == first
        assert 1024 in llama_h100_perf._prompt_cache

    def test_token_latency_cache_key_is_exact(self, llama_h100_perf):
        a = llama_h100_perf.token_latency(8, 8000)
        b = llama_h100_perf.token_latency(8, 8001)
        assert a != b  # exact context keys, not rounded buckets
        assert llama_h100_perf.token_latency(8, 8000) == a

    def test_invalidate_caches_clears_tables(self, llama_h100_perf):
        llama_h100_perf.prompt_latency(512)
        llama_h100_perf.token_latency(4, 4096)
        llama_h100_perf.invalidate_caches()
        assert not llama_h100_perf._prompt_cache
        assert not llama_h100_perf._token_cache

    def test_validation_still_raises_on_negative(self, llama_h100_perf):
        with pytest.raises(ValueError):
            llama_h100_perf.prompt_latency(-1)
        with pytest.raises(ValueError):
            llama_h100_perf.token_latency(-1)


class TestTokenLatencySeries:
    def test_analytical_series_matches_scalar_calls_exactly(self, llama_h100_perf):
        series = llama_h100_perf.token_latency_series(16, 20000, 16, 40)
        scalar = [llama_h100_perf.token_latency(16, 20000 + i * 16) for i in range(40)]
        assert list(series) == scalar  # bit-identical, not approx

    def test_empty_series(self, llama_h100_perf):
        assert list(llama_h100_perf.token_latency_series(4, 100, 4, 0)) == []
