"""Unit tests for the GPU memory model (Fig. 7)."""

from __future__ import annotations

import pytest

from repro.hardware.machine import DGX_A100, DGX_H100
from repro.models.llm import BLOOM_176B, LLAMA2_70B, ModelSpec
from repro.models.memory import DEFAULT_ACTIVATION_RESERVE_BYTES, GB, MemoryModel, MemoryUsage


class TestMemoryUsage:
    def test_total_is_sum_of_parts(self):
        usage = MemoryUsage(weight_bytes=10 * GB, activation_bytes=2 * GB, kv_cache_bytes=3 * GB)
        assert usage.total_bytes == pytest.approx(15 * GB)
        assert usage.total_gb == pytest.approx(15.0)


class TestMemoryModel:
    def test_bloom_fits_on_dgx(self):
        model = MemoryModel(BLOOM_176B, DGX_H100)
        assert model.max_kv_tokens > 0

    def test_model_too_large_raises(self):
        giant = ModelSpec(
            name="giant", num_parameters=400e9, num_layers=100, hidden_size=16384, num_heads=128, num_kv_heads=128
        )
        with pytest.raises(ValueError, match="does not fit"):
            MemoryModel(giant, DGX_A100)

    def test_usage_includes_weights_and_kv(self):
        memory = MemoryModel(BLOOM_176B, DGX_H100)
        usage = memory.usage(10_000)
        assert usage.weight_bytes == pytest.approx(BLOOM_176B.weight_bytes)
        assert usage.kv_cache_bytes == pytest.approx(BLOOM_176B.kv_cache_bytes(10_000))
        assert usage.total_gb > 350  # more than the bare model

    def test_usage_rejects_negative_tokens(self):
        memory = MemoryModel(LLAMA2_70B, DGX_H100)
        with pytest.raises(ValueError, match="cached_tokens"):
            memory.usage(-5)

    def test_bloom_runs_out_of_memory_around_batch_64(self):
        """Insight V / Fig. 6b: a DGX runs out of memory near 64 batched
        conversation-length requests for BLOOM-176B."""
        memory = MemoryModel(BLOOM_176B, DGX_H100)
        max_requests_at_1500_ctx = memory.max_kv_tokens / 1500
        assert 30 <= max_requests_at_1500_ctx <= 120

    def test_llama_kv_budget_much_larger_than_bloom(self):
        llama = MemoryModel(LLAMA2_70B, DGX_H100)
        bloom = MemoryModel(BLOOM_176B, DGX_H100)
        assert llama.max_kv_tokens > 5 * bloom.max_kv_tokens

    def test_invalid_usable_fraction(self):
        with pytest.raises(ValueError, match="usable_fraction"):
            MemoryModel(LLAMA2_70B, DGX_H100, usable_fraction=0.0)

    def test_negative_activation_reserve(self):
        with pytest.raises(ValueError, match="activation_reserve_bytes"):
            MemoryModel(LLAMA2_70B, DGX_H100, activation_reserve_bytes=-1)

    def test_capacity_reflects_usable_fraction(self):
        memory = MemoryModel(LLAMA2_70B, DGX_H100, usable_fraction=0.5)
        budget = 640 * GB * 0.5 - LLAMA2_70B.weight_bytes - DEFAULT_ACTIVATION_RESERVE_BYTES
        assert memory.max_kv_tokens == int(budget // LLAMA2_70B.kv_bytes_per_token)
