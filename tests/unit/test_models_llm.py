"""Unit tests for LLM model specifications (Table III)."""

from __future__ import annotations

import pytest

from repro.models.llm import BLOOM_176B, LLAMA2_70B, ModelSpec, get_model


class TestTable3Values:
    def test_llama_architecture(self):
        assert LLAMA2_70B.num_layers == 80
        assert LLAMA2_70B.hidden_size == 8192
        assert LLAMA2_70B.num_parameters == pytest.approx(70e9)
        assert LLAMA2_70B.num_kv_heads == 8

    def test_bloom_architecture(self):
        assert BLOOM_176B.num_layers == 70
        assert BLOOM_176B.hidden_size == 14336
        assert BLOOM_176B.num_heads == 112
        assert BLOOM_176B.num_kv_heads == 112

    def test_weight_bytes_fp16(self):
        assert LLAMA2_70B.weight_bytes == pytest.approx(140e9)
        assert BLOOM_176B.weight_bytes == pytest.approx(352e9)

    def test_bloom_kv_cache_is_about_4mb_per_token(self):
        # 2 (K,V) * 70 layers * 14336 hidden * 2 bytes.
        assert BLOOM_176B.kv_bytes_per_token == pytest.approx(2 * 70 * 14336 * 2)

    def test_llama_kv_cache_is_gqa_reduced(self):
        # GQA: 8 of 64 heads store KV, so 1/8 the bytes of full attention.
        full = 2 * 80 * 8192 * 2
        assert LLAMA2_70B.kv_bytes_per_token == pytest.approx(full / 8)

    def test_bloom_kv_much_larger_than_llama(self):
        assert BLOOM_176B.kv_bytes_per_token / LLAMA2_70B.kv_bytes_per_token > 10


class TestModelSpecValidation:
    def test_rejects_indivisible_hidden_size(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec(name="x", num_parameters=1e9, num_layers=10, hidden_size=100, num_heads=3, num_kv_heads=3)

    def test_rejects_kv_heads_above_heads(self):
        with pytest.raises(ValueError, match="num_kv_heads"):
            ModelSpec(name="x", num_parameters=1e9, num_layers=10, hidden_size=128, num_heads=4, num_kv_heads=8)

    @pytest.mark.parametrize("field,value", [
        ("num_parameters", 0),
        ("num_layers", 0),
        ("hidden_size", -1),
        ("num_heads", 0),
    ])
    def test_rejects_non_positive_dimensions(self, field, value):
        kwargs = dict(name="x", num_parameters=1e9, num_layers=10, hidden_size=128, num_heads=4, num_kv_heads=4)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    def test_kv_cache_bytes_rejects_negative(self):
        with pytest.raises(ValueError, match="num_tokens"):
            LLAMA2_70B.kv_cache_bytes(-1)


class TestDerivedQuantities:
    def test_head_dim(self):
        assert LLAMA2_70B.head_dim == 128
        assert BLOOM_176B.head_dim == 128

    def test_kv_cache_scales_linearly(self):
        assert LLAMA2_70B.kv_cache_bytes(100) == pytest.approx(100 * LLAMA2_70B.kv_bytes_per_token)
        assert LLAMA2_70B.kv_cache_bytes(0) == 0


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_model("llama2-70b") is LLAMA2_70B
        assert get_model("BLOOM-176B") is BLOOM_176B

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="Unknown model"):
            get_model("GPT-5")
