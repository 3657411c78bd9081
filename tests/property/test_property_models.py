"""Property-based tests for the performance, power, memory and transfer models."""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kv_transfer import KVTransferModel, TransferMode
from repro.hardware.interconnect import INFINIBAND_200, INFINIBAND_400
from repro.hardware.machine import DGX_A100, DGX_H100
from repro.models.llm import BLOOM_176B, LLAMA2_70B
from repro.models import performance
from repro.models.memory import MemoryModel
from repro.models.performance import AnalyticalPerformanceModel
from repro.models.power import PowerModel

_PERF_H100 = AnalyticalPerformanceModel(LLAMA2_70B, DGX_H100)
_PERF_A100 = AnalyticalPerformanceModel(LLAMA2_70B, DGX_A100)
_POWER = PowerModel(LLAMA2_70B, DGX_H100)
_MEMORY = MemoryModel(BLOOM_176B, DGX_H100)
_TRANSFER = KVTransferModel(model=LLAMA2_70B, link=INFINIBAND_400)

prompt_tokens = st.integers(min_value=1, max_value=16384)
batch_sizes = st.integers(min_value=1, max_value=128)
context_tokens = st.integers(min_value=0, max_value=500_000)


class TestPerformanceModelProperties:
    @given(prompt_tokens)
    def test_prompt_latency_positive_and_finite(self, tokens):
        latency = _PERF_H100.prompt_latency(tokens)
        assert 0 < latency < 60

    @given(prompt_tokens, prompt_tokens)
    def test_prompt_latency_monotone_in_tokens(self, a, b):
        small, large = sorted((a, b))
        assert _PERF_H100.prompt_latency(small) <= _PERF_H100.prompt_latency(large) + 1e-12

    @given(batch_sizes, batch_sizes)
    def test_token_latency_monotone_in_batch(self, a, b):
        small, large = sorted((a, b))
        assert _PERF_H100.token_latency(small, small * 512) <= _PERF_H100.token_latency(large, large * 512) + 1e-12

    @given(batch_sizes, context_tokens, context_tokens)
    def test_token_latency_monotone_in_context(self, batch, ctx_a, ctx_b):
        small, large = sorted((ctx_a, ctx_b))
        assert _PERF_H100.token_latency(batch, small) <= _PERF_H100.token_latency(batch, large) + 1e-12

    @given(prompt_tokens)
    def test_h100_always_faster_than_a100_for_prompts(self, tokens):
        assert _PERF_H100.prompt_latency(tokens) < _PERF_A100.prompt_latency(tokens)

    @given(batch_sizes)
    def test_batching_never_hurts_token_throughput(self, batch):
        single = _PERF_H100.token_throughput(1, 1024)
        batched = _PERF_H100.token_throughput(batch, batch * 1024)
        assert batched >= single * 0.99

    @given(prompt_tokens, st.integers(min_value=1, max_value=64))
    def test_e2e_at_least_ttft(self, tokens, outputs):
        assert _PERF_H100.unbatched_latencies([tokens], [outputs])[2][0] >= _PERF_H100.ttft(tokens)


def _per_token_e2e(perf, prompt, output):
    """A request's unbatched E2E as a per-token loop: the oracle of the batched path."""
    total = perf.prompt_latency(prompt)
    for i in range(1, output):
        total += perf.token_latency(1, prompt + i)
    return total


class TestUnbatchedLatencies:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([LLAMA2_70B, BLOOM_176B]),
        st.sampled_from([DGX_A100, DGX_H100]),
        st.sampled_from([1.0, 1.7]),
        st.lists(
            st.tuples(st.integers(0, 8192), st.one_of(st.just(1), st.integers(1, 600))), min_size=1, max_size=12
        ),
        # Block sizes from one row per block up to the whole batch in one.
        st.sampled_from([1, 64, 1 << 18]),
    )
    def test_batched_reference_matches_per_token_loop_bit_for_bit(
        self, model, machine, straggler, requests, block_cells
    ):
        perf = AnalyticalPerformanceModel(model, machine)
        if straggler != 1.0:
            perf.set_slowdown(straggler)
        prompts, outputs = zip(*requests)
        with mock.patch.object(performance, "_E2E_BLOCK_CELLS", block_cells):
            ttft, tbt, e2e = perf.unbatched_latencies(prompts, outputs)
        for i, (prompt, output) in enumerate(requests):
            assert float(e2e[i]).hex() == _per_token_e2e(perf, prompt, output).hex()
            assert float(ttft[i]).hex() == perf.prompt_latency(prompt).hex()
            assert float(tbt[i]).hex() == perf.token_latency(1, prompt).hex()
        prompt, output = requests[-1]
        single = perf.unbatched_latencies([prompt], [output])[2][0]
        assert float(single).hex() == _per_token_e2e(perf, prompt, output).hex()


class TestPowerModelProperties:
    @given(st.integers(min_value=0, max_value=50_000))
    def test_prompt_power_fraction_bounded(self, tokens):
        fraction = _POWER.prompt_power_fraction(tokens)
        assert 0 < fraction <= 1.0

    @given(st.integers(min_value=0, max_value=256))
    def test_token_power_fraction_bounded(self, batch):
        fraction = _POWER.token_power_fraction(batch)
        assert 0 < fraction <= 1.0

    @given(st.integers(min_value=1, max_value=16384), st.floats(min_value=0.1, max_value=1.0))
    def test_cap_slowdowns_at_least_one(self, tokens, cap):
        assert _POWER.prompt_cap_slowdown(tokens, cap) >= 1.0
        assert _POWER.token_cap_slowdown(max(1, tokens // 256), cap) >= 1.0

    @given(st.integers(min_value=1, max_value=8192), st.floats(min_value=0.01, max_value=10.0))
    def test_energy_non_negative_and_linear(self, tokens, duration):
        energy = _POWER.prompt_energy_wh(tokens, duration)
        assert energy >= 0
        assert _POWER.prompt_energy_wh(tokens, 2 * duration) > energy


class TestMemoryModelProperties:
    @given(st.integers(min_value=0, max_value=200_000))
    def test_usage_monotone(self, tokens):
        assert _MEMORY.usage(tokens + 1).total_bytes >= _MEMORY.usage(tokens).total_bytes


class TestTransferModelProperties:
    @given(st.integers(min_value=1024, max_value=8192))
    def test_per_layer_hides_latency_for_large_prompts(self, tokens):
        prompt_latency = _PERF_H100.prompt_latency(tokens)
        serialized = _TRANSFER.serialized_latency(tokens)
        per_layer = _TRANSFER.per_layer_latency(tokens, prompt_latency)
        assert per_layer <= serialized + 1e-9

    @given(st.integers(min_value=1, max_value=8192))
    def test_chosen_mode_never_far_worse_than_alternative(self, tokens):
        """Splitwise picks serialized below the threshold exactly because the
        per-layer scheme's constant residue dominates for small prompts."""
        prompt_latency = _PERF_H100.prompt_latency(tokens)
        chosen = _TRANSFER.visible_latency(tokens, prompt_latency)
        alternative = min(
            _TRANSFER.serialized_latency(tokens),
            _TRANSFER.per_layer_latency(tokens, prompt_latency),
        )
        assert chosen <= alternative * 1.5 + 0.002

    @given(st.integers(min_value=1, max_value=8192), st.integers(min_value=1, max_value=8192))
    def test_serialized_monotone_in_tokens(self, a, b):
        small, large = sorted((a, b))
        assert _TRANSFER.serialized_latency(small) <= _TRANSFER.serialized_latency(large)

    @given(st.integers(min_value=1, max_value=8192))
    def test_slower_link_never_faster(self, tokens):
        slow = KVTransferModel(model=LLAMA2_70B, link=INFINIBAND_200)
        assert slow.serialized_latency(tokens) >= _TRANSFER.serialized_latency(tokens)

    @given(st.integers(min_value=1, max_value=8192))
    def test_visible_latency_positive(self, tokens):
        assert _TRANSFER.visible_latency(tokens, _PERF_H100.prompt_latency(tokens)) > 0
