"""Unit tests for the power model (Figs. 8 and 9)."""

from __future__ import annotations

import pytest

from repro.hardware.machine import DGX_A100, DGX_H100, DGX_H100_CAPPED
from repro.models.llm import LLAMA2_70B
from repro.models.power import PowerModel


@pytest.fixture
def power_h100() -> PowerModel:
    return PowerModel(LLAMA2_70B, DGX_H100)


class TestPromptPower:
    def test_draw_increases_with_batch_size(self, power_h100):
        """Fig. 8a: prompt power grows with batched tokens."""
        fractions = [power_h100.prompt_power_fraction(n) for n in (512, 1024, 2048, 4096, 8192)]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_reaches_tdp_at_large_batches(self, power_h100):
        assert power_h100.prompt_power_fraction(8192) == pytest.approx(1.0)

    def test_idle_draw_when_no_tokens(self, power_h100):
        assert power_h100.prompt_power_fraction(0) < 0.3

    def test_rejects_negative_tokens(self, power_h100):
        with pytest.raises(ValueError):
            power_h100.prompt_power_fraction(-1)

    def test_watts_scale_with_machine_tdp(self):
        h100 = PowerModel(LLAMA2_70B, DGX_H100).prompt_power(8192).gpu_watts
        a100 = PowerModel(LLAMA2_70B, DGX_A100).prompt_power(8192).gpu_watts
        assert h100 / a100 == pytest.approx(5600 / 3200, rel=0.01)

    def test_capped_machine_cannot_exceed_cap(self):
        capped = PowerModel(LLAMA2_70B, DGX_H100_CAPPED)
        assert capped.prompt_power_fraction(8192) <= 0.5 + 1e-9


class TestTokenPower:
    def test_draw_is_roughly_flat_with_batch_size(self, power_h100):
        """Fig. 8b: token-phase power is insensitive to batch size."""
        small = power_h100.token_power_fraction(1)
        large = power_h100.token_power_fraction(16)
        assert large - small < 0.1

    def test_token_draw_is_about_half_of_tdp(self, power_h100):
        """Insight VI: the token phase underuses the power budget."""
        assert 0.35 <= power_h100.token_power_fraction(16) <= 0.6

    def test_token_draw_below_prompt_draw(self, power_h100):
        assert power_h100.token_power_fraction(16) < power_h100.prompt_power_fraction(4096)

    def test_rejects_negative_batch(self, power_h100):
        with pytest.raises(ValueError):
            power_h100.token_power_fraction(-1)


class TestPowerCapSlowdowns:
    def test_prompt_unaffected_at_full_power(self, power_h100):
        assert power_h100.prompt_cap_slowdown(8192, 1.0) == 1.0

    def test_prompt_slows_roughly_2x_at_half_power(self, power_h100):
        """Fig. 9a: halving the cap roughly doubles TTFT at full batch."""
        assert power_h100.prompt_cap_slowdown(8192, 0.5) == pytest.approx(2.0, rel=0.1)

    def test_prompt_slowdown_monotone_in_cap(self, power_h100):
        caps = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3]
        slowdowns = [power_h100.prompt_cap_slowdown(8192, c) for c in caps]
        assert all(b >= a for a, b in zip(slowdowns, slowdowns[1:]))

    def test_token_unaffected_down_to_half_power(self, power_h100):
        """Fig. 9b: the token phase tolerates a 50% cap."""
        assert power_h100.token_cap_slowdown(16, 0.55) == 1.0
        assert power_h100.token_cap_slowdown(16, 1.0) == 1.0

    def test_token_slows_below_half_power(self, power_h100):
        assert power_h100.token_cap_slowdown(16, 0.25) > 1.5

    def test_invalid_cap_rejected(self, power_h100):
        with pytest.raises(ValueError):
            power_h100.prompt_cap_slowdown(1024, 0.0)
        with pytest.raises(ValueError):
            power_h100.token_cap_slowdown(1, 1.5)

    def test_machine_cap_used_by_default(self):
        capped = PowerModel(LLAMA2_70B, DGX_H100_CAPPED)
        assert capped.prompt_cap_slowdown(8192) > 1.0
        assert capped.token_cap_slowdown(16) == 1.0


class TestEnergy:
    def test_energy_proportional_to_duration(self, power_h100):
        one = power_h100.prompt_energy_wh(2048, 1.0)
        two = power_h100.prompt_energy_wh(2048, 2.0)
        assert two == pytest.approx(2 * one)

    def test_energy_watthours_conversion(self, power_h100):
        watts = power_h100.token_power(8).gpu_watts
        assert power_h100.token_energy_wh(8, 3600.0) == pytest.approx(watts)

    def test_negative_duration_rejected(self, power_h100):
        with pytest.raises(ValueError):
            power_h100.prompt_energy_wh(100, -1.0)
        with pytest.raises(ValueError):
            power_h100.token_energy_wh(1, -1.0)


class TestMemoizedPowerTables:
    def test_power_and_slowdown_caches_return_identical_values(self, power_h100):
        assert power_h100.token_power(8) is power_h100.token_power(8)  # memoized object
        assert power_h100.prompt_power(2048) is power_h100.prompt_power(2048)
        first = power_h100.token_cap_slowdown(16)
        assert power_h100.token_cap_slowdown(16) == first

    def test_explicit_cap_bypasses_the_cache(self, power_h100):
        default = power_h100.token_cap_slowdown(16)
        capped = power_h100.token_cap_slowdown(16, cap_fraction=0.3)
        assert capped > default
        # The explicit-cap result must not pollute the default-cap cache.
        assert power_h100.token_cap_slowdown(16) == default

    def test_invalidate_caches(self, power_h100):
        power_h100.token_power(4)
        power_h100.prompt_cap_slowdown(1024)
        power_h100.invalidate_caches()
        assert not power_h100._token_power_cache
        assert not power_h100._prompt_slowdown_cache


class TestTokenEnergySeries:
    def test_series_matches_scalar_calls_exactly(self, power_h100):
        durations = [0.03, 0.031, 0.0325, 0.04]
        series = power_h100.token_energy_series(8, durations)
        scalar = [power_h100.token_energy_wh(8, d) for d in durations]
        assert list(series) == scalar  # bit-identical

    def test_empty_series(self, power_h100):
        assert list(power_h100.token_energy_series(8, [])) == []
