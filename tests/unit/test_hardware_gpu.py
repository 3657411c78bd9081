"""Unit tests for GPU specifications (Table I)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware.gpu import GPU_A100, GPU_H100, GpuSpec, power_capped


class TestGpuSpecValidation:
    def test_rejects_non_positive_tflops(self):
        with pytest.raises(ValueError, match="fp16_tflops"):
            dataclasses.replace(GPU_A100, fp16_tflops=0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="hbm_capacity_gb"):
            dataclasses.replace(GPU_A100, hbm_capacity_gb=-1)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError, match="hbm_bandwidth_gbps"):
            dataclasses.replace(GPU_A100, hbm_bandwidth_gbps=0)

    def test_rejects_cap_above_tdp(self):
        with pytest.raises(ValueError, match="power_cap_watts"):
            dataclasses.replace(GPU_A100, power_cap_watts=500.0)

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError, match="power_cap_watts"):
            dataclasses.replace(GPU_A100, power_cap_watts=0.0)

    def test_specs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GPU_A100.tdp_watts = 1.0  # type: ignore[misc]


class TestTable1Values:
    """The registered specs reproduce Table I of the paper."""

    def test_a100_values(self):
        assert GPU_A100.fp16_tflops == 19.5
        assert GPU_A100.hbm_capacity_gb == 80.0
        assert GPU_A100.hbm_bandwidth_gbps == 2039.0
        assert GPU_A100.tdp_watts == 400.0
        assert GPU_A100.infiniband_gbps == 200.0

    def test_h100_values(self):
        assert GPU_H100.fp16_tflops == 66.9
        assert GPU_H100.hbm_capacity_gb == 80.0
        assert GPU_H100.hbm_bandwidth_gbps == 3352.0
        assert GPU_H100.tdp_watts == 700.0
        assert GPU_H100.infiniband_gbps == 400.0

    def test_compute_ratio_is_343(self):
        assert GPU_H100.fp16_tflops / GPU_A100.fp16_tflops == pytest.approx(3.43, abs=0.01)

    def test_bandwidth_ratio_is_164(self):
        assert GPU_H100.hbm_bandwidth_gbps / GPU_A100.hbm_bandwidth_gbps == pytest.approx(1.64, abs=0.01)

    def test_power_ratio_is_175(self):
        assert GPU_H100.tdp_watts / GPU_A100.tdp_watts == pytest.approx(1.75, abs=0.01)

    def test_capacity_unchanged_between_generations(self):
        assert GPU_H100.hbm_capacity_gb == GPU_A100.hbm_capacity_gb

    def test_memory_to_compute_ratio_favours_a100(self):
        # Insight VII builds on the A100 having more bandwidth per FLOP.
        assert (
            GPU_A100.hbm_bandwidth_gbps / GPU_A100.fp16_tflops
            > GPU_H100.hbm_bandwidth_gbps / GPU_H100.fp16_tflops
        )


class TestPowerCapping:
    def test_cap_halves_power_budget(self):
        capped = power_capped(GPU_H100, 0.5)
        assert capped.power_cap_watts == pytest.approx(350.0)
        assert capped.power_cap_watts < capped.tdp_watts
        assert capped.power_cap_fraction == pytest.approx(0.5)

    def test_cap_preserves_other_capabilities(self):
        capped = power_capped(GPU_H100, 0.5)
        assert capped.fp16_tflops == GPU_H100.fp16_tflops
        assert capped.hbm_bandwidth_gbps == GPU_H100.hbm_bandwidth_gbps
        assert capped.cost_per_hour == GPU_H100.cost_per_hour

    def test_cap_of_one_keeps_name_and_is_uncapped(self):
        same = power_capped(GPU_A100, 1.0)
        assert same.name == "A100"
        assert same.power_cap_watts == same.tdp_watts

    def test_capped_name_encodes_fraction(self):
        assert power_capped(GPU_H100, 0.5).name == "H100-cap50"

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_invalid_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="cap_fraction"):
            power_capped(GPU_H100, fraction)

    def test_uncapped_gpu_reports_full_fraction(self):
        assert GPU_A100.power_cap_fraction == 1.0
        assert GPU_A100.power_cap_watts == GPU_A100.tdp_watts


def test_custom_gpu_spec_roundtrip():
    custom = GpuSpec(
        name="MI250",
        fp16_tflops=45.0,
        hbm_capacity_gb=128.0,
        hbm_bandwidth_gbps=3276.0,
        tdp_watts=560.0,
        power_cap_watts=560.0,
        nvlink_gbps=50.0,
        infiniband_gbps=200.0,
        cost_per_hour=20.0,
    )
    assert custom.power_cap_fraction == 1.0
