"""Unit tests for DGX machine specifications."""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware.gpu import GPU_A100, GPU_H100
from repro.hardware.machine import (
    DGX_A100,
    DGX_H100,
    DGX_H100_CAPPED,
    MachineSpec,
)


class TestMachineSpecValidation:
    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError, match="num_gpus"):
            MachineSpec(name="bad", gpu=GPU_A100, num_gpus=0)

    def test_rejects_tensor_parallelism_above_gpu_count(self):
        with pytest.raises(ValueError, match="tensor_parallelism"):
            MachineSpec(name="bad", gpu=GPU_A100, num_gpus=4, tensor_parallelism=8)

    def test_cost_defaults_to_gpu_cost(self):
        assert DGX_A100.cost_per_hour == GPU_A100.cost_per_hour
        assert DGX_H100.cost_per_hour == GPU_H100.cost_per_hour

    def test_interconnect_defaults_to_gpu_infiniband(self):
        assert DGX_A100.interconnect_gbps == 200.0
        assert DGX_H100.interconnect_gbps == 400.0


class TestAggregates:
    def test_dgx_has_eight_gpus(self):
        assert DGX_A100.num_gpus == 8
        assert DGX_H100.num_gpus == 8

    def test_total_capacity_is_640gb(self):
        assert DGX_A100.total_hbm_capacity_gb == pytest.approx(640.0)
        assert DGX_H100.total_hbm_capacity_gb == pytest.approx(640.0)

    def test_total_bandwidth(self):
        assert DGX_H100.total_hbm_bandwidth_gbps == pytest.approx(8 * 3352.0)

    def test_gpu_tdp_totals(self):
        assert DGX_A100.gpu_tdp_watts == pytest.approx(3200.0)
        assert DGX_H100.gpu_tdp_watts == pytest.approx(5600.0)


class TestPowerProvisioning:
    def test_h100_machine_power_ratio_about_175(self):
        ratio = DGX_H100.provisioned_power_watts / DGX_A100.provisioned_power_watts
        assert ratio == pytest.approx(1.75, abs=0.01)

    def test_capped_h100_power_ratio_about_123(self):
        # Table V: the capped DGX-H100 provisions ~1.23x the power of a DGX-A100.
        ratio = DGX_H100_CAPPED.provisioned_power_watts / DGX_A100.provisioned_power_watts
        assert 1.1 <= ratio <= 1.35

    def test_capped_machine_is_cheaper_in_power_not_cost(self):
        assert DGX_H100_CAPPED.provisioned_power_watts < DGX_H100.provisioned_power_watts
        assert DGX_H100_CAPPED.cost_per_hour == DGX_H100.cost_per_hour

    def test_capped_machine_reports_capped(self):
        assert DGX_H100_CAPPED.gpu.power_cap_fraction == 0.5
        assert DGX_H100.gpu.power_cap_fraction == 1.0


class TestRegistryAndDerivation:
    def test_cost_ratio_h100_over_a100_matches_table_v(self):
        ratio = DGX_H100.cost_per_hour / DGX_A100.cost_per_hour
        assert ratio == pytest.approx(2.16, abs=0.01)

    def test_machine_spec_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DGX_A100.num_gpus = 4  # type: ignore[misc]
