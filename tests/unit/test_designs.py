"""Unit tests for the cluster designs (Table V)."""

from __future__ import annotations

import pytest

from repro.core.designs import (
    ClusterDesign,
    baseline_a100,
    baseline_h100,
    build_design,
    get_design_family,
    splitwise_aa,
    splitwise_ha,
    splitwise_hh,
    splitwise_hhcap,
)
from repro.hardware.machine import DGX_A100, DGX_H100, DGX_H100_CAPPED


class TestFactories:
    def test_baselines_are_not_split(self):
        assert not baseline_a100(4).split
        assert not baseline_h100(4).split

    def test_splitwise_designs_are_split(self):
        for factory in (splitwise_aa, splitwise_hh, splitwise_ha, splitwise_hhcap):
            assert factory(2, 2).split

    def test_machine_types_match_table_v(self):
        assert splitwise_ha(1, 1).prompt_machine is DGX_H100
        assert splitwise_ha(1, 1).token_machine is DGX_A100
        assert splitwise_hhcap(1, 1).token_machine is DGX_H100_CAPPED
        assert splitwise_aa(1, 1).prompt_machine is DGX_A100
        assert baseline_h100(1).prompt_machine is DGX_H100

    def test_labels(self):
        assert splitwise_hh(25, 15).label == "Splitwise-HH (25P, 15T)"
        assert baseline_a100(70).label == "Baseline-A100 (70P/T)"


class TestAggregates:
    def test_machine_count(self):
        assert splitwise_hh(25, 15).num_machines == 40
        assert baseline_h100(40).num_machines == 40

    def test_cost_sums_machine_costs(self):
        design = splitwise_ha(2, 3)
        expected = 2 * DGX_H100.cost_per_hour + 3 * DGX_A100.cost_per_hour
        assert design.cost_per_hour == pytest.approx(expected)

    def test_power_sums_machine_power(self):
        design = splitwise_hhcap(2, 2)
        expected = 2 * DGX_H100.provisioned_power_watts + 2 * DGX_H100_CAPPED.provisioned_power_watts
        assert design.provisioned_power_kw == pytest.approx(expected / 1e3)

    def test_hhcap_uses_less_power_than_hh_same_size(self):
        assert splitwise_hhcap(5, 5).provisioned_power_kw < splitwise_hh(5, 5).provisioned_power_kw

    def test_iso_power_baselines_match_paper_ratio(self):
        """70 DGX-A100 fit in roughly the power of 40 DGX-H100 (§VI-B)."""
        a100_power = baseline_a100(70).provisioned_power_kw
        h100_power = baseline_h100(40).provisioned_power_kw
        assert a100_power == pytest.approx(h100_power, rel=0.01)

    def test_splitwise_aa_costs_same_as_baseline_a100_same_count(self):
        assert splitwise_aa(45, 25).cost_per_hour == pytest.approx(baseline_a100(70).cost_per_hour)


class TestValidationAndDerivation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            splitwise_hh(-1, 2)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterDesign(name="x", prompt_machine=DGX_A100, token_machine=DGX_A100, num_prompt=0, num_token=0)

    def test_baseline_with_token_machines_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            ClusterDesign(
                name="x",
                prompt_machine=DGX_A100,
                token_machine=DGX_A100,
                num_prompt=1,
                num_token=1,
                split=False,
            )


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", [
        "Baseline-A100", "Baseline-H100", "Splitwise-AA", "Splitwise-HH", "Splitwise-HA", "Splitwise-HHcap",
    ])
    def test_lookup(self, name):
        factory = get_design_family(name)
        design = factory(2, 2) if name.startswith("Splitwise") else factory(2)
        assert design.name == name

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            get_design_family("Splitwise-XX")


class TestBuildDesign:
    def test_baseline_gets_one_pool_of_both_counts(self):
        design = build_design("Baseline-H100", 2, 1)
        assert design.num_machines == 3
        assert design == baseline_h100(3)

    def test_splitwise_keeps_both_pools_as_given(self):
        design = build_design("Splitwise-HA", 2, 1)
        assert (design.num_prompt, design.num_token) == (2, 1)
        assert design == splitwise_ha(2, 1)
