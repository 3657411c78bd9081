"""Unit tests for the interconnect model."""

from __future__ import annotations

import pytest

from repro.hardware.interconnect import (
    INFINIBAND_200,
    INFINIBAND_400,
    InterconnectSpec,
    infiniband_for,
)


class TestInterconnectSpec:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth_gbps"):
            InterconnectSpec(name="bad", bandwidth_gbps=0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError, match="efficiency"):
            InterconnectSpec(name="bad", bandwidth_gbps=100, efficiency=1.5)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency_s"):
            InterconnectSpec(name="bad", bandwidth_gbps=100, latency_s=-1e-6)

    def test_effective_bandwidth_accounts_for_efficiency(self):
        spec = InterconnectSpec(name="x", bandwidth_gbps=400, efficiency=0.85)
        assert spec.effective_bytes_per_second == pytest.approx(400e9 / 8 * 0.85)

    def test_transfer_time_scales_linearly_with_size(self):
        spec = INFINIBAND_200
        one_gb = spec.transfer_time(1e9)
        two_gb = spec.transfer_time(2e9)
        assert two_gb - spec.latency_s == pytest.approx(2 * (one_gb - spec.latency_s))

    def test_zero_bytes_still_pays_latency(self):
        assert INFINIBAND_400.transfer_time(0) == pytest.approx(INFINIBAND_400.latency_s)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="num_bytes"):
            INFINIBAND_200.transfer_time(-1)

    def test_400g_is_twice_as_fast_as_200g_for_large_transfers(self):
        payload = 1e9
        t200 = INFINIBAND_200.transfer_time(payload) - INFINIBAND_200.latency_s
        t400 = INFINIBAND_400.transfer_time(payload) - INFINIBAND_400.latency_s
        assert t200 / t400 == pytest.approx(2.0, rel=1e-6)


class TestInfinibandFor:
    def test_homogeneous_pair_keeps_bandwidth(self):
        assert infiniband_for(400, 400).bandwidth_gbps == 400

    def test_heterogeneous_pair_limited_by_slower_endpoint(self):
        # Splitwise-HA: H100 prompt (400 Gbps) -> A100 token (200 Gbps).
        spec = infiniband_for(400, 200)
        assert spec.bandwidth_gbps == 200
        assert spec.name == "IB-200"
