"""Cluster interconnect model.

KV-cache transfers in Splitwise travel over the InfiniBand back-plane between
the prompt machine and the token machine.  The model here is intentionally
simple — latency plus bandwidth — because that is all the paper's transfer
analysis (Figs. 14 and 15) requires: the serialized transfer time grows
linearly with the KV-cache size, and the per-layer overlapped transfer leaves
only a small constant non-overlapped residue.

Bandwidth convention: machine specs quote link speed in **Gbps** (gigabits per
second, as in the paper); transfer sizes are in bytes, so the link converts
via an efficiency factor that accounts for protocol overheads.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fraction of raw link bandwidth achievable for large RDMA transfers.
DEFAULT_LINK_EFFICIENCY = 0.85

#: One-way software + NIC latency for a put/semaphore pair, in seconds.
DEFAULT_LINK_LATENCY_S = 20e-6


@dataclass(frozen=True)
class InterconnectSpec:
    """Static description of a point-to-point InfiniBand connection.

    Attributes:
        name: Identifier, e.g. ``"IB-400"``.
        bandwidth_gbps: Raw link bandwidth in gigabits per second.
        efficiency: Achievable fraction of the raw bandwidth.
        latency_s: Fixed per-message latency in seconds.
    """

    name: str
    bandwidth_gbps: float
    efficiency: float = DEFAULT_LINK_EFFICIENCY
    latency_s: float = DEFAULT_LINK_LATENCY_S

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth_gbps must be positive, got {self.bandwidth_gbps}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be non-negative, got {self.latency_s}")

    @property
    def effective_bytes_per_second(self) -> float:
        """Achievable payload bandwidth in bytes per second."""
        return self.bandwidth_gbps * 1e9 / 8 * self.efficiency

    def transfer_time(self, num_bytes: float) -> float:
        """Time in seconds to move ``num_bytes`` over the link.

        Includes one fixed message latency; zero-byte transfers still pay it
        (the semaphore signal in the MSCCL++ implementation).
        """
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return self.latency_s + num_bytes / self.effective_bytes_per_second


#: InfiniBand as deployed with A100 clusters (200 Gbps per machine pair).
INFINIBAND_200 = InterconnectSpec(name="IB-200", bandwidth_gbps=200.0)

#: InfiniBand as deployed with H100 clusters (400 Gbps per machine pair).
INFINIBAND_400 = InterconnectSpec(name="IB-400", bandwidth_gbps=400.0)


def infiniband_for(source_bandwidth_gbps: float, destination_bandwidth_gbps: float) -> InterconnectSpec:
    """Build the interconnect between two machines.

    The achievable bandwidth between a prompt and token machine is limited by
    the slower endpoint; a heterogeneous Splitwise-HA pair (H100 -> A100) is
    therefore limited by the A100's 200 Gbps links, as the paper assumes.
    """
    bandwidth = min(source_bandwidth_gbps, destination_bandwidth_gbps)
    return InterconnectSpec(name=f"IB-{int(bandwidth)}", bandwidth_gbps=bandwidth)
