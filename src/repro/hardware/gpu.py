"""GPU specifications (Table I of the Splitwise paper).

The paper compares NVIDIA A100 and H100 GPUs.  The specs below mirror
Table I: FP16 tensor TFLOPs (per GPU, dense), HBM capacity and bandwidth,
TDP, NVLink and InfiniBand bandwidth, and the per-machine rental cost used
for the cost analysis (CoreWeave list prices at the time of the paper).

Power-capped variants (used by the Splitwise-HHcap design) are derived with
:func:`power_capped`, which keeps every capability identical but lowers the
power budget the power model is allowed to draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a single GPU.

    Attributes:
        name: Human readable identifier, e.g. ``"A100"``.
        fp16_tflops: Dense FP16/BF16 tensor throughput in teraFLOPs.
        hbm_capacity_gb: High-bandwidth memory capacity in gigabytes.
        hbm_bandwidth_gbps: HBM bandwidth in gigabytes per second.
        tdp_watts: Thermal design power of the GPU in watts.
        power_cap_watts: Enforced power cap in watts.  Equal to ``tdp_watts``
            for an uncapped GPU; lower for capped variants.
        nvlink_gbps: Per-direction NVLink bandwidth in gigabytes per second.
        infiniband_gbps: Per-GPU InfiniBand bandwidth in gigabits per second
            (the paper quotes 200 Gbps for A100 clusters and 400 Gbps for
            H100 clusters).
        cost_per_hour: Cost of an 8-GPU machine of this type in $/hr.
    """

    name: str
    fp16_tflops: float
    hbm_capacity_gb: float
    hbm_bandwidth_gbps: float
    tdp_watts: float
    power_cap_watts: float
    nvlink_gbps: float
    infiniband_gbps: float
    cost_per_hour: float

    def __post_init__(self) -> None:
        if self.fp16_tflops <= 0:
            raise ValueError(f"fp16_tflops must be positive, got {self.fp16_tflops}")
        if self.hbm_capacity_gb <= 0:
            raise ValueError(f"hbm_capacity_gb must be positive, got {self.hbm_capacity_gb}")
        if self.hbm_bandwidth_gbps <= 0:
            raise ValueError(f"hbm_bandwidth_gbps must be positive, got {self.hbm_bandwidth_gbps}")
        if self.tdp_watts <= 0:
            raise ValueError(f"tdp_watts must be positive, got {self.tdp_watts}")
        if not 0 < self.power_cap_watts <= self.tdp_watts:
            raise ValueError(
                "power_cap_watts must be in (0, tdp_watts]; "
                f"got cap={self.power_cap_watts} tdp={self.tdp_watts}"
            )

    @property
    def power_cap_fraction(self) -> float:
        """Cap expressed as a fraction of TDP (1.0 when uncapped)."""
        return self.power_cap_watts / self.tdp_watts


#: NVIDIA A100 80GB SXM (values from Table I of the paper).
GPU_A100 = GpuSpec(
    name="A100",
    fp16_tflops=19.5,
    hbm_capacity_gb=80.0,
    hbm_bandwidth_gbps=2039.0,
    tdp_watts=400.0,
    power_cap_watts=400.0,
    nvlink_gbps=50.0,
    infiniband_gbps=200.0,
    cost_per_hour=17.6,
)

#: NVIDIA H100 80GB SXM (values from Table I of the paper).
GPU_H100 = GpuSpec(
    name="H100",
    fp16_tflops=66.9,
    hbm_capacity_gb=80.0,
    hbm_bandwidth_gbps=3352.0,
    tdp_watts=700.0,
    power_cap_watts=700.0,
    nvlink_gbps=100.0,
    infiniband_gbps=400.0,
    cost_per_hour=38.0,
)

def power_capped(gpu: GpuSpec, cap_fraction: float) -> GpuSpec:
    """Return a copy of ``gpu`` with its power cap set to ``cap_fraction`` of TDP.

    The Splitwise-HHcap design caps token-pool H100 GPUs to 50% of their TDP
    (which caps the whole DGX machine to roughly 70% of its rated power once
    the non-GPU components are accounted for).

    Args:
        gpu: The GPU to derive from.
        cap_fraction: Fraction of TDP in ``(0, 1]``.
    """
    if not 0 < cap_fraction <= 1:
        raise ValueError(f"cap_fraction must be in (0, 1], got {cap_fraction}")
    capped = replace(gpu, power_cap_watts=gpu.tdp_watts * cap_fraction)
    if cap_fraction < 1:
        capped = replace(capped, name=f"{gpu.name}-cap{int(round(cap_fraction * 100))}")
    return capped
