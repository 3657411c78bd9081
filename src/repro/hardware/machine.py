"""DGX machine specifications.

A Splitwise *machine* is an 8-GPU DGX box running one model replica with
tensor parallelism across all 8 GPUs (the paper uses TP-8 for best latency).
The machine spec aggregates GPU capability and adds machine-level power and
cost, which are what the provisioning framework optimizes.

The paper normalizes cost and power to DGX-A100 in Table V:

================  =========  =========  =================
Design machine    Cost       Power      Interconnect BW
================  =========  =========  =================
DGX-A100          1x         1x         1x (200 Gbps)
DGX-H100          2.35x      1.75x      2x (400 Gbps)
DGX-H100 (capped) 2.5x/2.35x 1.23x      2x (400 Gbps)
================  =========  =========  =================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.gpu import GPU_A100, GPU_H100, GpuSpec, power_capped

#: Fraction of machine power not drawn by GPUs (CPUs, NICs, fans, ...).
#: A DGX-H100 is rated ~10.2 kW with 8x700 W GPUs, i.e. ~45% overhead; the
#: paper's 1.23x power ratio for HHcap implies the same structure.  We use a
#: constant host overhead fraction relative to the GPU TDP total.
HOST_POWER_OVERHEAD_FRACTION = 0.35


@dataclass(frozen=True)
class MachineSpec:
    """Static description of an 8-GPU inference machine (one model replica).

    Attributes:
        name: Identifier, e.g. ``"DGX-A100"``.
        gpu: The GPU populating the machine.
        num_gpus: GPUs per machine (8 for all DGX systems studied).
        tensor_parallelism: Degree of tensor parallelism used for serving.
        cost_per_hour: Machine rental cost in $/hr.
        interconnect_gbps: Per-machine InfiniBand bandwidth (Gbps) available
            for KV-cache transfers to other machines.
    """

    name: str
    gpu: GpuSpec
    num_gpus: int = 8
    tensor_parallelism: int = 8
    cost_per_hour: float = field(default=0.0)
    interconnect_gbps: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive, got {self.num_gpus}")
        if self.tensor_parallelism <= 0 or self.tensor_parallelism > self.num_gpus:
            raise ValueError(
                "tensor_parallelism must be in [1, num_gpus]; "
                f"got {self.tensor_parallelism} with {self.num_gpus} GPUs"
            )
        if self.cost_per_hour == 0.0:
            object.__setattr__(self, "cost_per_hour", self.gpu.cost_per_hour)
        if self.interconnect_gbps == 0.0:
            object.__setattr__(self, "interconnect_gbps", self.gpu.infiniband_gbps)

    # -- aggregate capability -------------------------------------------------

    @property
    def total_hbm_capacity_gb(self) -> float:
        """Aggregate HBM capacity in GB."""
        return self.gpu.hbm_capacity_gb * self.num_gpus

    @property
    def total_hbm_bandwidth_gbps(self) -> float:
        """Aggregate HBM bandwidth in GB/s."""
        return self.gpu.hbm_bandwidth_gbps * self.num_gpus

    # -- power ----------------------------------------------------------------

    @property
    def gpu_tdp_watts(self) -> float:
        """Total GPU TDP (uncapped) in watts."""
        return self.gpu.tdp_watts * self.num_gpus

    @property
    def gpu_power_cap_watts(self) -> float:
        """Total GPU power cap in watts."""
        return self.gpu.power_cap_watts * self.num_gpus

    @property
    def provisioned_power_watts(self) -> float:
        """Peak power a provider must provision for this machine.

        Host overhead is charged on the uncapped GPU TDP (fans, CPUs, NICs do
        not scale down when GPUs are capped), matching the paper's 1.23x power
        ratio for the capped DGX-H100 relative to 1.75x uncapped.
        """
        host = HOST_POWER_OVERHEAD_FRACTION * self.gpu_tdp_watts
        return self.gpu_power_cap_watts + host


#: DGX-A100: 8x A100, 200 Gbps InfiniBand.
DGX_A100 = MachineSpec(name="DGX-A100", gpu=GPU_A100)

#: DGX-H100: 8x H100, 400 Gbps InfiniBand.
DGX_H100 = MachineSpec(name="DGX-H100", gpu=GPU_H100)

#: DGX-H100 with each GPU capped to 50% power (Splitwise-HHcap token machines).
DGX_H100_CAPPED = MachineSpec(
    name="DGX-H100-cap50",
    gpu=power_capped(GPU_H100, 0.5),
    cost_per_hour=GPU_H100.cost_per_hour,
    interconnect_gbps=GPU_H100.infiniband_gbps,
)
