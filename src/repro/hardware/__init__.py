"""Hardware descriptions: GPUs, DGX machines, and cluster interconnects.

This subpackage captures the hardware facts the paper relies on (Table I of
Splitwise) as plain data objects.  Nothing in here simulates time; it only
describes capability (FLOPs, HBM bandwidth, power, link bandwidth, cost) that
the performance, power, and transfer models consume.
"""

from repro.hardware.gpu import GPU_A100, GPU_H100, GpuSpec, power_capped
from repro.hardware.interconnect import InterconnectSpec, infiniband_for
from repro.hardware.machine import DGX_A100, DGX_H100, DGX_H100_CAPPED, MachineSpec

__all__ = [
    "GpuSpec",
    "GPU_A100",
    "GPU_H100",
    "power_capped",
    "MachineSpec",
    "DGX_A100",
    "DGX_H100",
    "DGX_H100_CAPPED",
    "InterconnectSpec",
    "infiniband_for",
]
