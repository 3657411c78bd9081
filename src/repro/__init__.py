"""repro: a reproduction of "Splitwise: Efficient Generative LLM Inference
Using Phase Splitting" (ISCA 2024).

The package implements the paper's full stack in Python:

* hardware, LLM, performance, memory, and power models calibrated to the
  paper's characterization of DGX-A100 / DGX-H100 machines;
* synthetic workload generators matching the published Azure coding and
  conversation trace distributions;
* a discrete-event cluster simulator with mixed continuous batching,
  Splitwise's two-level scheduling (cluster-level JSQ routing with
  prompt/token/mixed pools, machine-level FCFS batching), and optimized
  KV-cache transfer;
* the four Splitwise cluster designs plus the two baselines, and the
  provisioning framework that sizes clusters for iso-power, iso-cost, and
  iso-throughput targets.

Quickstart::

    from repro import splitwise_ha, generate_trace, simulate_design

    trace = generate_trace("conversation", rate_rps=20, duration_s=60)
    result = simulate_design(splitwise_ha(num_prompt=6, num_token=4), trace)
    print(result.request_metrics())
"""

from repro.core.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.core.cluster import ClusterSimulation, SimulationResult, simulate_design
from repro.core.cluster_scheduler import ClusterScheduler
from repro.core.designs import (
    ClusterDesign,
    baseline_a100,
    baseline_h100,
    get_design_family,
    splitwise_aa,
    splitwise_ha,
    splitwise_hh,
    splitwise_hhcap,
)
from repro.core.kv_transfer import KVTransferModel, TransferMode
from repro.core.machine import MachineRole, SimulatedMachine
from repro.core.provisioning import (
    OptimizationGoal,
    Provisioner,
    ProvisioningConstraints,
    ProvisioningResult,
    find_max_throughput,
)
from repro.fleet import (
    FleetProvisioner,
    FleetProvisionerConfig,
    FleetResult,
    FleetRouter,
    FleetSimulation,
)
from repro.hardware import DGX_A100, DGX_H100, DGX_H100_CAPPED, GPU_A100, GPU_H100, GpuSpec, MachineSpec
from repro.metrics.slo import DEFAULT_SLO, SloPolicy, SloReport
from repro.metrics.summary import LatencySummary, RequestMetrics
from repro.models.llm import BLOOM_176B, LLAMA2_70B, ModelSpec
from repro.models.memory import MemoryModel
from repro.models.performance import (
    AnalyticalPerformanceModel,
    PerformanceModel,
)
from repro.models.power import PowerModel
from repro.simulation.request import Request, RequestPhase
from repro.workload.distributions import CODING_WORKLOAD, CONVERSATION_WORKLOAD, WorkloadSpec, get_workload
from repro.workload.generator import TraceGenerator, generate_trace
from repro.workload.scenarios import (
    SCENARIO_PRESETS,
    MarkovModulatedArrival,
    PiecewiseRateArrival,
    Scenario,
    SinusoidalDiurnalArrival,
    get_scenario,
    mix_traces,
)
from repro.workload.trace import RequestDescriptor, Trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # hardware
    "GpuSpec",
    "MachineSpec",
    "GPU_A100",
    "GPU_H100",
    "DGX_A100",
    "DGX_H100",
    "DGX_H100_CAPPED",
    # models
    "ModelSpec",
    "LLAMA2_70B",
    "BLOOM_176B",
    "MemoryModel",
    "PowerModel",
    "PerformanceModel",
    "AnalyticalPerformanceModel",
    # workload
    "WorkloadSpec",
    "CODING_WORKLOAD",
    "CONVERSATION_WORKLOAD",
    "get_workload",
    "TraceGenerator",
    "generate_trace",
    "Trace",
    "RequestDescriptor",
    # time-varying scenarios
    "PiecewiseRateArrival",
    "SinusoidalDiurnalArrival",
    "MarkovModulatedArrival",
    "Scenario",
    "SCENARIO_PRESETS",
    "get_scenario",
    "mix_traces",
    # simulation
    "Request",
    "RequestPhase",
    # core
    "KVTransferModel",
    "TransferMode",
    "SimulatedMachine",
    "MachineRole",
    "ClusterScheduler",
    "PoolAutoscaler",
    "AutoscalerConfig",
    "ClusterSimulation",
    "SimulationResult",
    "simulate_design",
    "ClusterDesign",
    "baseline_a100",
    "baseline_h100",
    "splitwise_aa",
    "splitwise_hh",
    "splitwise_ha",
    "splitwise_hhcap",
    "get_design_family",
    "Provisioner",
    "ProvisioningConstraints",
    "ProvisioningResult",
    "OptimizationGoal",
    "find_max_throughput",
    # fleet
    "FleetSimulation",
    "FleetResult",
    "FleetRouter",
    "FleetProvisioner",
    "FleetProvisionerConfig",
    # metrics
    "LatencySummary",
    "RequestMetrics",
    "SloPolicy",
    "SloReport",
    "DEFAULT_SLO",
]
