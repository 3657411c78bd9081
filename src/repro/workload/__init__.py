"""Workload generation: token-size distributions, arrivals, and traces.

The paper drives its characterization and cluster simulations with
production traces from two Azure LLM inference services (coding and
conversation), released as part of the Azure Public Dataset.  Those traces
only expose (arrival time, prompt tokens, output tokens); this package
provides synthetic generators whose distributions match the published CDFs
(Fig. 3), plus utilities to load externally supplied traces in the same CSV
format as the public release.
"""

from repro.workload.arrival import ArrivalProcess, PoissonArrivalProcess
from repro.workload.distributions import (
    CODING_WORKLOAD,
    CONVERSATION_WORKLOAD,
    LogNormalTokenDistribution,
    MixtureTokenDistribution,
    TokenDistribution,
    WorkloadSpec,
    get_workload,
)
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

__all__ = [
    "PiecewiseRateArrival",
    "SinusoidalDiurnalArrival",
    "MarkovModulatedArrival",
    "Scenario",
    "SCENARIO_PRESETS",
    "get_scenario",
    "mix_traces",
    "TokenDistribution",
    "LogNormalTokenDistribution",
    "MixtureTokenDistribution",
    "WorkloadSpec",
    "CODING_WORKLOAD",
    "CONVERSATION_WORKLOAD",
    "get_workload",
    "ArrivalProcess",
    "PoissonArrivalProcess",
    "RequestDescriptor",
    "Trace",
    "TraceGenerator",
    "generate_trace",
]
