"""Canned experiment runners, one per table/figure of the paper.

Every function here regenerates the data behind one of the paper's tables or
figures (at a configurable, laptop-friendly scale) and returns plain Python
data structures (dicts/lists) that the benchmark harness prints and the test
suite asserts on.  See EXPERIMENTS.md for the mapping and the paper-vs-
measured comparison.
"""

from repro.experiments.characterization import (
    fig3_token_distributions,
    fig4_batch_utilization,
    fig5_latency,
    fig6_throughput,
    fig7_memory,
    fig8_power,
    fig9_power_cap,
    table1_hardware_comparison,
    table4_gpu_comparison,
)
from repro.experiments.cluster_eval import (
    batch_job_throughput_per_cost,
    fig16_latency_vs_load,
    fig17_batch_occupancy,
    fig20_robustness,
    scaled_design_suite,
)
from repro.experiments.design_space import fig12_design_space, iso_budget_summary, iso_throughput_summary
from repro.experiments.headline import headline_claims
from repro.experiments.fleet_sweep import prepare_fleet_run
from repro.experiments.kv_transfer import fig14_transfer_latency, fig15_transfer_overhead

__all__ = [
    "table1_hardware_comparison",
    "fig3_token_distributions",
    "fig4_batch_utilization",
    "fig5_latency",
    "fig6_throughput",
    "fig7_memory",
    "fig8_power",
    "fig9_power_cap",
    "table4_gpu_comparison",
    "fig12_design_space",
    "fig14_transfer_latency",
    "fig15_transfer_overhead",
    "fig16_latency_vs_load",
    "fig17_batch_occupancy",
    "fig20_robustness",
    "batch_job_throughput_per_cost",
    "scaled_design_suite",
    "iso_budget_summary",
    "iso_throughput_summary",
    "headline_claims",
    "prepare_fleet_run",
]
