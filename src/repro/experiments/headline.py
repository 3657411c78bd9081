"""Headline claims of the paper, recomputed from the simulated summaries.

The abstract and conclusion of the paper state:

* Splitwise clusters achieve up to **1.4x higher throughput at 20% lower
  cost** than existing (Baseline-H100) clusters;
* alternatively, **2.35x more throughput** with the same cost and power
  budgets;
* and **1.76x better throughput with 15% lower power** at the same cost.

This experiment measures the corresponding ratios in the scaled simulation:
iso-power and iso-cost suites are driven to their sustainable load and the
best Splitwise design is compared with the baselines.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.provisioning import find_max_throughput
from repro.experiments.cluster_eval import _suite_from_configs, scaled_design_suite
from repro.experiments.design_space import PAPER_ISO_COST_CONFIGS
from repro.models.llm import LLAMA2_70B, ModelSpec


def headline_claims(
    workload: str = "conversation",
    scale: float = 0.15,
    rates: Sequence[float] = (6, 9, 12, 15, 18, 21, 24, 27, 30),
    duration_s: float = 45.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
) -> dict[str, Mapping[str, float]]:
    """Measure the paper's headline throughput/cost/power ratios in simulation.

    Returns, for the iso-power and iso-cost suites, the sustainable rate of
    each design plus the derived headline ratios (best Splitwise vs the two
    baselines), alongside the values the paper claims.
    """
    iso_power_suite = scaled_design_suite(workload, scale)
    iso_cost_suite = _suite_from_configs(PAPER_ISO_COST_CONFIGS, scale)

    sustainable: dict[str, dict[str, float]] = {"iso_power": {}, "iso_cost": {}}
    for label, suite in (("iso_power", iso_power_suite), ("iso_cost", iso_cost_suite)):
        for name, design in suite.items():
            sustainable[label][name] = find_max_throughput(
                design, rates, model=model, workload=workload, trace_duration_s=duration_s, seed=seed
            )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else float("inf")

    iso_power = sustainable["iso_power"]
    iso_cost = sustainable["iso_cost"]
    best_splitwise_power = max(
        (name for name in iso_power if name.startswith("Splitwise")), key=lambda n: iso_power[n]
    )
    best_splitwise_cost = max(
        (name for name in iso_cost if name.startswith("Splitwise")), key=lambda n: iso_cost[n]
    )

    iso_cost_suite_costs = {name: design.cost_per_hour for name, design in iso_cost_suite.items()}
    iso_power_suite_costs = {name: design.cost_per_hour for name, design in iso_power_suite.items()}

    claims = {
        "throughput_vs_baseline_h100_iso_cost": {
            "measured": ratio(iso_cost[best_splitwise_cost], iso_cost["Baseline-H100"]),
            "paper": 1.4,
            "best_design": best_splitwise_cost,
        },
        "throughput_vs_baseline_a100_iso_power": {
            "measured": ratio(iso_power[best_splitwise_power], iso_power["Baseline-A100"]),
            "paper": 2.15,
            "best_design": best_splitwise_power,
        },
        "throughput_vs_baseline_h100_iso_power": {
            "measured": ratio(iso_power[best_splitwise_power], iso_power["Baseline-H100"]),
            "paper": 2.35,
            "best_design": best_splitwise_power,
        },
        "cost_ratio_of_best_splitwise_iso_cost": {
            "measured": ratio(
                iso_cost_suite_costs[best_splitwise_cost], iso_cost_suite_costs["Baseline-H100"]
            ),
            "paper": 1.0,
            "best_design": best_splitwise_cost,
        },
    }
    return {
        "sustainable_rates_iso_power": iso_power,
        "sustainable_rates_iso_cost": iso_cost,
        "suite_costs_iso_power": iso_power_suite_costs,
        "suite_costs_iso_cost": iso_cost_suite_costs,
        "claims": claims,
    }
