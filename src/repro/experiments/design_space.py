"""Provisioning design-space experiments (Fig. 12, Fig. 18, Fig. 19).

``fig12_design_space`` exercises the actual search machinery: it sweeps a
(prompt, token) machine-count grid for one design family and reports, for
each point, whether the SLO holds and what the cluster costs — the same
two-dimensional space the paper plots.

The summary experiments (Figs. 18 and 19) evaluate the paper's provisioned
cluster configurations (scaled down) and report normalized machine count,
throughput, cost, and power, exactly the bar groups of the summary plots.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.cluster import simulate_design
from repro.core.designs import ClusterDesign
from repro.core.provisioning import OptimizationGoal, Provisioner
from repro.experiments.cluster_eval import _suite_from_configs, scaled_design_suite
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.workload.generator import generate_trace

#: Paper cluster configurations for the iso-cost throughput-optimized suite
#: (Fig. 18b legends).
PAPER_ISO_COST_CONFIGS: Mapping[str, tuple[int, int]] = {
    "Baseline-A100": (86, 0),
    "Baseline-H100": (40, 0),
    "Splitwise-AA": (51, 35),
    "Splitwise-HH": (25, 15),
    "Splitwise-HA": (30, 21),
    "Splitwise-HHcap": (30, 10),
}

#: Paper cluster configurations for the iso-throughput power-optimized suite
#: (Fig. 19a legends).
PAPER_ISO_THROUGHPUT_POWER_CONFIGS: Mapping[str, tuple[int, int]] = {
    "Baseline-A100": (88, 0),
    "Baseline-H100": (24, 0),
    "Splitwise-AA": (25, 16),
    "Splitwise-HH": (5, 17),
    "Splitwise-HA": (21, 1),
    "Splitwise-HHcap": (8, 16),
}

#: Paper cluster configurations for the iso-throughput cost-optimized suite
#: (Fig. 19b legends).
PAPER_ISO_THROUGHPUT_COST_CONFIGS: Mapping[str, tuple[int, int]] = {
    "Baseline-A100": (88, 0),
    "Baseline-H100": (24, 0),
    "Splitwise-AA": (25, 16),
    "Splitwise-HH": (5, 17),
    "Splitwise-HA": (11, 19),
    "Splitwise-HHcap": (19, 3),
}


def fig12_design_space(
    family: str = "Splitwise-HH",
    workload: str = "coding",
    target_rps: float = 14.0,
    prompt_counts: Sequence[int] = (3, 4, 5, 6, 7),
    token_counts: Sequence[int] = (1, 2, 3),
    trace_duration_s: float = 45.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
) -> dict[str, object]:
    """Fig. 12: the (prompt, token) design space for one family and load.

    Every grid point is simulated; the result reports, per point, SLO
    feasibility, P90 latencies, and cost, plus the cost-optimal feasible
    point (the paper's ``*``).  The default target of 14 RPS corresponds to
    the paper's 70 RPS at the default 0.2 cluster scale.
    """
    provisioner = Provisioner(model=model, workload=workload, trace_duration_s=trace_duration_s, seed=seed)
    search = provisioner.size_for_throughput(
        family,
        target_rps=target_rps,
        prompt_counts=prompt_counts,
        token_counts=token_counts,
        goal=OptimizationGoal.COST,
    )
    grid = {}
    for candidate in search.candidates:
        design = candidate.design
        grid[(design.num_prompt, design.num_token)] = {
            "feasible": candidate.feasible,
            "cost_per_hour": candidate.cost_per_hour,
            "power_kw": candidate.provisioned_power_kw,
            "ttft_p90": candidate.metrics.ttft.p90,
            "e2e_p90": candidate.metrics.e2e.p90,
            "completion_rate": candidate.completion_rate,
        }
    best = None
    if search.best is not None:
        best = (search.best.design.num_prompt, search.best.design.num_token)
    return {"grid": grid, "optimal": best, "target_rps": target_rps, "family": family}


def _measure_suite(
    suite: Mapping[str, ClusterDesign],
    workload: str,
    rate_rps: float,
    duration_s: float,
    model: ModelSpec,
    seed: int,
) -> dict[str, dict[str, float]]:
    """Simulate every design in a suite at one load and collect summary numbers."""
    trace = generate_trace(workload, rate_rps=rate_rps, duration_s=duration_s, seed=seed)
    rows: dict[str, dict[str, float]] = {}
    for name, design in suite.items():
        result = simulate_design(design, trace, model=model)
        metrics = result.request_metrics()
        slo = result.slo_report(model=model)
        rows[name] = {
            "num_servers": design.num_machines,
            "cost_per_hour": design.cost_per_hour,
            "power_kw": design.provisioned_power_kw,
            "throughput_rps": metrics.throughput_rps,
            "slo_ok": float(slo.satisfied),
            "completion_rate": result.completion_rate,
        }
    return rows


def _normalize(rows: dict[str, dict[str, float]], baseline: str) -> dict[str, dict[str, float]]:
    """Normalize every numeric column to the baseline design's value."""
    reference = rows[baseline]
    normalized: dict[str, dict[str, float]] = {}
    for name, row in rows.items():
        normalized[name] = {
            key: (value / reference[key] if reference.get(key) else value) for key, value in row.items()
        }
    return normalized


def iso_budget_summary(
    budget: str = "power",
    workload: str = "conversation",
    scale: float = 0.2,
    rate_rps: float = 18.0,
    duration_s: float = 60.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
    normalize_to: str = "Baseline-A100",
) -> dict[str, dict[str, dict[str, float]]]:
    """Fig. 18: iso-power ("power") or iso-cost ("cost") throughput-optimized summary.

    Evaluates the paper's provisioned suites (scaled) at a common load and
    reports raw and normalized #servers / throughput / cost / power per design.
    """
    if budget == "power":
        suite = scaled_design_suite(workload, scale)
    elif budget == "cost":
        suite = _suite_from_configs(PAPER_ISO_COST_CONFIGS, scale)
    else:
        raise ValueError(f"budget must be 'power' or 'cost', got {budget!r}")
    rows = _measure_suite(suite, workload, rate_rps, duration_s, model, seed)
    return {"raw": rows, "normalized": _normalize(rows, normalize_to)}


def iso_throughput_summary(
    goal: str = "power",
    workload: str = "conversation",
    scale: float = 0.2,
    rate_rps: float = 14.0,
    duration_s: float = 60.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
    normalize_to: str = "Baseline-A100",
) -> dict[str, dict[str, dict[str, float]]]:
    """Fig. 19: iso-throughput, power-optimized ("power") or cost-optimized ("cost") summary."""
    if goal == "power":
        configs = PAPER_ISO_THROUGHPUT_POWER_CONFIGS
    elif goal == "cost":
        configs = PAPER_ISO_THROUGHPUT_COST_CONFIGS
    else:
        raise ValueError(f"goal must be 'power' or 'cost', got {goal!r}")
    suite = _suite_from_configs(configs, scale)
    rows = _measure_suite(suite, workload, rate_rps, duration_s, model, seed)
    return {"raw": rows, "normalized": _normalize(rows, normalize_to)}
