"""Cluster-scale evaluation experiments (Figs. 16, 17, 20 and §VI-E).

The paper evaluates iso-power throughput-optimized clusters of 40-88
machines at 30-250 requests per second.  Simulating at that scale is
possible with this package but slow in a test/benchmark loop, so every
experiment here takes a ``scale`` parameter (default 0.2) that shrinks both
the machine counts and the offered load proportionally.  The *relationships*
the paper reports — which design wins on which metric, and by roughly what
factor — are preserved; absolute request rates are not comparable to the
paper's (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.cluster import SimulationResult, simulate_design
from repro.core.designs import ClusterDesign, build_design
from repro.core.machine import MachineRole
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.workload.generator import generate_trace

#: Machine counts of the paper's iso-power throughput-optimized clusters
#: (Fig. 16 legends): {workload: {design family: (prompt, token)}}.
#: Baselines store (total, 0).
PAPER_ISO_POWER_CONFIGS: Mapping[str, Mapping[str, tuple[int, int]]] = {
    "coding": {
        "Baseline-A100": (70, 0),
        "Baseline-H100": (40, 0),
        "Splitwise-AA": (55, 15),
        "Splitwise-HH": (35, 5),
        "Splitwise-HA": (35, 8),
        "Splitwise-HHcap": (35, 7),
    },
    "conversation": {
        "Baseline-A100": (70, 0),
        "Baseline-H100": (40, 0),
        "Splitwise-AA": (45, 25),
        "Splitwise-HH": (25, 15),
        "Splitwise-HA": (25, 26),
        "Splitwise-HHcap": (25, 21),
    },
}

def scaled_design_suite(
    workload: str = "conversation",
    scale: float = 0.2,
    families: Sequence[str] | None = None,
) -> dict[str, ClusterDesign]:
    """The paper's iso-power cluster suite, shrunk by ``scale``.

    Args:
        workload: Which workload's provisioning to copy (``"coding"`` or
            ``"conversation"``).
        scale: Multiplier applied to every machine count (rounded, minimum 1).
        families: Optional subset of design family names.

    Returns:
        Mapping from family name to a sized :class:`ClusterDesign`.
    """
    if workload not in PAPER_ISO_POWER_CONFIGS:
        raise KeyError(f"no iso-power configuration recorded for workload {workload!r}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return _suite_from_configs(PAPER_ISO_POWER_CONFIGS[workload], scale, families)


def _suite_from_configs(
    configs: Mapping[str, tuple[int, int]], scale: float, families: Sequence[str] | None = None
) -> dict[str, ClusterDesign]:
    """Size each family's ``(prompt, token)`` paper config by ``scale`` (rounded, minimum 1)."""
    chosen = families or list(configs)
    suite: dict[str, ClusterDesign] = {}
    for family in chosen:
        prompt, token = configs[family]
        scaled_prompt = max(1, round(prompt * scale))
        scaled_token = max(1, round(token * scale)) if token else 0
        suite[family] = build_design(family, scaled_prompt, scaled_token)
    return suite


def fig16_latency_vs_load(
    designs: Mapping[str, ClusterDesign],
    workload: str = "conversation",
    rates: Sequence[float] = (6, 10, 14, 18, 22, 26),
    duration_s: float = 60.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
) -> dict[str, dict[float, dict[str, float]]]:
    """Fig. 16: P50/P90 TTFT, TBT and E2E across input loads for each design.

    Returns ``{design: {rate: {metric: value_seconds, ..., "slo_ok": bool}}}``.
    """
    results: dict[str, dict[float, dict[str, float]]] = {}
    for name, design in designs.items():
        per_rate: dict[float, dict[str, float]] = {}
        for rate in rates:
            trace = generate_trace(workload, rate_rps=rate, duration_s=duration_s, seed=seed)
            result = simulate_design(design, trace, model=model)
            metrics = result.request_metrics()
            slo = result.slo_report(model=model)
            per_rate[rate] = {
                "ttft_p50": metrics.ttft.p50,
                "ttft_p90": metrics.ttft.p90,
                "tbt_p50": metrics.tbt.p50,
                "tbt_p90": metrics.tbt.p90,
                "e2e_p50": metrics.e2e.p50,
                "e2e_p90": metrics.e2e.p90,
                "throughput_rps": metrics.throughput_rps,
                "completion_rate": result.completion_rate,
                "slo_ok": float(slo.satisfied),
            }
        results[name] = per_rate
    return results


def fig17_batch_occupancy(
    workload: str = "conversation",
    scale: float = 0.2,
    low_rate: float = 14.0,
    high_rate: float = 26.0,
    duration_s: float = 60.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Fig. 17: batched-token occupancy CDFs at low and high load.

    Compares Baseline-H100 machines against the prompt and token pools of
    Splitwise-HH, reporting the fraction of busy time spent at small batches
    (<= 15 active tokens, the paper's observation) for each group.
    """
    suite = scaled_design_suite(workload, scale, families=("Baseline-H100", "Splitwise-HH"))
    out: dict[str, dict[str, float]] = {}
    for label, rate in (("low", low_rate), ("high", high_rate)):
        trace = generate_trace(workload, rate_rps=rate, duration_s=duration_s, seed=seed)
        baseline_result = simulate_design(suite["Baseline-H100"], trace, model=model)
        splitwise_result = simulate_design(suite["Splitwise-HH"], trace, model=model)
        baseline_occ = baseline_result.occupancy_by_home_role(MachineRole.MIXED)
        prompt_occ = splitwise_result.occupancy_by_home_role(MachineRole.PROMPT)
        token_occ = splitwise_result.occupancy_by_home_role(MachineRole.TOKEN)
        out[label] = {
            "baseline_h100_frac_le_15": baseline_occ.fraction_at_or_below(15),
            "splitwise_prompt_frac_le_15": prompt_occ.fraction_at_or_below(15),
            "splitwise_token_frac_le_15": token_occ.fraction_at_or_below(15),
            "splitwise_token_frac_le_1": token_occ.fraction_at_or_below(1),
            "baseline_h100_frac_le_1": baseline_occ.fraction_at_or_below(1),
        }
    return out


def fig20_robustness(
    provisioned_for: str = "coding",
    run_workload: str = "conversation",
    scale: float = 0.2,
    rates: Sequence[float] = (6, 10, 14, 18),
    duration_s: float = 60.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
) -> dict[str, dict[float, dict[str, float]]]:
    """Fig. 20: run a workload (or model) on clusters sized for another.

    Fig. 20a uses ``provisioned_for="coding"``, ``run_workload="conversation"``;
    Fig. 20b keeps the conversation provisioning but switches the model (pass
    ``model=LLAMA2_70B`` on a suite provisioned for BLOOM-176B).
    """
    suite = scaled_design_suite(provisioned_for, scale)
    return fig16_latency_vs_load(
        suite, workload=run_workload, rates=rates, duration_s=duration_s, model=model, seed=seed
    )


def batch_job_throughput_per_cost(
    workload: str = "conversation",
    scale: float = 0.2,
    stress_rate: float = 40.0,
    duration_s: float = 45.0,
    model: ModelSpec = LLAMA2_70B,
    seed: int = 0,
    families: Sequence[str] = ("Baseline-A100", "Baseline-H100", "Splitwise-AA", "Splitwise-HH"),
) -> dict[str, dict[str, float]]:
    """§VI-E: throughput per dollar when clusters are stressed for batch jobs.

    Batch jobs have no latency SLO, so each cluster is driven well beyond its
    interactive operating point and judged purely on sustained completed
    requests per second per $/hr of cluster cost.
    """
    suite = scaled_design_suite(workload, scale, families=families)
    trace = generate_trace(workload, rate_rps=stress_rate, duration_s=duration_s, seed=seed)
    out: dict[str, dict[str, float]] = {}
    for name, design in suite.items():
        result: SimulationResult = simulate_design(design, trace, model=model)
        metrics = result.request_metrics()
        out[name] = {
            "throughput_rps": metrics.throughput_rps,
            "cost_per_hour": design.cost_per_hour,
            "rps_per_dollar_hour": metrics.throughput_rps / design.cost_per_hour,
            "tokens_per_second": sum(
                result.metrics.machine_stats(m.name).tokens_generated for m in result.scheduler.machines
            )
            / result.duration_s,
        }
    return out

