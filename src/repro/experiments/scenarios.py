"""Time-varying scenario sweep: autoscaled vs statically provisioned clusters.

Beyond the paper's stationary-load evaluation, this experiment replays every
named scenario preset (diurnal, burst-storm, failure-under-load,
mixed-tenant; see :mod:`repro.workload.scenarios`) through the same
peak-sized Splitwise-HH cluster twice — once statically provisioned, once
with the dynamic pool autoscaler — and reports SLO attainment, machine-hour
consumption, and the autoscaler's re-purposing activity side by side.  This
quantifies the cluster-level claim that dynamic machine re-purposing absorbs
time-varying traffic without paying for peak provisioning around the clock.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.autoscaler import AutoscalerConfig
from repro.core.cluster import ClusterSimulation, SimulationResult
from repro.core.designs import splitwise_hh
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.workload.scenarios import SCENARIO_PRESETS, Scenario, get_scenario
from repro.workload.trace import Trace


def prepare_scenario_run(
    preset: Scenario,
    seed: int = 0,
    scale: float = 1.0,
    autoscaled: bool = True,
    model: ModelSpec = LLAMA2_70B,
    **cluster_kwargs,
) -> tuple[ClusterSimulation, Trace, tuple[tuple[float, str], ...]]:
    """Build one preset run: the simulation, its trace, and its failures.

    The single place that maps a :class:`~repro.workload.scenarios.Scenario`
    onto a concrete cluster run — peak-sized Splitwise-HH design from
    ``machine_counts``, failures scaled with the trace, and (when
    ``autoscaled``) an :class:`AutoscalerConfig` built from the preset's
    overrides.  The CLI, the scenario sweep, and the sim-time pins all go
    through here so preset semantics cannot diverge between surfaces.
    """
    trace = preset.build_trace(seed=seed, scale=scale)
    failures = preset.failures(scale=scale)
    num_prompt, num_token = preset.machine_counts(scale)
    autoscaler = (
        AutoscalerConfig(**dict(preset.autoscaler_overrides or {})) if autoscaled else None
    )
    simulation = ClusterSimulation(
        splitwise_hh(num_prompt, num_token), model=model, autoscaler=autoscaler, **cluster_kwargs
    )
    return simulation, trace, failures


def _run_summary(result: SimulationResult, model: ModelSpec) -> dict[str, float]:
    metrics = result.request_metrics()
    slo = result.slo_report(model=model)
    summary = {
        "completion_rate": result.completion_rate,
        "throughput_rps": metrics.throughput_rps,
        "ttft_p90_s": metrics.ttft.p90,
        "e2e_p90_s": metrics.e2e.p90,
        "slo_ok": float(slo.satisfied),
        "slo_violations": float(len(slo.violations())),
        "tbt_slo_samples": float(slo.samples.get("tbt", 0)),
        "machine_hours": result.machine_hours(),
        "energy_wh": result.total_energy_wh(),
        "pool_switches": float(result.scheduler.pool_switches),
    }
    if result.autoscaler is not None:
        summary["repurposes"] = float(result.autoscaler.repurpose_count())
        summary["autoscaler_actions"] = float(len(result.autoscaler.timeline))
    return summary


def scenario_sweep(
    presets: Sequence[str] | None = None,
    scale: float = 1.0,
    seed: int = 0,
    model: ModelSpec = LLAMA2_70B,
) -> dict[str, dict[str, Mapping[str, float]]]:
    """Run each scenario preset statically and autoscaled on the same trace.

    Args:
        presets: Preset names to run (default: all).
        scale: Shrinks/grows each preset's cluster and offered load together.
        seed: Trace-generation seed (runs are fully deterministic under it).
        model: LLM served by every cluster.

    Returns:
        ``{preset: {"static": {...}, "autoscaled": {...},
        "machine_hours_saved": float}}`` with the per-run summaries produced
        by the SLO evaluator and machine-hour accounting.
    """
    chosen = presets or sorted(SCENARIO_PRESETS)
    results: dict[str, dict] = {}
    for name in chosen:
        preset = get_scenario(name)
        static_sim, trace, failures = prepare_scenario_run(
            preset, seed=seed, scale=scale, autoscaled=False, model=model
        )
        static_result = static_sim.run(trace, failures=failures)
        auto_sim, trace, failures = prepare_scenario_run(
            preset, seed=seed, scale=scale, autoscaled=True, model=model
        )
        auto_result = auto_sim.run(trace, failures=failures)

        static_summary = _run_summary(static_result, model)
        auto_summary = _run_summary(auto_result, model)
        results[name] = {
            "static": static_summary,
            "autoscaled": auto_summary,
            "machine_hours_saved": static_summary["machine_hours"] - auto_summary["machine_hours"],
        }
    return results
