"""Time-varying scenario runs: autoscaled vs statically provisioned clusters.

Beyond the paper's stationary-load evaluation, ``repro-sim scenario``
replays a named scenario preset (diurnal, burst-storm, failure-under-load,
mixed-tenant; see :mod:`repro.workload.scenarios`) through the same
peak-sized Splitwise-HH cluster twice — once statically provisioned, once
with the dynamic pool autoscaler — and reports SLO attainment, machine-hour
consumption, and the autoscaler's re-purposing activity side by side.  This
quantifies the cluster-level claim that dynamic machine re-purposing absorbs
time-varying traffic without paying for peak provisioning around the clock.
"""

from __future__ import annotations

from repro.core.autoscaler import AutoscalerConfig
from repro.core.cluster import ClusterSimulation, SimulationResult
from repro.core.designs import splitwise_hh
from repro.metrics.collectors import census
from repro.metrics.slo import SloReport
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.workload.scenarios import Scenario
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
    overrides.  The CLI and the sim-time pins both go
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


def cluster_run_summary(result: SimulationResult, slo: SloReport) -> dict:
    """One cluster run's JSON-friendly summary (``simulate`` and ``scenario`` print it).

    Carries the run's exact :func:`~repro.metrics.collectors.census` (which
    raises if the run did not drain) next to its rounded latency, SLO, energy
    and machine-hour figures; ``slo`` is the run's SLO report.
    """
    metrics = result.request_metrics()
    design = result.design
    summary = {
        "design": design.label,
        "census": census(result.requests),
        "completion_rate": round(result.completion_rate, 4),
        "throughput_rps": round(metrics.throughput_rps, 3),
        "ttft_p50_ms": round(metrics.ttft.p50 * 1e3, 1),
        "ttft_p90_ms": round(metrics.ttft.p90 * 1e3, 1),
        "tbt_p50_ms": round(metrics.tbt.p50 * 1e3, 1),
        "tbt_p90_ms": round(metrics.tbt.p90 * 1e3, 1),
        "e2e_p50_s": round(metrics.e2e.p50, 2),
        "e2e_p90_s": round(metrics.e2e.p90, 2),
        "energy_wh": round(result.total_energy_wh(), 1),
        "cost_per_hour": round(design.cost_per_hour, 1),
        "power_kw": round(design.provisioned_power_kw, 2),
        "slo_satisfied": slo.satisfied,
        "slo_violations": len(slo.violations()),
        "slo_samples": dict(slo.samples),
        "machine_hours": round(result.machine_hours(), 3),
        "pool_switches": result.scheduler.pool_switches,
        "restarted_requests": sum(1 for r in result.requests if r.restarts),
    }
    if result.autoscaler is not None:
        summary["repurposes"] = result.autoscaler.repurpose_count()
        summary["autoscaler_actions"] = len(result.autoscaler.timeline)
    return summary
