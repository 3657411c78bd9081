"""Fleet runs: multi-cluster routing policies and cloud-burst provisioning.

Beyond the single-cluster scenario runs, ``repro-sim fleet`` replays a
scenario preset across a *fleet* of phase-split clusters twice:

* **static** — every cluster (including the would-be standbys) active for
  the whole window: the provision-for-peak baseline;
* **burst** — only the initial clusters active, with the
  :class:`~repro.fleet.provisioner.FleetProvisioner` renting the standbys
  elastically (warm pools, cold starts, drain-then-retire).

Both runs serve the identical trace through the same tenant-aware router
policy and report per-tenant SLO attainment plus fleet machine-hours, so the
pair quantifies what elasticity costs (tail latency during cold starts) and
buys (machine-hours) at fleet scale.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.designs import splitwise_hh
from repro.faults import get_chaos_preset
from repro.fleet.fleet import FleetResult, FleetSimulation
from repro.fleet.provisioner import FleetProvisionerConfig
from repro.fleet.reliability import DeadlineConfig, HedgeConfig, RetryPolicy
from repro.metrics.collectors import census
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.workload.scenarios import Scenario
from repro.workload.trace import Trace


def prepare_fleet_run(
    preset: Scenario,
    clusters: int = 2,
    burst_clusters: int = 1,
    seed: int = 0,
    scale: float = 1.0,
    policy: str = "slo-feedback",
    burst: bool = True,
    model: ModelSpec = LLAMA2_70B,
    chaos: str | None = None,
    fault_seed: int | None = None,
    retry_override: int | None = None,
    retry_seed: int | None = None,
    hedge_override: bool | None = None,
    deadline_ms: float | None = None,
    reliability_off: bool = False,
    parallel: int | None = None,
    **cluster_kwargs,
) -> tuple[FleetSimulation, Trace, tuple[tuple[float, str], ...]]:
    """Build one fleet run: the simulation, its trace, and its failures.

    The single place that maps a scenario preset onto a concrete fleet — the
    CLI and the perf benchmark both go through here so fleet semantics
    cannot diverge between surfaces.

    The preset's per-cluster sizing is kept (``machine_counts(scale)``) and
    its offered load is multiplied by the number of *initially active*
    clusters, so per-cluster pressure matches the single-cluster scenario.
    A static fleet (``burst=False``) activates every cluster including the
    standbys — the provision-for-peak baseline the burst run is compared
    against.  Preset failure injections land on the first cluster's
    machines.

    Args:
        preset: The scenario preset to replay.
        clusters: Initially active clusters.
        burst_clusters: Standby clusters (active from the start when
            ``burst=False``).
        seed: Trace-generation seed.
        scale: Per-cluster scale (cluster size and per-cluster load together).
        policy: Fleet router policy (see
            :data:`~repro.fleet.router.ROUTER_POLICIES`).
        burst: Attach the burst provisioner (otherwise fully static).
        model: LLM served by every cluster.
        chaos: Chaos preset name (see
            :data:`~repro.faults.presets.CHAOS_PRESETS`) arming the fault
            plane plus router reliability and admission control.  ``None``
            falls back to the scenario preset's own ``chaos`` default;
            ``"none"`` forces chaos off regardless of the scenario.
        fault_seed: Seed for the stochastic fault plan (defaults to the
            chaos preset's own seed, so ``seed`` keeps meaning *trace* seed
            and the two processes stay independently reproducible).
        retry_override: Override the chaos preset's retry budget (``0``
            disables retries entirely; ``None`` keeps the preset's policy).
        retry_seed: Seed for the retry-backoff jitter RNG (independent of
            the trace and fault seeds; ``None`` keeps the policy's seed).
        hedge_override: Force hedging on (with default
            :class:`~repro.fleet.reliability.HedgeConfig`) or off;
            ``None`` keeps the preset's setting.
        deadline_ms: Fleet-wide end-to-end deadline in milliseconds,
            replacing the preset's deadline config (``None`` keeps it).
        reliability_off: Strip the whole request-lifecycle layer (retry,
            hedge, deadlines, degraded service) regardless of the preset —
            the PR 6-equivalent baseline for goodput comparisons.
        parallel: Request sharded execution with this many workers (see
            :mod:`repro.simulation.sharding`); coupled configurations fall
            back to the serial engine with recorded reasons.
        **cluster_kwargs: Forwarded to every member
            :class:`~repro.core.cluster.ClusterSimulation` (``fast_forward``,
            batching/routing overrides, ...).
    """
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    trace = preset.build_trace(seed=seed, scale=scale * clusters)
    failures = tuple(
        (time_s, f"cluster-0/{name}") for time_s, name in preset.failures(scale=scale)
    )
    chaos_name = preset.chaos if chaos is None else chaos
    chaos_kwargs: dict = {}
    if chaos_name is not None and chaos_name != "none":
        bundle = get_chaos_preset(chaos_name)
        faults = bundle.faults
        if fault_seed is not None:
            faults = replace(faults, seed=fault_seed)
        chaos_kwargs = {
            "faults": faults,
            "reliability": bundle.reliability,
            "admission": bundle.admission,
            "retry": bundle.retry,
            "hedge": bundle.hedge,
            "deadlines": bundle.deadlines,
            "degraded": bundle.degraded,
        }
    if reliability_off:
        for key in ("retry", "hedge", "deadlines", "degraded"):
            chaos_kwargs.pop(key, None)
    else:
        if retry_override is not None:
            if retry_override <= 0:
                chaos_kwargs["retry"] = None
            else:
                base = chaos_kwargs.get("retry") or RetryPolicy()
                chaos_kwargs["retry"] = replace(base, max_retries=retry_override)
        if retry_seed is not None and chaos_kwargs.get("retry") is not None:
            chaos_kwargs["retry"] = replace(chaos_kwargs["retry"], seed=retry_seed)
        if hedge_override is not None:
            chaos_kwargs["hedge"] = HedgeConfig() if hedge_override else None
        if deadline_ms is not None:
            chaos_kwargs["deadlines"] = DeadlineConfig(e2e_s=deadline_ms / 1000.0)
    num_prompt, num_token = preset.machine_counts(scale)
    design = splitwise_hh(num_prompt, num_token)
    if burst:
        fleet = FleetSimulation(
            design,
            num_clusters=clusters,
            burst_clusters=burst_clusters,
            model=model,
            router=policy,
            provisioner=FleetProvisionerConfig(),
            parallel=parallel,
            **chaos_kwargs,
            **cluster_kwargs,
        )
    else:
        fleet = FleetSimulation(
            design,
            num_clusters=clusters + burst_clusters,
            model=model,
            router=policy,
            parallel=parallel,
            **chaos_kwargs,
            **cluster_kwargs,
        )
    return fleet, trace, failures


def fleet_run_summary(result: FleetResult) -> dict:
    """One fleet run's JSON-friendly summary (shared by the CLI and the perf benchmark).

    The SLO reference model comes from the result itself (the model its
    fleet served).  The exact :func:`~repro.metrics.collectors.census`
    also checks the fleet's own shed and expired totals against the
    per-request flags.
    """
    report = result.tenant_slo_report()
    summary = {
        "census": census(result.requests, result.requests_shed, result.requests_expired),
        "completion_rate": round(result.completion_rate, 4),
        "requests_by_cluster": result.requests_by_cluster(),
        "tenant_slo": report.as_dict(),
        "machine_hours": round(result.machine_hours(), 3),
        "static_machine_hours": round(result.static_machine_hours(), 3),
        "cost": round(result.cost(), 2),
        "duration_s": round(result.duration_s, 2),
    }
    if result.provisioner is not None:
        summary["bursts"] = result.provisioner.burst_count()
        summary["provisioner_actions"] = len(result.provisioner.timeline)
    if result.requests_shed or result.router.reliability is not None:
        summary["requests_shed"] = dict(sorted(result.shed_by_tenant.items()))
        summary["bans_issued"] = result.router.bans_issued
    if result.injector is not None:
        summary["faults"] = result.injector.snapshot()
    if result.lifecycle is not None:
        summary["reliability"] = result.lifecycle.snapshot()
        summary["requests_expired"] = dict(sorted(result.expired_by_tenant.items()))
        summary["requests_degraded"] = len(result.degraded_requests)
    return summary
