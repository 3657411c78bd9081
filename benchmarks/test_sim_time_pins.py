"""Bit-pins on the final simulated time of nine cluster and fleet scenarios.

``sim_time_s`` is a pure simulation output: it must be bit-identical on
every host and across perf-only refactors, so any drift here means
simulation *behavior* changed, not just speed.  The scenarios cover the
short-burst saturation regime of the paper's robustness study (§VI-G) at
4, 16 and 40 machines (12.5 requests/sec/machine, roughly 5x sustainable,
so queues grow into the hundreds), two of the paper's conversation
iso-power clusters at full size (the 70-machine Baseline-A100, the
denominator of the headline ratios, and the 25+26-machine Splitwise-HA),
a day-scale diurnal trace under the pool autoscaler, a mixed-tenant fleet
behind the burst provisioner, and a 5-cluster fleet run serially and
sharded across 4 workers.

``sim_time_s`` cannot see a drifted boost or token time, so each
single-process scenario also pins a digest of its simulated state: the
engine counters, the machines' summed coalescing counters, sha256 prefixes
over every request's token times and outcome and over every cluster's
machine stats, and the clusters' summed token-log boundaries.  A second digest pins the
bits of what a run is judged by: every SLO slowdown with its sample counts
(``slo_report()`` of a cluster run; ``tenant_slo_report()`` of a fleet run,
per tenant and rolled up) and every ``request_metrics()`` field of a cluster
run.

Nothing here is timed and no file is written: wall-clock performance is
measured by ``perfbench/`` alone.  The module lives under ``benchmarks/``
so the ``REPRO_DEBUG_ACCOUNTING=1`` rerun of ``tests/`` does not recount
the 40-machine burst on every queue-metric read.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from repro.core.cluster import ClusterSimulation
from repro.core.designs import ClusterDesign, baseline_a100, splitwise_ha, splitwise_hh
from repro.experiments.fleet_sweep import prepare_fleet_run
from repro.experiments.scenarios import prepare_scenario_run
from repro.workload.generator import generate_trace
from repro.workload.scenarios import get_scenario


def _burst(design: ClusterDesign, rate_rps: float, num_requests: int, seed: int):
    """A cluster of ``design`` under a stationary conversation load."""
    trace = generate_trace("conversation", rate_rps=rate_rps, duration_s=num_requests / rate_rps, seed=seed)
    return ClusterSimulation(design), trace, ()


def _mixed_tenant_fleet(clusters: int, burst_clusters: int, scale: float, seed: int,
                        policy: str = "slo-feedback", parallel: int | None = None):
    return prepare_fleet_run(
        get_scenario("mixed-tenant"),
        clusters=clusters,
        burst_clusters=burst_clusters,
        seed=seed,
        scale=scale,
        policy=policy,
        burst=burst_clusters > 0,
        parallel=parallel,
    )


#: Scenario name -> builder of ``(simulation, trace, failures)``.
SCENARIOS = {
    "4-machine": lambda: _burst(splitwise_hh(2, 2), 50.0, 2_000, seed=11),
    "16-machine": lambda: _burst(splitwise_hh(10, 6), 200.0, 8_000, seed=12),
    "40-machine": lambda: _burst(splitwise_hh(25, 15), 500.0, 20_000, seed=13),
    # The paper's conversation iso-power clusters (Fig. 16) at full size:
    # an unsplit baseline whose JSQ probes every machine per arrival, and
    # a Splitwise design with A100 token machines.
    "paper-a100": lambda: _burst(baseline_a100(70), 12.0, 1_500, seed=0),
    "paper-ha": lambda: _burst(splitwise_ha(25, 26), 60.0, 1_500, seed=17),
    "diurnal-autoscale": lambda: prepare_scenario_run(
        get_scenario("diurnal"), seed=14, scale=4.0, autoscaled=True
    ),
    # Two active clusters plus one standby behind the slo-feedback router
    # and the cloud-burst provisioner.
    "fleet-burst": lambda: _mixed_tenant_fleet(2, 1, scale=2.0, seed=15),
    # Five static clusters (40 machines) under weighted-rr routing, serial
    # and sharded across 4 workers on the identical trace.
    "fleet-parallel": lambda: _mixed_tenant_fleet(5, 0, scale=1.6, seed=16, policy="weighted-rr"),
    "fleet-parallel-4w": lambda: _mixed_tenant_fleet(
        5, 0, scale=1.6, seed=16, policy="weighted-rr", parallel=4
    ),
}

#: Final simulated time of each scenario.  The day-scale diurnal run ends at
#: the last completion (trailing controller-only ticks are excluded so
#: machine-hour windows stay comparable with static runs).  The serial and
#: sharded fleet runs pin the SAME value.
EXPECTED_SIM_TIME = {
    "4-machine": "172.7535822080592",
    "16-machine": "167.01584566882394",
    "40-machine": "173.58417218336652",
    "paper-a100": "164.05977306871793",
    "paper-ha": "85.18092547776104",
    "diurnal-autoscale": "254.5188606131304",
    "fleet-burst": "250.29238581678956",
    "fleet-parallel": "258.6543126857196",
    "fleet-parallel-4w": "258.6543126857196",
}


#: Simulated-state digest of each single-process scenario (the sharded run's
#: engines live in its workers): events, cancelled, coalesced and heap
#: compactions of the engine; summed ``fast_forward_runs`` and
#: ``rotation_runs``; the requests and machine-stats hash prefixes; and the
#: summed token-log boundaries.
DIGEST_FIELDS = (
    "events", "cancelled", "coalesced", "compactions",
    "fast_forward_runs", "rotation_runs", "requests", "machine_stats", "token_log_boundaries",
)
EXPECTED_DIGEST = {
    "4-machine": (10_401, 6, 3_764, 0, 211, 6, "b24fc7ea670e01a0", "1cc42ba23f991ed5", 6_705),
    "16-machine": (40_924, 32, 14_449, 0, 878, 24, "f72dcc333f062218", "05351323f436f169", 25_621),
    "40-machine": (103_888, 83, 37_298, 0, 2_180, 62, "81a67f1fcc9abac2", "3b250d38f18fc509", 64_333),
    "paper-a100": (7_254, 1_280, 224_725, 0, 2_603, 0, "0b3803158110c08f", "434d216679ee1945", 3_951),
    "paper-ha": (9_119, 1_351, 35_887, 0, 2_581, 0, "f203159e12748f60", "752383021f47e108", 2_789),
    "diurnal-autoscale": (16_980, 2_689, 57_501, 0, 4_908, 0, "7f6567133d4263de", "210d70d724507dbc", 5_311),
    "fleet-burst": (19_137, 3_027, 87_259, 0, 5_588, 0, "6a587ca5a7b775f7", "b5923addc62cae3c", 5_980),
    "fleet-parallel": (39_639, 6_472, 110_448, 0, 11_429, 0, "f9c986a19c033e03", "5bee8c7cf6f83443", 12_446),
}


def _digest(simulation, result) -> tuple:
    """The :data:`DIGEST_FIELDS` of one finished single-process run."""
    fleet = hasattr(simulation, "clusters")
    clusters = [cluster.simulation for cluster in simulation.clusters] if fleet else [simulation]
    machines = [machine for cluster in clusters for machine in cluster.machines]
    engine = simulation.engine
    requests = hashlib.sha256()
    for r in result.requests:
        requests.update(r.token_times.tobytes())
        requests.update(repr((r.request_id, r.generated_tokens, float(r.priority_boost), r.completion_time,
                              r.restarts, r.phase.value, r.prompt_machine, r.token_machine)).encode())
    stats = hashlib.sha256()
    for cluster in clusters:
        stats.update(repr(sorted(cluster.metrics.export_machine_stats().items())).encode())
    return (
        engine.events_processed,
        engine.events_cancelled,
        engine.events_coalesced,
        engine.heap_compactions,
        sum(machine.fast_forward_runs for machine in machines),
        sum(machine.rotation_runs for machine in machines),
        requests.hexdigest()[:16],
        stats.hexdigest()[:16],
        sum(cluster.metrics.token_log.boundaries_recorded() for cluster in clusters),
    )


#: sha256 prefix of :func:`_report_digest` for each single-process scenario.
EXPECTED_REPORT_DIGEST = {
    "4-machine": "ed35ae76b108a465",
    "16-machine": "23d57683ef564e5e",
    "40-machine": "e0f9563a18a55b76",
    "paper-a100": "cb1fa894861f2b5a",
    "paper-ha": "a2214906ce601d10",
    "diurnal-autoscale": "bd0781353e3c1f07",
    "fleet-burst": "6c35cd803e772bbe",
    "fleet-parallel": "332556ff88855964",
}


def _bits(value) -> object:
    """``value`` with every float spelled exactly (``float.hex``), recursively."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    return value


def _slo_bits(report) -> tuple:
    slowdowns = sorted((metric, pct, value.hex()) for (metric, pct), value in report.slowdowns.items())
    return tuple(slowdowns), tuple(sorted(report.samples.items()))


def _report_digest(simulation, result) -> str:
    """Hash prefix over the evaluation reports of one finished single-process run."""
    if hasattr(simulation, "clusters"):
        tenant_report = result.tenant_slo_report()
        reports = [(tenant, _slo_bits(report)) for tenant, report in sorted(tenant_report.tenants.items())]
        reports.append(("fleet", _slo_bits(tenant_report.fleet)))
    else:
        reports = [("slo", _slo_bits(result.slo_report())), ("metrics", _bits(result.request_metrics()))]
    return hashlib.sha256(repr(reports).encode()).hexdigest()[:16]


@functools.cache
def _run(name: str) -> dict:
    """Run one scenario once per session and return its simulation counters."""
    simulation, trace, failures = SCENARIOS[name]()
    result = simulation.run(trace, failures=failures)
    # Sharded fleet runs execute on worker engines; their merged counters
    # live in parallel_info, and the coordinator engine stays idle.
    info = getattr(simulation, "parallel_info", None)
    if info is not None and info.get("mode") == "parallel":
        counters = (info["events_processed"], info["events_cancelled"], info["events_coalesced"])
        workers = info["workers"]
        digest = report_digest = None
    else:
        engine = simulation.engine
        counters = (engine.events_processed, engine.events_cancelled, engine.events_coalesced)
        workers = 0
        digest = _digest(simulation, result)
        report_digest = _report_digest(simulation, result)
    return {
        "requests": len(trace),
        "completed": len(result.completed_requests),
        "tokens_generated": sum(request.generated_tokens for request in result.requests),
        "sim_time_s": result.duration_s,
        "events": counters[0],
        "events_cancelled": counters[1],
        "events_coalesced": counters[2],
        "workers": workers,
        "digest": digest,
        "report_digest": report_digest,
    }


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_sim_time_pin(name):
    run = _run(name)
    # Every request must drain; a partial completion means the scenario is broken.
    assert run["completed"] == run["requests"]
    assert repr(run["sim_time_s"]) == EXPECTED_SIM_TIME[name]


@pytest.mark.parametrize("name", list(EXPECTED_DIGEST))
def test_simulated_state_digest(name):
    assert dict(zip(DIGEST_FIELDS, _run(name)["digest"])) == dict(zip(DIGEST_FIELDS, EXPECTED_DIGEST[name]))


@pytest.mark.parametrize("name", list(EXPECTED_REPORT_DIGEST))
def test_evaluation_report_digest(name):
    assert _run(name)["report_digest"] == EXPECTED_REPORT_DIGEST[name]


def test_sharded_fleet_matches_serial():
    serial, sharded = _run("fleet-parallel"), _run("fleet-parallel-4w")
    assert sharded["workers"] == 4
    for key in ("requests", "completed", "events", "events_cancelled",
                "events_coalesced", "tokens_generated", "sim_time_s"):
        assert serial[key] == sharded[key], f"serial/sharded divergence on {key}"
