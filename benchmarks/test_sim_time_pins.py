"""Bit-pins on the final simulated time of seven cluster and fleet scenarios.

``sim_time_s`` is a pure simulation output: it must be bit-identical on
every host and across perf-only refactors, so any drift here means
simulation *behavior* changed, not just speed.  The scenarios cover the
short-burst saturation regime of the paper's robustness study (§VI-G) at
4, 16 and 40 machines (12.5 requests/sec/machine, roughly 5x sustainable,
so queues grow into the hundreds), a day-scale diurnal trace under the pool
autoscaler, a mixed-tenant fleet behind the burst provisioner, and a
5-cluster fleet run serially and sharded across 4 workers.

Nothing here is timed and no file is written: wall-clock performance is
measured by ``perfbench/`` alone.  The module lives under ``benchmarks/``
so the ``REPRO_DEBUG_ACCOUNTING=1`` rerun of ``tests/`` does not recount
the 40-machine burst on every queue-metric read.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.cluster import ClusterSimulation
from repro.core.designs import splitwise_hh
from repro.experiments.fleet_sweep import prepare_fleet_run
from repro.experiments.scenarios import prepare_scenario_run
from repro.workload.generator import generate_trace
from repro.workload.scenarios import get_scenario


def _burst(num_prompt: int, num_token: int, rate_rps: float, num_requests: int, seed: int):
    """A Splitwise-HH cluster under a stationary conversation burst."""
    trace = generate_trace("conversation", rate_rps=rate_rps, duration_s=num_requests / rate_rps, seed=seed)
    return ClusterSimulation(splitwise_hh(num_prompt, num_token)), trace, ()


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
    "4-machine": lambda: _burst(2, 2, 50.0, 2_000, seed=11),
    "16-machine": lambda: _burst(10, 6, 200.0, 8_000, seed=12),
    "40-machine": lambda: _burst(25, 15, 500.0, 20_000, seed=13),
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
    "diurnal-autoscale": "254.5188606131304",
    "fleet-burst": "250.29238581678956",
    "fleet-parallel": "258.6543126857196",
    "fleet-parallel-4w": "258.6543126857196",
}


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
    else:
        engine = simulation.engine
        counters = (engine.events_processed, engine.events_cancelled, engine.events_coalesced)
        workers = 0
    return {
        "requests": len(trace),
        "completed": len(result.completed_requests),
        "tokens_generated": sum(request.generated_tokens for request in result.requests),
        "sim_time_s": result.duration_s,
        "events": counters[0],
        "events_cancelled": counters[1],
        "events_coalesced": counters[2],
        "workers": workers,
    }


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_sim_time_pin(name):
    run = _run(name)
    # Every request must drain; a partial completion means the scenario is broken.
    assert run["completed"] == run["requests"]
    assert repr(run["sim_time_s"]) == EXPECTED_SIM_TIME[name]


def test_sharded_fleet_matches_serial():
    serial, sharded = _run("fleet-parallel"), _run("fleet-parallel-4w")
    assert sharded["workers"] == 4
    for key in ("requests", "completed", "events", "events_cancelled",
                "events_coalesced", "tokens_generated", "sim_time_s"):
        assert serial[key] == sharded[key], f"serial/sharded divergence on {key}"
