"""Property tests for the fault-injection plane under full fleet simulation.

The fault plane replays a pre-compiled stochastic plan as engine events;
these tests pin the invariants that make chaos runs trustworthy:

* **Census conservation** — under the full failure-storm preset (machine
  churn, rack outages, stragglers, KV degradation, spot revocation, bans,
  shedding) every request either completes or is shed; nothing is lost.
* **Seed determinism** — each injection type in isolation fires at least
  once and produces bit-identical runs under the same fault seed; a
  different fault seed produces a different plan.
* **Fast-forward parity** — decode fast-forwarding on/off produces exactly
  the same results with the whole fault plane armed, because injections
  are priority-1 engine events compiled before the run starts.
* **Lifecycle invariants** — with the request-lifecycle layer (retries,
  hedging, deadlines, degraded service) armed on top of the storm: the
  census closes at the attempt level (completed + shed + expired ==
  submitted; hedge duplicates are attempts, never extra requests), the
  retry-jitter seed is independent of the trace and fault seeds, runs stay
  bit-identical under the same three seeds and under fast-forward on/off,
  and reliability pays for itself — goodput is strictly higher than the
  same fleet with the lifecycle layer stripped.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import splitwise_hh
from repro.faults import FaultPlanConfig, get_chaos_preset
from repro.fleet import FleetProvisionerConfig, FleetSimulation
from repro.workload.scenarios import get_scenario


def _storm_trace(seed, scale=0.4):
    return get_scenario("failure-storm").build_trace(seed=seed, scale=scale)


def _storm_fleet(
    fault_seed=None, fast_forward=True, burst=True, lifecycle=False, retry_seed=None
):
    """A fleet with the full failure-storm bundle armed.

    ``lifecycle=True`` additionally arms the preset's request-lifecycle
    layer (retries, hedging, deadlines, degraded service); ``retry_seed``
    reseeds the retry-jitter RNG independently of the trace/fault seeds.
    """
    bundle = get_chaos_preset("failure-storm")
    faults = bundle.faults
    if fault_seed is not None:
        faults = dataclasses.replace(faults, seed=fault_seed)
    kwargs = {}
    if burst:
        kwargs["burst_clusters"] = 1
        kwargs["provisioner"] = FleetProvisionerConfig()
    if lifecycle:
        retry = bundle.retry
        if retry_seed is not None:
            retry = dataclasses.replace(retry, seed=retry_seed)
        kwargs.update(
            retry=retry,
            hedge=bundle.hedge,
            deadlines=bundle.deadlines,
            degraded=bundle.degraded,
        )
    return FleetSimulation(
        splitwise_hh(1, 1),
        num_clusters=2,
        faults=faults,
        reliability=bundle.reliability,
        admission=bundle.admission,
        fast_forward=fast_forward,
        **kwargs,
    )


def _fingerprint(result):
    """Everything observable about a chaos run, for bit-identity checks."""
    per_request = [
        (
            r.request_id,
            r.tenant,
            r.shed,
            r.prompt_machine,
            r.token_machine,
            r.prompt_start_time,
            r.first_token_time,
            r.completion_time,
            tuple(r.token_times),
            r.restarts,
            r.expired,
            r.degraded,
        )
        for r in result.requests
    ]
    timeline = (
        [(e.time_s, e.cluster, e.action) for e in result.provisioner.timeline]
        if result.provisioner is not None
        else []
    )
    faults = result.injector.snapshot() if result.injector is not None else None
    lifecycle = result.lifecycle.snapshot() if result.lifecycle is not None else None
    return (
        per_request,
        result.duration_s,
        result.requests_by_cluster(),
        dict(result.shed_by_tenant),
        result.router.bans_issued,
        timeline,
        faults,
        lifecycle,
    )


def _assert_census_conserved(result, trace):
    served = [r for r in result.requests if not r.shed and not r.expired]
    assert (
        len(result.completed_requests) + result.requests_shed + result.requests_expired
        == len(trace)
    )
    routed_ids = [r.request_id for c in result.clusters for r in c.requests]
    assert sorted(routed_ids) == sorted(r.request_id for r in served)
    for request in served:
        assert request.is_complete, f"request {request.request_id} lost mid-chaos"
    for request in [r for r in result.requests if r.shed]:
        assert request.prompt_start_time is None


class TestChaosCensus:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None)
    def test_no_request_lost_under_failure_storm(self, seed):
        trace = _storm_trace(seed)
        result = _storm_fleet().run(trace)
        assert result.injector is not None and sum(result.injector.fired.values()) > 0
        _assert_census_conserved(result, trace)

    def test_census_conserved_without_burst_provisioner(self):
        trace = _storm_trace(11)
        result = _storm_fleet(burst=False).run(trace)
        _assert_census_conserved(result, trace)

    def test_regression_recover_before_stale_finish_event(self):
        # Trace seed 1 once double-completed a request: a machine failed
        # mid-iteration, its work restarted elsewhere, and after repair the
        # stale finish event replayed the dead iteration.  fail() now
        # tombstones the pending finish event.
        trace = _storm_trace(1)
        result = _storm_fleet().run(trace)
        _assert_census_conserved(result, trace)


#: One minimal FaultPlanConfig per injection process, each armed alone.
ISOLATED_PROCESSES = {
    "machine-churn": FaultPlanConfig(seed=5, machine_mtbf_s=40.0, machine_mttr_s=6.0),
    "outage": FaultPlanConfig(seed=5, outage_interval_s=50.0, outage_duration_s=8.0),
    "straggler": FaultPlanConfig(
        seed=5, straggler_interval_s=45.0, straggler_duration_s=25.0, straggler_slowdown=1.8
    ),
    "kv-degradation": FaultPlanConfig(
        seed=5, kv_degradation_interval_s=40.0, kv_degradation_duration_s=12.0,
        kv_degradation_factor=2.5,
    ),
    # Seed chosen so the (single) revoke onset lands inside the storm's
    # burst window — a revoke against a cluster that was never rented is
    # skipped by design.
    "revocation": FaultPlanConfig(seed=1, revocation_mtbf_s=60.0),
}


def _isolated_fleet(faults, fast_forward=True):
    # Revocation needs a burst cluster to target, so every isolated run
    # gets one — the other processes simply ignore it.
    return FleetSimulation(
        splitwise_hh(1, 1),
        num_clusters=2,
        burst_clusters=1,
        provisioner=FleetProvisionerConfig(),
        faults=faults,
        fast_forward=fast_forward,
    )


class TestChaosDeterminism:
    @pytest.mark.parametrize("process", sorted(ISOLATED_PROCESSES))
    def test_each_injection_type_fires_and_is_deterministic(self, process):
        faults = ISOLATED_PROCESSES[process]
        trace = _storm_trace(3, scale=0.8)
        first = _isolated_fleet(faults).run(trace)
        second = _isolated_fleet(faults).run(trace)
        assert sum(first.injector.fired.values()) > 0, f"{process} never fired"
        assert _fingerprint(first) == _fingerprint(second)

    @pytest.mark.parametrize("process", sorted(ISOLATED_PROCESSES))
    def test_different_fault_seed_different_plan(self, process):
        faults = ISOLATED_PROCESSES[process]
        reseeded = dataclasses.replace(faults, seed=faults.seed + 1)
        trace = _storm_trace(3, scale=0.8)
        first = _isolated_fleet(faults).run(trace)
        second = _isolated_fleet(reseeded).run(trace)
        assert first.injector.plan != second.injector.plan

    def test_fault_seed_independent_of_trace_seed(self):
        first = _storm_fleet(fault_seed=123).run(_storm_trace(0))
        second = _storm_fleet(fault_seed=123).run(_storm_trace(1))
        assert first.injector.plan == second.injector.plan

    @given(fault_seed=st.integers(min_value=0, max_value=2**10))
    @settings(max_examples=3, deadline=None)
    def test_full_storm_bit_reproducible(self, fault_seed):
        trace = _storm_trace(7)
        first = _storm_fleet(fault_seed=fault_seed).run(trace)
        second = _storm_fleet(fault_seed=fault_seed).run(trace)
        assert _fingerprint(first) == _fingerprint(second)


class TestChaosFastForwardParity:
    def test_bit_parity_under_failure_storm(self):
        trace = _storm_trace(5)
        on = _storm_fleet(fast_forward=True).run(trace)
        off = _storm_fleet(fast_forward=False).run(trace)
        assert _fingerprint(on) == _fingerprint(off)

    def test_bit_parity_with_lifecycle_layer(self):
        trace = _storm_trace(5)
        on = _storm_fleet(fast_forward=True, lifecycle=True).run(trace)
        off = _storm_fleet(fast_forward=False, lifecycle=True).run(trace)
        assert on.lifecycle.retries_fired > 0, "storm fired no retries; parity is vacuous"
        assert _fingerprint(on) == _fingerprint(off)


class TestLifecycleProperties:
    """The request-lifecycle layer on top of the full failure storm."""

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None)
    def test_attempt_census_closes(self, seed):
        trace = _storm_trace(seed)
        result = _storm_fleet(lifecycle=True).run(trace)
        _assert_census_conserved(result, trace)
        # Hedge duplicates are attempts, not requests: the logical request
        # list matches the trace exactly, ids unique, and every id is below
        # the clone offset.
        ids = [r.request_id for r in result.requests]
        assert len(ids) == len(set(ids)) == len(trace)
        assert all(request_id < (1 << 40) for request_id in ids)
        snapshot = result.lifecycle.snapshot()
        assert snapshot["hedges_won"] <= snapshot["hedges_launched"]
        assert snapshot["retries_fired"] <= snapshot["retries_scheduled"]
        assert result.requests_expired >= snapshot["retries_exhausted"]

    def test_bit_reproducible_with_all_three_seeds(self):
        trace = _storm_trace(7)
        first = _storm_fleet(fault_seed=9, lifecycle=True, retry_seed=4).run(trace)
        second = _storm_fleet(fault_seed=9, lifecycle=True, retry_seed=4).run(trace)
        assert first.lifecycle.retries_fired > 0
        assert _fingerprint(first) == _fingerprint(second)

    def test_retry_seed_independent_of_fault_plan(self):
        trace = _storm_trace(7)
        first = _storm_fleet(fault_seed=9, lifecycle=True, retry_seed=0).run(trace)
        second = _storm_fleet(fault_seed=9, lifecycle=True, retry_seed=1).run(trace)
        # Reseeding the retry jitter must not perturb the fault plan or the
        # workload — only the retry timings (and their downstream effects).
        assert first.injector.plan == second.injector.plan
        assert [r.request_id for r in first.requests] == [
            r.request_id for r in second.requests
        ]

    def test_reliability_pays_for_itself(self):
        # Same trace, same faults, same router/admission, at a load where
        # the baseline storm sheds: the lifecycle layer (retries + hedging +
        # degraded service) strictly wins goodput back.  The run is fully
        # deterministic, so the fixed seeds make this reproducible.
        trace = _storm_trace(0, scale=0.8)
        with_layer = _storm_fleet(fault_seed=0, lifecycle=True).run(trace)
        without = _storm_fleet(fault_seed=0, lifecycle=False).run(trace)
        goodput_with = with_layer.tenant_slo_report().fleet_goodput
        goodput_without = without.tenant_slo_report().fleet_goodput
        assert goodput_without < 1.0, "baseline shed nothing; comparison is vacuous"
        assert with_layer.lifecycle.retries_fired > 0
        assert with_layer.lifecycle.degraded_admissions > 0
        assert goodput_with > goodput_without

    def test_hedge_waste_is_reported(self):
        trace = _storm_trace(7)
        result = _storm_fleet(fault_seed=9, lifecycle=True).run(trace)
        snapshot = result.lifecycle.snapshot()
        assert snapshot["hedge_wasted_tokens"] >= 0
        if snapshot["hedges_won"] == 0 and snapshot["hedges_launched"] == 0:
            assert snapshot["hedge_wasted_tokens"] == 0
        # Whatever the storm wasted is visible in provenance: the snapshot
        # keys the CLI smoke tests read must exist.
        for key in (
            "retries_scheduled",
            "retries_fired",
            "retries_exhausted",
            "hedges_launched",
            "hedges_won",
            "hedges_suppressed",
            "hedge_wasted_tokens",
            "expired_wasted_tokens",
            "expired",
            "degraded_admissions",
        ):
            assert key in snapshot

    @pytest.mark.parametrize("process", sorted(ISOLATED_PROCESSES))
    def test_bit_parity_per_injection_type(self, process):
        faults = ISOLATED_PROCESSES[process]
        trace = _storm_trace(3, scale=0.8)
        on = _isolated_fleet(faults, fast_forward=True).run(trace)
        off = _isolated_fleet(faults, fast_forward=False).run(trace)
        assert _fingerprint(on) == _fingerprint(off)
