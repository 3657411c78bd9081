"""Property tests for the fleet layer.

The fleet router distributes one request stream over several clusters; these
tests pin the invariants that make that safe:

* **Census conservation** — no request is lost or duplicated across
  clusters, under every routing policy, with bursting and machine failures
  in play.
* **Seed determinism** — identical seeds produce bit-identical timelines
  (request timestamps, provisioning actions, routing counts).
* **Fast-forward parity** — decode fast-forwarding on/off produces exactly
  the same fleet results; router and provisioner decisions read only
  signals that coalescing keeps exact.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import splitwise_hh
from repro.fleet import FleetProvisionerConfig, FleetSimulation, ROUTER_POLICIES
from repro.workload.scenarios import get_scenario


def _mixed_tenant_trace(seed, scale=1.0):
    return get_scenario("mixed-tenant").build_trace(seed=seed, scale=scale)


def _run_fleet(trace, policy="slo-feedback", fast_forward=True, burst=True):
    kwargs = {}
    if burst:
        kwargs["burst_clusters"] = 1
        kwargs["provisioner"] = FleetProvisionerConfig()
    fleet = FleetSimulation(
        splitwise_hh(2, 1),
        num_clusters=2,
        router=policy,
        fast_forward=fast_forward,
        **kwargs,
    )
    return fleet.run(trace)


def _fingerprint(result):
    """Everything observable about a fleet run, for bit-identity checks."""
    per_request = [
        (
            r.request_id,
            r.tenant,
            r.prompt_machine,
            r.token_machine,
            r.prompt_start_time,
            r.first_token_time,
            r.completion_time,
            tuple(r.token_times),
            r.restarts,
        )
        for r in result.requests
    ]
    timeline = (
        [(e.time_s, e.cluster, e.action) for e in result.provisioner.timeline]
        if result.provisioner is not None
        else []
    )
    return (per_request, result.duration_s, result.requests_by_cluster(), timeline)


class TestFleetCensus:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_no_request_lost_or_duplicated(self, seed):
        trace = _mixed_tenant_trace(seed, scale=0.5)
        result = _run_fleet(trace)
        assert result.completion_rate == 1.0
        routed_ids = [r.request_id for c in result.clusters for r in c.requests]
        assert sorted(routed_ids) == [r.request_id for r in result.requests]
        completed = [r.request_id for c in result.clusters for r in c.requests if r.is_complete]
        assert len(completed) == len(set(completed)) == len(trace)

    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    def test_census_conserved_under_every_policy_with_failures(self, policy):
        trace = _mixed_tenant_trace(7, scale=0.5)
        fleet = FleetSimulation(splitwise_hh(2, 1), num_clusters=2, router=policy)
        result = fleet.run(trace, failures=((20.0, "cluster-0/prompt-0"),))
        assert result.completion_rate == 1.0
        routed_ids = [r.request_id for c in result.clusters for r in c.requests]
        assert sorted(routed_ids) == [r.request_id for r in result.requests]

class TestFleetDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**10))
    @settings(max_examples=3, deadline=None)
    def test_identical_seeds_identical_timelines(self, seed):
        trace = _mixed_tenant_trace(seed, scale=0.5)
        first = _run_fleet(trace)
        second = _run_fleet(trace)
        assert _fingerprint(first) == _fingerprint(second)

    def test_different_seeds_differ(self):
        first = _run_fleet(_mixed_tenant_trace(0, scale=0.5))
        second = _run_fleet(_mixed_tenant_trace(1, scale=0.5))
        assert _fingerprint(first) != _fingerprint(second)


class TestFleetFastForwardParity:
    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    def test_bit_parity_across_policies(self, policy):
        trace = _mixed_tenant_trace(5, scale=0.5)
        on = _run_fleet(trace, policy=policy, fast_forward=True)
        off = _run_fleet(trace, policy=policy, fast_forward=False)
        assert _fingerprint(on) == _fingerprint(off)
