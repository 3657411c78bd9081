"""Unit tests for reliability-aware routing and per-tenant admission control."""

from __future__ import annotations

import pytest

from repro.core.designs import splitwise_hh
from repro.fleet import (
    AdmissionConfig,
    ClusterHealth,
    FleetSimulation,
    ReliabilityConfig,
)
from repro.workload.arrival import PoissonArrivalProcess
from repro.workload.distributions import CODING_WORKLOAD, CONVERSATION_WORKLOAD
from repro.workload.generator import TraceGenerator
from repro.workload.scenarios import mix_traces


def _config(**overrides):
    defaults = dict(
        window=8,
        ban_threshold=0.5,
        min_observations=4,
        cooldown_s=10.0,
        probation_requests=4,
        probation_threshold=0.5,
    )
    defaults.update(overrides)
    return ReliabilityConfig(**defaults)


class TestReliabilityConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"ban_threshold": 0.0},
            {"ban_threshold": 1.5},
            {"min_observations": 0},
            {"min_observations": 100},  # > window
            {"cooldown_s": 0.0},
            {"probation_requests": 0},
            {"ttft_slowdown_limit": 1.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _config(**kwargs)


class TestClusterHealthStateMachine:
    def test_starts_healthy(self):
        health = ClusterHealth(_config())
        assert health.state == "healthy"
        assert not health.is_banned(0.0)

    def test_no_ban_before_min_observations(self):
        health = ClusterHealth(_config(min_observations=4))
        for _ in range(3):
            health.record(error=True, now=1.0)
        assert health.state == "healthy"

    def test_error_fraction_bans(self):
        health = ClusterHealth(_config())
        for _ in range(4):
            health.record(error=True, now=1.0)
        assert health.state == "banned"
        assert health.bans == 1
        assert health.is_banned(2.0)

    def test_healthy_outcomes_keep_cluster_in_rotation(self):
        health = ClusterHealth(_config())
        for index in range(50):
            health.record(error=index % 4 == 0, now=float(index))  # 25% < 50%
        assert health.state == "healthy"
        assert health.bans == 0

    def test_window_eviction_forgets_old_errors(self):
        health = ClusterHealth(_config(window=4, min_observations=4, ban_threshold=0.75))
        # Two early errors, then a clean streak long enough to evict them.
        health.record(True, 0.0)
        health.record(True, 0.0)
        for _ in range(6):
            health.record(False, 1.0)
        assert health.errors == 0
        assert health.state == "healthy"

    def test_cooldown_expires_into_probation(self):
        health = ClusterHealth(_config(cooldown_s=10.0))
        for _ in range(4):
            health.record(True, now=5.0)
        assert health.is_banned(14.9)
        assert not health.is_banned(15.0)  # 5.0 + 10.0
        assert health.state == "probation"

    def test_clean_probation_re_admits(self):
        health = ClusterHealth(_config(cooldown_s=10.0, probation_requests=4))
        for _ in range(4):
            health.record(True, now=0.0)
        for _ in range(4):
            health.record(False, now=20.0)
        assert health.state == "healthy"
        assert health.bans == 1

    def test_failed_probation_re_bans(self):
        health = ClusterHealth(_config(cooldown_s=10.0, probation_requests=4))
        for _ in range(4):
            health.record(True, now=0.0)
        for _ in range(4):
            health.record(True, now=20.0)
        assert health.state == "banned"
        assert health.bans == 2
        assert health.banned_until_s == pytest.approx(30.0)

    def test_straggler_completions_during_ban_carry_no_signal(self):
        health = ClusterHealth(_config(cooldown_s=10.0, probation_requests=4))
        for _ in range(4):
            health.record(True, now=0.0)
        # Outcomes landing while the ban is still live must not count
        # toward (or against) the upcoming probation.
        health.record(True, now=5.0)
        health.record(True, now=9.0)
        assert health.state == "banned"
        for _ in range(4):
            health.record(False, now=20.0)
        assert health.state == "healthy"


class TestProbationEdges:
    def test_probation_with_zero_outcomes_never_decides(self):
        health = ClusterHealth(_config(cooldown_s=10.0, probation_requests=4))
        for _ in range(4):
            health.record(True, now=0.0)
        # Arbitrarily far past the cooldown, with no outcomes observed, the
        # cluster is routable but stays on probation — re-admission requires
        # evidence, not the passage of time.
        for now in (10.0, 1e3, 1e6):
            assert not health.is_banned(now)
            assert health.state == "probation"
        assert health.bans == 1

    def test_reban_decided_exactly_at_probation_quota(self):
        health = ClusterHealth(
            _config(cooldown_s=10.0, probation_requests=4, probation_threshold=0.5)
        )
        for _ in range(4):
            health.record(True, now=0.0)
        assert not health.is_banned(10.0)
        # Three straight probation errors already exceed the threshold, but
        # the verdict waits for the full probation quota.
        for t in (11.0, 12.0, 13.0):
            health.record(True, now=t)
            assert health.state == "probation"
        health.record(True, now=14.0)
        assert health.state == "banned"
        assert health.bans == 2
        # The fresh cooldown runs from the deciding outcome.
        assert health.banned_until_s == pytest.approx(24.0)
        assert health.is_banned(23.9)
        assert not health.is_banned(24.0)

    def test_mixed_probation_below_threshold_readmits(self):
        health = ClusterHealth(
            _config(cooldown_s=10.0, probation_requests=4, probation_threshold=0.5)
        )
        for _ in range(4):
            health.record(True, now=0.0)
        assert not health.is_banned(10.0)
        # 1 error in the 4 probation outcomes: 25% < 50% -> healthy again.
        health.record(True, now=11.0)
        for t in (12.0, 13.0, 14.0):
            health.record(False, now=t)
        assert health.state == "healthy"
        assert health.bans == 1


class TestBanExclusionInteraction:
    """Bans (reliability) x retry exclusion (lifecycle) on ``route()``."""

    def _fleet_with_ban(self, banned="cluster-0"):
        fleet = FleetSimulation(splitwise_hh(1, 1), num_clusters=2, reliability=_config())
        health = fleet.router._health[banned]
        for _ in range(4):
            health.record(True, now=0.0)
        assert health.is_banned(fleet.engine.now)
        return fleet

    def test_exclusion_of_healthy_cluster_falls_back_to_banned(self, make_request):
        # cluster-0 banned, cluster-1 excluded by a retry: both filters are
        # soft, so the banned cluster still serves rather than dropping.
        fleet = self._fleet_with_ban("cluster-0")
        choice = fleet.router.route(make_request(), exclude="cluster-1")
        assert choice.name == "cluster-0"

    def test_exclusion_agrees_with_ban(self, make_request):
        fleet = self._fleet_with_ban("cluster-0")
        choice = fleet.router.route(make_request(), exclude="cluster-0")
        assert choice.name == "cluster-1"

    def test_ban_alone_steers_to_healthy_cluster(self, make_request):
        fleet = self._fleet_with_ban("cluster-0")
        for request_id in range(4):
            choice = fleet.router.route(make_request(request_id=request_id))
            assert choice.name == "cluster-1"

    def test_excluding_every_cluster_still_routes(self, make_request):
        fleet = self._fleet_with_ban("cluster-0")
        choice = fleet.router.route(
            make_request(), exclude=("cluster-0", "cluster-1")
        )
        # Soft exclusion that would empty the candidate set is ignored; the
        # ban filter then steers to the healthy cluster.
        assert choice.name == "cluster-1"


class TestAdmissionConfig:
    def test_thresholds_scale_with_priority(self):
        admission = AdmissionConfig(
            max_outstanding=100,
            tenant_priorities={"gold": 2, "silver": 1},
            shed_headroom=0.5,
        )
        assert admission.shed_threshold("bronze") == pytest.approx(100.0)
        assert admission.shed_threshold("silver") == pytest.approx(150.0)
        assert admission.shed_threshold("gold") == pytest.approx(200.0)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_outstanding=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_outstanding=10, shed_headroom=-0.1)
        with pytest.raises(ValueError):
            AdmissionConfig(max_outstanding=10, tenant_priorities={"t": -1})


class TestAdmissionInFleet:
    def _overloaded_fleet_result(self, admission):
        trace = mix_traces(
            TraceGenerator(CODING_WORKLOAD, PoissonArrivalProcess(14.0), seed=3, tenant="low").generate(30.0),
            TraceGenerator(
                CONVERSATION_WORKLOAD, PoissonArrivalProcess(4.0), seed=4, tenant="high"
            ).generate(30.0),
        )
        fleet = FleetSimulation(
            splitwise_hh(1, 1), num_clusters=2, admission=admission
        )
        return fleet.run(trace)

    def test_lowest_priority_tenant_sheds_first(self):
        result = self._overloaded_fleet_result(
            AdmissionConfig(
                max_outstanding=12, tenant_priorities={"high": 2}, shed_headroom=1.0
            )
        )
        shed = result.shed_by_tenant
        assert shed.get("low", 0) > 0, "overload never tripped admission control"
        # The high-priority tenant has 3x the headroom; at this load it
        # must shed strictly less (here: nothing).
        assert shed.get("high", 0) < shed["low"]
        # Census conservation: every request either completed or was shed.
        assert len(result.completed_requests) + result.requests_shed == len(result.requests)
        # Shed requests never started.
        for request in [r for r in result.requests if r.shed]:
            assert request.shed and request.prompt_start_time is None

    def test_goodput_reported_per_tenant(self):
        result = self._overloaded_fleet_result(
            AdmissionConfig(
                max_outstanding=12, tenant_priorities={"high": 2}, shed_headroom=1.0
            )
        )
        report = result.tenant_slo_report()
        assert report.goodput["low"] < 1.0
        assert report.goodput["high"] >= report.goodput["low"]
        assert 0.0 < report.fleet_goodput < 1.0
        payload = report.as_dict()
        assert payload["tenants"]["low"]["goodput"] == pytest.approx(report.goodput["low"])
        assert payload["fleet"]["goodput"] == pytest.approx(report.fleet_goodput)

    def test_no_admission_control_sheds_nothing(self):
        result = self._overloaded_fleet_result(None)
        assert result.requests_shed == 0
        assert result.completion_rate == 1.0
