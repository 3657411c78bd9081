"""Unit tests for the fleet layer: router policies, provisioner, accounting."""

from __future__ import annotations

import pytest

from repro.core.designs import splitwise_hh
from repro.fleet import (
    ClusterState,
    DeadlineConfig,
    FleetProvisioner,
    FleetProvisionerConfig,
    FleetRouter,
    FleetSimulation,
    ROUTER_POLICIES,
    RetryPolicy,
)
from repro.metrics.collectors import census
from repro.workload.arrival import PoissonArrivalProcess
from repro.workload.distributions import get_workload
from repro.workload.generator import TraceGenerator, generate_trace
from repro.workload.scenarios import get_scenario, mix_traces
from repro.workload.trace import RequestDescriptor, Trace


def _small_fleet(num_clusters=2, **kwargs):
    return FleetSimulation(splitwise_hh(1, 1), num_clusters=num_clusters, **kwargs)


def _quick_trace(rate=4.0, duration=20.0, seed=0):
    return generate_trace("conversation", rate_rps=rate, duration_s=duration, seed=seed)


def _tenant_trace(workload, rate, duration, seed, tenant):
    """A Poisson trace whose every request belongs to ``tenant``."""
    arrivals = PoissonArrivalProcess(rate)
    return TraceGenerator(get_workload(workload), arrivals, seed=seed, tenant=tenant).generate(duration)


class TestFleetRouter:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            FleetRouter("shortest-job-first")

    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    def test_every_policy_serves_the_whole_trace(self, policy):
        fleet = _small_fleet(router=policy)
        result = fleet.run(_quick_trace())
        assert result.completion_rate == 1.0
        routed = result.requests_by_cluster()
        assert sum(routed.values()) == len(result.requests)
        # Both clusters must actually participate under every policy.
        assert all(count > 0 for count in routed.values())

    def test_weighted_rr_splits_evenly_on_equal_weights(self):
        fleet = _small_fleet(router="weighted-rr")
        result = fleet.run(_quick_trace())
        routed = result.requests_by_cluster()
        assert abs(routed["cluster-0"] - routed["cluster-1"]) <= 1

    def test_tenant_pin_confines_a_tenant(self):
        trace = mix_traces(
            _tenant_trace("conversation", 2.0, 15.0, seed=1, tenant="a"),
            _tenant_trace("coding", 2.0, 15.0, seed=2, tenant="b"),
        )
        router = FleetRouter("least-outstanding", tenant_pins={"b": "cluster-1"})
        fleet = _small_fleet(router=router)
        result = fleet.run(trace)
        assert result.completion_rate == 1.0
        pinned = [r for r in result.clusters[1].requests if r.tenant == "b"]
        stray = [r for r in result.clusters[0].requests if r.tenant == "b"]
        assert pinned and not stray

    def test_pin_to_unknown_cluster_rejected(self):
        router = FleetRouter(tenant_pins={"a": "cluster-9"})
        with pytest.raises(ValueError, match="unknown cluster"):
            _small_fleet(router=router)

    def test_slo_feedback_shifts_traffic_away_from_degraded_cluster(self, make_request):
        # Seed the rolling windows directly: cluster-0's tail is 10x worse
        # than cluster-1's at equal outstanding load, so the next routing
        # decision must avoid it; once enough healthy completions flush the
        # window, the lexicographic tie-break takes over and cluster-0 wins
        # again (the window is sized so recovery is observable).
        fleet = _small_fleet(router=FleetRouter("slo-feedback", slo_window=10))
        router = fleet.router

        def completed(request_id, ttft, tbt, tokens=4):
            request = make_request(request_id=request_id, output=tokens)
            request.start_prompt(0.0, "m")
            request.finish_prompt(ttft)
            for i in range(1, tokens):
                request.generate_token(ttft + i * tbt)
            return request

        for i in range(10):
            router.note_completed("cluster-0", completed(i, ttft=2.0, tbt=0.5))
            router.note_completed("cluster-1", completed(100 + i, ttft=0.2, tbt=0.05))
        # note_completed decremented outstanding below submissions; rebalance
        # the counters so both clusters sit at equal outstanding load.
        for traffic in router.traffic.values():
            traffic.submitted = traffic.completed
        assert router.route(make_request(request_id=200)).name == "cluster-1"
        for i in range(10):
            router.note_completed("cluster-0", completed(300 + i, ttft=0.2, tbt=0.05))
        for traffic in router.traffic.values():
            traffic.submitted = traffic.completed
        assert router.route(make_request(request_id=400)).name == "cluster-0"


class TestFleetSimulation:
    def test_requires_at_least_one_cluster(self):
        with pytest.raises(ValueError, match="num_clusters"):
            _small_fleet(num_clusters=0)

    def test_burst_clusters_require_provisioner(self):
        with pytest.raises(ValueError, match="provisioner"):
            _small_fleet(burst_clusters=1)

    def test_member_clusters_take_no_autoscaler(self):
        # The fleet could not stop a member's autoscaler ticks, so the run
        # would never drain: the constructor refuses it up front.
        from repro.core.autoscaler import AutoscalerConfig

        with pytest.raises(ValueError, match="autoscaler"):
            _small_fleet(autoscaler=AutoscalerConfig())

    def test_cluster_kwargs_reach_every_member(self):
        fleet = _small_fleet(num_clusters=3, fast_forward=False, prompt_queue_threshold=123)
        assert all(not m.fast_forward_enabled for c in fleet.clusters for m in c.simulation.machines)
        assert [c.simulation.scheduler.prompt_queue_threshold for c in fleet.clusters] == [123] * 3

    def test_run_drains_every_cluster(self):
        trace = _quick_trace()
        fleet = _small_fleet()
        result = fleet.run(trace)
        assert fleet.engine.pending_events == 0
        assert result.completion_rate == 1.0
        last_completion = max(r.completion_time for r in result.requests)
        assert result.duration_s == max(last_completion, trace.duration_s)
        assert all(r.duration_s == result.duration_s for r in result.cluster_results.values())

    def test_static_fleet_pays_every_cluster_all_window(self):
        fleet = _small_fleet(num_clusters=3)
        result = fleet.run(_quick_trace())
        hourly = splitwise_hh(1, 1).cost_per_hour
        assert result.cost() == pytest.approx(3 * hourly * result.duration_s / 3600.0)

    def test_tenant_report_rolls_up_the_whole_fleet(self):
        from repro.hardware.machine import DGX_A100
        from repro.metrics.slo import evaluate_slo
        from repro.models.performance import AnalyticalPerformanceModel

        trace = mix_traces(
            _tenant_trace("coding", 2.0, 20.0, seed=1, tenant="code"),
            _tenant_trace("conversation", 2.0, 20.0, seed=2, tenant="chat"),
        )
        result = _small_fleet().run(trace)
        report = result.tenant_slo_report()
        reference = AnalyticalPerformanceModel(result.model, DGX_A100)
        assert sorted(report.tenants) == ["chat", "code"]
        assert report.fleet.slowdowns == evaluate_slo(result.requests, reference).slowdowns
        for tenant, tenant_report in report.tenants.items():
            group = [r for r in result.requests if r.tenant == tenant]
            assert tenant_report.slowdowns == evaluate_slo(group, reference).slowdowns

    def test_machine_names_are_cluster_prefixed(self):
        fleet = _small_fleet()
        names = [m.name for cluster in fleet.clusters for m in cluster.simulation.machines]
        assert "cluster-0/prompt-0" in names and "cluster-1/token-0" in names
        assert len(set(names)) == len(names)

    def test_census_conserved_across_clusters(self):
        trace = _quick_trace()
        fleet = _small_fleet()
        result = fleet.run(trace)
        per_cluster = [r.request_id for c in result.clusters for r in c.requests]
        assert sorted(per_cluster) == sorted(r.request_id for r in result.requests)
        assert len(set(per_cluster)) == len(per_cluster)

    def test_failure_injection_targets_the_named_cluster(self):
        trace = _quick_trace(duration=30.0)
        fleet = _small_fleet()
        result = fleet.run(trace, failures=((5.0, "cluster-0/prompt-0"),))
        assert result.completion_rate == 1.0
        failed = result.cluster_results["cluster-0"].scheduler.failed_machines
        assert [m.name for m in failed] == ["cluster-0/prompt-0"]
        assert not result.cluster_results["cluster-1"].scheduler.failed_machines

    def test_unprefixed_failure_name_rejected(self):
        fleet = _small_fleet()
        with pytest.raises(ValueError, match="prefix"):
            fleet.run(_quick_trace(), failures=((5.0, "prompt-0"),))

    def test_static_fleet_machine_hours_match_whole_window(self):
        fleet = _small_fleet()
        result = fleet.run(_quick_trace())
        expected = result.total_machines * result.duration_s / 3600.0
        assert result.machine_hours() == pytest.approx(expected)
        assert result.static_machine_hours() - result.machine_hours() == pytest.approx(0.0)

    def test_per_cluster_results_carry_only_their_requests(self):
        fleet = _small_fleet()
        result = fleet.run(_quick_trace())
        for cluster in result.clusters:
            cluster_result = result.cluster_results[cluster.name]
            assert cluster_result.requests == cluster.requests
            assert cluster_result.trace_name == result.trace_name


class TestFleetProvisioner:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            FleetProvisionerConfig(interval_s=0)
        with pytest.raises(ValueError):
            FleetProvisionerConfig(hysteresis_ticks=0)
        with pytest.raises(ValueError):
            FleetProvisionerConfig(min_active_clusters=0)
        with pytest.raises(ValueError):
            FleetProvisionerConfig(warm_billing_fraction=1.5)

    def test_double_attach_rejected(self):
        provisioner = FleetProvisioner()
        fleet = _small_fleet(provisioner=provisioner)
        fleet.run(_quick_trace(duration=5.0))
        with pytest.raises(RuntimeError, match="attached"):
            provisioner.attach(fleet)

    def test_burst_activates_standby_under_pressure(self):
        preset = get_scenario("diurnal")
        trace = preset.build_trace(seed=0, scale=2.0)
        fleet = FleetSimulation(
            splitwise_hh(3, 2),
            num_clusters=2,
            burst_clusters=1,
            provisioner=FleetProvisionerConfig(),
        )
        result = fleet.run(trace)
        assert result.completion_rate == 1.0
        actions = [e.action for e in result.provisioner.timeline]
        assert "burst-warm" in actions and "activate" in actions
        # The standby served real traffic once active.
        assert len(result.clusters[2].requests) > 0

    def test_drain_then_retire_never_strands_requests(self):
        preset = get_scenario("diurnal")
        trace = preset.build_trace(seed=0, scale=2.0)
        fleet = FleetSimulation(
            splitwise_hh(3, 2),
            num_clusters=2,
            burst_clusters=1,
            provisioner=FleetProvisionerConfig(),
        )
        result = fleet.run(trace)
        timeline = result.provisioner.timeline
        drains = [e for e in timeline if e.action == "drain"]
        retires = [e for e in timeline if e.action == "retire"]
        assert drains, "scenario never drained a cluster"
        # Retire only ever happens after the drain of the same cluster, with
        # zero outstanding requests (census: every request still completed).
        for retire in retires:
            drain_times = [e.time_s for e in drains if e.cluster == retire.cluster]
            assert drain_times and min(drain_times) <= retire.time_s
        assert result.completion_rate == 1.0

    def test_burst_fleet_saves_machine_hours_vs_static(self):
        preset = get_scenario("diurnal")
        trace = preset.build_trace(seed=0, scale=2.0)
        static = FleetSimulation(splitwise_hh(3, 2), num_clusters=3)
        static_result = static.run(trace)
        burst = FleetSimulation(
            splitwise_hh(3, 2), num_clusters=2, burst_clusters=1,
            provisioner=FleetProvisionerConfig(),
        )
        burst_result = burst.run(trace)
        assert burst_result.machine_hours() < static_result.machine_hours()
        assert burst_result.cost() < static_result.cost()

    def test_provisioner_never_drains_a_pinned_cluster(self):
        # Tenant "b" is pinned to cluster-1, which sits idle until b's
        # traffic starts late in the run: the provisioner must not drain it
        # in the meantime (a pinned tenant has nowhere else to go).
        early = _tenant_trace("conversation", 3.0, 60.0, seed=1, tenant="a")
        late = _tenant_trace("coding", 2.0, 20.0, seed=2, tenant="b")
        shifted = tuple(r.replace(arrival_time_s=r.arrival_time_s + 40.0) for r in late)
        trace = mix_traces(early, Trace(requests=shifted, name="late"))
        router = FleetRouter("least-outstanding", tenant_pins={"a": "cluster-0", "b": "cluster-1"})
        fleet = _small_fleet(
            router=router,
            provisioner=FleetProvisionerConfig(low_outstanding_per_cluster=50.0, cooldown_s=1.0),
        )
        result = fleet.run(trace)
        assert result.completion_rate == 1.0
        drained = {e.cluster for e in result.provisioner.timeline if e.action == "drain"}
        assert "cluster-1" not in drained and "cluster-0" not in drained

    def test_empty_trace_with_stacked_controllers_terminates(self):
        # The provisioner and the metrics ticker both tick; neither sees a
        # completion that would stop the other.
        from repro.obs import ObservabilityConfig

        fleet = FleetSimulation(
            splitwise_hh(1, 1),
            num_clusters=2,
            provisioner=FleetProvisionerConfig(),
        )
        fleet.observe(ObservabilityConfig())
        result = fleet.run(Trace(requests=(), name="empty"))
        assert result.requests == []
        assert result.completion_rate == 0.0

    def test_retired_cluster_is_re_rentable_as_cold_capacity(self):
        # Drain-then-retire must not permanently shrink the fleet: once
        # every standby is used up, a retired cluster is cold capacity and
        # can be burst again at cold-start price.
        fleet = FleetSimulation(
            splitwise_hh(1, 1), num_clusters=2, provisioner=FleetProvisionerConfig()
        )
        provisioner = fleet.provisioner
        provisioner.attach(fleet)
        retired = fleet.clusters[1]
        provisioner._transition(retired, ClusterState.DRAINING)
        provisioner.retire_drained()
        assert retired.state is ClusterState.RETIRED and not retired.routable
        assert provisioner._scale_up(reason="test pressure")
        assert retired.state is ClusterState.STARTING
        assert provisioner.timeline[-1].action == "burst-cold"

    def test_billing_fractions_applied_per_state(self):
        config = FleetProvisionerConfig(warm_billing_fraction=0.0)
        fleet = FleetSimulation(
            splitwise_hh(1, 1), num_clusters=1, burst_clusters=1, provisioner=config,
        )
        # Light load: the standby stays warm the whole run and must be free.
        result = fleet.run(_quick_trace(rate=1.0, duration=10.0))
        assert result.clusters[1].state is ClusterState.WARM
        expected_active = result.clusters[0].num_machines * result.duration_s / 3600.0
        assert result.machine_hours() == pytest.approx(expected_active)


class TestWholeClusterLoss:
    """A cluster whose every machine fails serves nobody; its work goes elsewhere or is shed."""

    LOSE_CLUSTER_0 = ((5.0, "cluster-0/prompt-0"), (6.0, "cluster-0/token-0"))

    @staticmethod
    def _census(result):
        return census(result.requests, result.requests_shed, result.requests_expired)

    def test_availability_follows_the_roster_and_the_outage_flag(self):
        cluster = _small_fleet().clusters[0]
        scheduler = cluster.scheduler
        assert cluster.available
        scheduler.fail_machine("cluster-0/prompt-0")
        assert cluster.available  # a live machine can still run both phases
        scheduler.fail_machine("cluster-0/token-0")
        assert not cluster.available
        scheduler.recover_machine("cluster-0/token-0")
        assert cluster.available
        cluster.outage = True
        assert not cluster.available

    def test_lost_cluster_work_reroutes_to_the_survivor(self):
        result = _small_fleet().run(_quick_trace(), failures=self.LOSE_CLUSTER_0)
        lost, survivor = result.clusters
        assert not lost.available and survivor.available
        assert result.completion_rate == 1.0
        assert self._census(result)["completed"] == len(result.requests)
        # Nothing arriving after the loss went to the lost cluster, and the
        # requests its last failure displaced finished on the survivor.
        assert all(r.arrival_time <= 6.0 and r.completion_time <= 6.0 for r in lost.requests)
        displaced = [r for r in survivor.requests if r.restarts]
        assert displaced and all(r.arrival_time <= 6.0 for r in displaced)

    def test_requests_no_cluster_can_take_are_shed(self):
        fleet = _small_fleet(num_clusters=1)
        result = fleet.run(_quick_trace(), failures=self.LOSE_CLUSTER_0)
        counts = self._census(result)
        assert counts["shed"] > 0 and counts["completed"] > 0
        assert counts["completed"] + counts["shed"] == counts["submitted"] == len(result.requests)
        assert all(r.completion_time <= 6.0 for r in result.requests if r.is_complete)

    def test_shed_requests_settle_their_lifecycle(self):
        # With retries and deadlines armed, a request shed for want of a
        # cluster must not also expire when its deadline timer comes due.
        fleet = _small_fleet(num_clusters=1, retry=RetryPolicy(), deadlines=DeadlineConfig(e2e_s=40.0))
        result = fleet.run(_quick_trace(), failures=self.LOSE_CLUSTER_0)
        counts = self._census(result)
        assert counts["shed"] > 0 and counts["expired"] == 0
        assert counts["completed"] + counts["shed"] == counts["submitted"]
        assert result.duration_s < 40.0  # no deadline timer outlived its shed request

    def test_sharded_run_falls_back_when_a_cluster_is_lost(self):
        fleet = _small_fleet(router="weighted-rr", parallel=2)
        result = fleet.run(_quick_trace(), failures=self.LOSE_CLUSTER_0)
        assert fleet.parallel_info["mode"] == "serial"
        assert any("cluster-0" in reason for reason in fleet.parallel_info["reasons"])
        assert result.completion_rate == 1.0


class TestTenantThreading:
    def test_mixed_tenant_preset_tags_both_tenants(self):
        trace = get_scenario("mixed-tenant").build_trace(seed=0, scale=0.5)
        assert trace.tenants() == ("coding", "conversation")

    def test_composition_preserves_tenant_tags(self):
        first = Trace(
            requests=(
                RequestDescriptor(0, 0.0, 10, 5, tenant="a"),
                RequestDescriptor(1, 1.0, 10, 5, tenant="a"),
            ),
            name="a",
        )
        second = Trace(
            requests=(RequestDescriptor(0, 0.5, 20, 8, tenant="b"),), name="b"
        )
        composed = mix_traces(first, second)
        assert sorted({r.tenant for r in composed}) == ["a", "b"]
        # ids renumbered, tenants intact
        assert [r.request_id for r in composed] == list(range(len(composed)))

    def test_trace_csv_round_trip_keeps_tenants(self, tmp_path):
        trace = _tenant_trace("conversation", 4.0, 5.0, seed=0, tenant="gold")
        csv_back = Trace.from_csv(trace.to_csv(tmp_path / "t.csv"))
        assert csv_back.tenants() == ("gold",)

    def test_legacy_csv_without_tenant_column_defaults(self, tmp_path):
        path = tmp_path / "legacy.csv"
        path.write_text(
            "request_id,arrival_time_s,prompt_tokens,output_tokens\n0,0.0,10,5\n"
        )
        trace = Trace.from_csv(path)
        assert trace.tenants() == ("default",)

    def test_scaling_and_truncation_keep_tenants(self):
        trace = _tenant_trace("conversation", 4.0, 10.0, seed=0, tenant="gold")
        assert trace.scaled_to_rate(8.0).tenants() == ("gold",)
        assert trace.truncated(5.0).tenants() == ("gold",)
