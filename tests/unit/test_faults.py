"""Unit tests for the fault-injection plane: plan, injector, presets."""

from __future__ import annotations

import pytest

from repro.core.designs import splitwise_hh
from repro.faults import (
    CHAOS_PRESETS,
    FaultInjector,
    FaultPlanConfig,
    FaultTopology,
    Injection,
    compile_fault_plan,
    get_chaos_preset,
    plan_counts,
)
from repro.fleet import FleetSimulation

TOPOLOGY = FaultTopology(
    machines={
        "cluster-0": ("cluster-0/prompt-0", "cluster-0/token-0"),
        "cluster-1": ("cluster-1/prompt-0", "cluster-1/token-0"),
        "cluster-2": ("cluster-2/prompt-0", "cluster-2/token-0"),
    },
    burst_clusters=("cluster-2",),
)

FULL_CONFIG = FaultPlanConfig(
    seed=7,
    machine_mtbf_s=30.0,
    machine_mttr_s=5.0,
    outage_interval_s=60.0,
    outage_duration_s=8.0,
    straggler_interval_s=90.0,
    straggler_duration_s=20.0,
    straggler_slowdown=1.5,
    kv_degradation_interval_s=45.0,
    kv_degradation_duration_s=10.0,
    kv_degradation_factor=2.0,
    revocation_mtbf_s=40.0,
)


class TestInjection:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Injection(time_s=1.0, kind="meteor-strike", target="cluster-0")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            Injection(time_s=-1.0, kind="machine-fail", target="m")


class TestFaultPlanConfig:
    def test_disabled_by_default(self):
        assert not FaultPlanConfig().enabled

    def test_enabled_by_any_process(self):
        assert FaultPlanConfig(machine_mtbf_s=10.0).enabled
        assert FaultPlanConfig(outage_interval_s=10.0).enabled
        assert FaultPlanConfig(straggler_interval_s=10.0).enabled
        assert FaultPlanConfig(kv_degradation_interval_s=10.0).enabled
        assert FaultPlanConfig(revocation_mtbf_s=10.0).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"machine_mtbf_s": 0.0},
            {"machine_mtbf_s": 10.0, "machine_mttr_s": -1.0},
            {"outage_interval_s": 10.0, "outage_duration_s": 0.0},
            {"straggler_interval_s": 10.0, "straggler_slowdown": 1.0},
            {"kv_degradation_interval_s": 10.0, "kv_degradation_factor": 0.5},
            {"revocation_mtbf_s": -3.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlanConfig(**kwargs)


class TestCompileFaultPlan:
    def test_same_seed_same_plan(self):
        first = compile_fault_plan(FULL_CONFIG, TOPOLOGY, duration_s=120.0)
        second = compile_fault_plan(FULL_CONFIG, TOPOLOGY, duration_s=120.0)
        assert first == second

    def test_different_seed_different_plan(self):
        import dataclasses

        other = dataclasses.replace(FULL_CONFIG, seed=8)
        assert compile_fault_plan(FULL_CONFIG, TOPOLOGY, 120.0) != compile_fault_plan(
            other, TOPOLOGY, 120.0
        )

    def test_plan_is_time_sorted_and_onsets_bounded(self):
        plan = compile_fault_plan(FULL_CONFIG, TOPOLOGY, duration_s=120.0)
        assert plan
        times = [injection.time_s for injection in plan]
        assert times == sorted(times)
        # Onsets stay inside the horizon; paired end events may land past
        # it (they fire during drain).
        onset_kinds = {
            "machine-fail", "outage-start", "straggler-start", "kv-degrade-start", "revoke"
        }
        assert all(
            0.0 <= inj.time_s < 120.0 for inj in plan if inj.kind in onset_kinds
        )

    def test_every_process_represented(self):
        counts = plan_counts(compile_fault_plan(FULL_CONFIG, TOPOLOGY, duration_s=600.0))
        for kind in (
            "machine-fail", "machine-recover", "outage-start", "outage-end",
            "straggler-start", "straggler-end", "kv-degrade-start", "kv-degrade-end",
            "revoke",
        ):
            assert counts.get(kind, 0) > 0, kind

    def test_fail_recover_alternate_per_machine(self):
        plan = compile_fault_plan(
            FaultPlanConfig(seed=3, machine_mtbf_s=20.0, machine_mttr_s=4.0),
            TOPOLOGY,
            duration_s=300.0,
        )
        for machine in TOPOLOGY.machines["cluster-0"]:
            events = [inj.kind for inj in plan if inj.target == machine]
            for index, kind in enumerate(events):
                expected = "machine-fail" if index % 2 == 0 else "machine-recover"
                assert kind == expected

    def test_revocation_only_targets_burst_clusters(self):
        plan = compile_fault_plan(FULL_CONFIG, TOPOLOGY, duration_s=600.0)
        revoked = {inj.target for inj in plan if inj.kind == "revoke"}
        assert revoked == {"cluster-2"}

    def test_disabled_config_compiles_empty(self):
        assert compile_fault_plan(FaultPlanConfig(), TOPOLOGY, 120.0) == ()

    def test_zero_duration_compiles_empty(self):
        assert compile_fault_plan(FULL_CONFIG, TOPOLOGY, 0.0) == ()


class TestChaosPresets:
    def test_known_presets_resolve(self):
        for name in CHAOS_PRESETS:
            preset = get_chaos_preset(name)
            assert preset.name == name
            assert preset.faults.enabled

    def test_unknown_preset_lists_known(self):
        with pytest.raises(KeyError, match="failure-storm"):
            get_chaos_preset("zombie-apocalypse")

    def test_failure_storm_arms_everything(self):
        storm = get_chaos_preset("failure-storm")
        faults = storm.faults
        assert faults.machine_mtbf_s and faults.outage_interval_s
        assert faults.straggler_interval_s and faults.kv_degradation_interval_s
        assert faults.revocation_mtbf_s
        assert storm.reliability is not None
        assert storm.admission is not None


class TestInjectorGuards:
    """Fire-time guards of the injector, driven one injection at a time."""

    @staticmethod
    def _armed(design):
        fleet = FleetSimulation(splitwise_hh(*design), num_clusters=1)
        injector = FaultInjector(fleet, FaultPlanConfig())
        injector.arm(0.0)
        return fleet.clusters[0].scheduler, injector

    def test_machine_fail_spares_the_last_live_machine(self):
        scheduler, injector = self._armed((1, 2))
        for name in ("token-0", "token-1", "prompt-0"):
            injector._fire(Injection(0.0, "machine-fail", f"cluster-0/{name}"))
        assert [machine.name for machine in scheduler.failed_machines] == [
            "cluster-0/token-0", "cluster-0/token-1",
        ]
        assert not scheduler.find_machine("cluster-0/prompt-0").failed
        assert injector.fired == {"machine-fail": 2}
        assert injector.skipped == {"machine-fail": 1}

    def test_machine_recover_skips_a_live_machine(self):
        scheduler, injector = self._armed((1, 1))
        injector._fire(Injection(0.0, "machine-recover", "cluster-0/token-0"))
        injector._fire(Injection(0.0, "machine-fail", "cluster-0/token-0"))
        injector._fire(Injection(0.0, "machine-fail", "cluster-0/token-0"))
        injector._fire(Injection(0.0, "machine-recover", "cluster-0/token-0"))
        assert scheduler.failed_machines == ()
        assert [machine.name for machine in scheduler.token_pool] == ["cluster-0/token-0"]
        assert injector.fired == {"machine-fail": 1, "machine-recover": 1}
        assert injector.skipped == {"machine-fail": 1, "machine-recover": 1}
