"""Token-recording parity across execution regimes.

Every stepping path records token times on the request itself (see
``docs/telemetry.md``), and results must not depend on which path ran:
per-request token times, completion metadata, SLO reports, and per-machine
stats are bit-identical whether the simulator coalesces decode runs
(``fast_forward=True``, the macro-event + rotation regimes) or steps every
iteration exactly (``fast_forward=False``).  Since the per-iteration path
records through different code than the coalesced paths, this parity pins
the recording itself, not just the scheduling.

The edge cases covered are zero-decode (prompt-only) requests, single-token
decodes, restart-after-preemption (``Request.reset_for_restart`` via machine
failures), and mixed prompt+token rotation iterations; one more test checks
each pool member's generated count against its token series after every
event.
"""

from __future__ import annotations

import math

import pytest

from repro.core.cluster import ClusterSimulation
from repro.core.designs import baseline_h100, splitwise_hh
from repro.experiments.fleet_sweep import prepare_fleet_run
from repro.experiments.scenarios import prepare_scenario_run
from repro.simulation.events import ARRIVAL_EVENT_PRIORITY
from repro.simulation.request import Request
from repro.workload.generator import generate_trace
from repro.workload.scenarios import get_scenario
from repro.workload.trace import RequestDescriptor, Trace


def _assert_requests_identical(reference, columnar):
    assert len(reference) == len(columnar)
    for ref, col in zip(reference, columnar):
        assert ref.request_id == col.request_id
        assert ref.generated_tokens == col.generated_tokens
        assert list(ref.token_times) == list(col.token_times)
        assert ref.token_intervals_np.tolist() == col.token_intervals_np.tolist()
        assert ref.first_token_time == col.first_token_time
        assert ref.completion_time == col.completion_time
        assert ref.phase is col.phase
        assert ref.priority_boost == col.priority_boost
        assert ref.restarts == col.restarts


def _assert_machine_stats_identical(ref_metrics, col_metrics):
    assert list(ref_metrics.export_machine_stats()) == list(col_metrics.export_machine_stats())
    for name in ref_metrics.export_machine_stats():
        ref = ref_metrics.machine_stats(name)
        col = col_metrics.machine_stats(name)
        assert ref.iterations == col.iterations
        assert ref.busy_time_s == col.busy_time_s
        assert ref.energy_wh == col.energy_wh
        assert ref.prompt_tokens_processed == col.prompt_tokens_processed
        assert ref.tokens_generated == col.tokens_generated
        assert ref.occupancy.as_mapping() == col.occupancy.as_mapping()


def _assert_slo_reports_identical(ref_report, col_report):
    assert ref_report.samples == col_report.samples
    assert ref_report.limits == col_report.limits
    for key, value in ref_report.slowdowns.items():
        other = col_report.slowdowns[key]
        assert (math.isnan(value) and math.isnan(other)) or value == other
    assert ref_report.satisfied == col_report.satisfied


def _run_cluster_pair(design, trace, failures=()):
    """Run the trace per-iteration (reference) and coalesced (fast-forward + rotation)."""
    results = []
    for fast_forward in (False, True):
        simulation = ClusterSimulation(design, fast_forward=fast_forward)
        results.append((simulation, simulation.run(trace, failures=failures)))
    return results


def _assert_cluster_parity(design, trace, failures=()):
    (ref_sim, ref), (col_sim, col) = _run_cluster_pair(design, trace, failures=failures)
    assert ref.duration_s == col.duration_s
    _assert_requests_identical(ref.requests, col.requests)
    _assert_machine_stats_identical(ref_sim.metrics, col_sim.metrics)
    _assert_slo_reports_identical(ref.slo_report(), col.slo_report())


class TestEdgeCaseParity:
    def test_zero_decode_prompt_only_requests(self):
        """output_tokens == 1: the single token comes from the prompt phase."""
        descriptors = tuple(
            RequestDescriptor(
                request_id=i, arrival_time_s=0.05 * i, prompt_tokens=64 + 16 * (i % 5), output_tokens=1
            )
            for i in range(40)
        )
        trace = Trace(requests=descriptors, name="prompt-only")
        _assert_cluster_parity(splitwise_hh(1, 1), trace)

    def test_single_token_decodes(self):
        """output_tokens == 2: exactly one decode service per request."""
        descriptors = tuple(
            RequestDescriptor(
                request_id=i, arrival_time_s=0.02 * i, prompt_tokens=48, output_tokens=2
            )
            for i in range(120)
        )
        trace = Trace(requests=descriptors, name="single-token")
        _assert_cluster_parity(splitwise_hh(1, 1), trace)

    def test_restart_after_failure_resets_recording(self):
        """Failed machines restart their requests from scratch (reset_for_restart)."""
        trace = generate_trace("conversation", rate_rps=20.0, duration_s=25.0, seed=404)
        failures = [(4.0, "prompt-0"), (8.5, "token-1")]
        (ref_sim, ref), (col_sim, col) = _run_cluster_pair(
            splitwise_hh(2, 2), trace, failures=failures
        )
        assert any(r.restarts for r in ref.requests), "failures should restart work"
        _assert_requests_identical(ref.requests, col.requests)
        _assert_machine_stats_identical(ref_sim.metrics, col_sim.metrics)

    def test_mixed_prompt_and_token_rotation_iterations(self):
        """Saturated mixed machines rotate with prompts sharing iterations."""
        trace = generate_trace("conversation", rate_rps=30.0, duration_s=25.0, seed=77)
        (ref_sim, ref), (col_sim, col) = _run_cluster_pair(baseline_h100(2), trace)
        # fast_forward=False disables the rotation engine entirely; the
        # coalescing pass must actually engage it here.
        assert any(m.rotation_runs for m in col_sim.machines), (
            "the trace must actually drive the rotation engine"
        )
        _assert_requests_identical(ref.requests, col.requests)
        _assert_machine_stats_identical(ref_sim.metrics, col_sim.metrics)

    def test_oversubscribed_split_cluster_rotation(self):
        """Burst load drives token machines through the rotation + ff regimes."""
        trace = generate_trace("conversation", rate_rps=50.0, duration_s=30.0, seed=11)
        _assert_cluster_parity(splitwise_hh(2, 2), trace)


class TestRecordingIsImmediate:
    def test_counters_match_token_series_at_every_event(self):
        """No stepping path lets ``generated_tokens`` lag the token series.

        Drives the rotating trace of
        ``test_mixed_prompt_and_token_rotation_iterations`` one event at a
        time and, after every event, reads each pool member's counter before
        its token series.
        """
        simulation = ClusterSimulation(baseline_h100(2))
        trace = generate_trace("conversation", rate_rps=30.0, duration_s=25.0, seed=77)
        simulation.prepare()
        engine = simulation.engine
        for descriptor in trace:
            request = Request(descriptor=descriptor)
            engine.schedule_at(
                request.arrival_time,
                lambda r=request: simulation.scheduler.submit(r),
                priority=ARRIVAL_EVENT_PRIORITY,
            )
        reads = 0
        while engine.step():
            for machine in simulation.machines:
                for request in machine.token_pool:
                    generated = request.generated_tokens
                    assert generated == len(request.token_times), (
                        f"t={engine.now}: request {request.request_id} on {machine.name} "
                        f"counts {generated} tokens but recorded {len(request.token_times)}"
                    )
                    reads += 1
        assert reads
        assert any(m.rotation_runs for m in simulation.machines), (
            "the trace must actually drive the rotation engine"
        )


class TestScenarioParity:
    def test_diurnal_autoscale_scenario(self):
        preset = get_scenario("diurnal")
        runs = []
        for fast_forward in (False, True):
            simulation, trace, failures = prepare_scenario_run(
                preset,
                seed=14,
                scale=1.0,
                autoscaled=True,
                fast_forward=fast_forward,
            )
            runs.append((simulation, simulation.run(trace, failures=failures)))
        (ref_sim, ref), (col_sim, col) = runs
        assert ref.duration_s == col.duration_s
        _assert_requests_identical(ref.requests, col.requests)
        _assert_machine_stats_identical(ref_sim.metrics, col_sim.metrics)
        _assert_slo_reports_identical(ref.slo_report(), col.slo_report())
        assert ref.machine_hours() == col.machine_hours()

    def test_fleet_burst_scenario(self):
        preset = get_scenario("mixed-tenant")
        runs = []
        for fast_forward in (False, True):
            fleet, trace, failures = prepare_fleet_run(
                preset,
                clusters=2,
                burst_clusters=1,
                seed=15,
                scale=1.0,
                policy="slo-feedback",
                burst=True,
                fast_forward=fast_forward,
            )
            runs.append(fleet.run(trace, failures=failures))
        ref, col = runs
        assert ref.duration_s == col.duration_s
        _assert_requests_identical(ref.requests, col.requests)
        ref_report = ref.tenant_slo_report()
        col_report = col.tenant_slo_report()
        assert sorted(ref_report.tenants) == sorted(col_report.tenants)
        for tenant in ref_report.tenants:
            _assert_slo_reports_identical(ref_report.tenants[tenant], col_report.tenants[tenant])
        _assert_slo_reports_identical(ref_report.fleet, col_report.fleet)
        assert ref.machine_hours() == col.machine_hours()
        assert ref.requests_by_cluster() == col.requests_by_cluster()
