"""Sharded fleet execution is bit-identical to the serial engine.

The shard scheduler (:mod:`repro.simulation.sharding`) partitions a
decomposable fleet into per-cluster-group engine shards, hands each shard
its whole routed arrival list, and runs every shard to completion on its
own engine; everything observable about the run must nevertheless match the
serial engine byte for byte.  These tests pin that contract:

* **Worker-count invariance** — serial, ``parallel=1`` (the shards run one
  after another in-process, no OS workers), and ``parallel=2/4`` (real
  ``multiprocessing`` workers) produce identical fingerprints: per-request
  timelines, tenant SLO reports, per-cluster routing counts, and the run
  duration.
* **Cross-shard failure injections** — failures on clusters of different
  shards at the same instants, an outage pair 0.2 s apart on two shards,
  and an injection on the last of four shards neither reorder nor lose
  anything; the census closes exactly.
* **Worker failure** — a shard that raises surfaces as
  :class:`~repro.simulation.sharding.ShardWorkerError` carrying the
  worker's traceback, with every worker joined; in-process, the original
  exception propagates.
* **Coupled-configuration fallback** — fleets whose layers genuinely read
  fleet-wide state (chaos + retries/hedges, the cloud-burst provisioner,
  the observability plane) refuse to shard: ``parallel=N`` falls back to
  the serial engine with the blocking couplings recorded as provenance,
  and the run stays byte-identical to one that never asked for workers.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import splitwise_hh
from repro.experiments.fleet_sweep import fleet_run_summary, prepare_fleet_run
from repro.fleet import FleetSimulation
from repro.models.llm import LLAMA2_70B
from repro.simulation.sharding import ShardSpec, ShardWorkerError, execute_shards
from repro.workload.scenarios import get_scenario

CLUSTERS = 4


def _mixed_trace(seed, scale=0.5):
    return get_scenario("mixed-tenant").build_trace(seed=seed, scale=scale)


def _fleet(parallel=None, clusters=CLUSTERS):
    """A decomposable fleet: static weighted-rr, no coupled layers."""
    return FleetSimulation(
        splitwise_hh(2, 1),
        num_clusters=clusters,
        router="weighted-rr",
        parallel=parallel,
    )


def _fingerprint(result):
    """Canonical serialization of everything a fleet run reports."""
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
    # fleet_run_summary embeds the tenant SLO report, per-cluster routing
    # counts, machine-hours, and (when present) provisioner/fault/lifecycle
    # snapshots — the same surface the CLI serializes.
    summary = fleet_run_summary(result)
    return json.dumps(
        {"requests": per_request, "summary": summary, "duration": result.duration_s},
        sort_keys=True,
        default=str,
    )


def _assert_census_closed(result, trace):
    """completed + shed + expired == submitted, with no duplicates.

    Shed/expired requests never reach (or are withdrawn from) a cluster, so
    the routed population must equal exactly the served one.
    """
    assert (
        len(result.completed_requests) + result.requests_shed + result.requests_expired
        == len(trace)
    )
    served = [r for r in result.requests if not r.shed and not r.expired]
    routed_ids = sorted(r.request_id for c in result.clusters for r in c.requests)
    assert routed_ids == sorted(r.request_id for r in served)


class TestWorkerCountInvariance:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None)
    def test_bit_parity_across_worker_counts(self, seed):
        trace = _mixed_trace(seed)
        serial = _fleet().run(trace)
        reference = _fingerprint(serial)
        _assert_census_closed(serial, trace)
        for workers in (1, 2, 4):
            fleet = _fleet(parallel=workers)
            result = fleet.run(trace)
            assert _fingerprint(result) == reference, f"parallel={workers} diverged"
            info = fleet.parallel_info
            assert info is not None and info["mode"] == "parallel"
            assert info["shards"] == min(workers, CLUSTERS)
            # N=1 runs the shards in-process — no workers.
            assert info["workers"] == (0 if workers == 1 else min(workers, CLUSTERS))
            assert info["epochs"] == 1
            _assert_census_closed(result, trace)

    def test_parallel_info_is_deterministic_provenance(self):
        """The recorded provenance carries no wall times and no host state."""
        trace = _mixed_trace(3)
        first = _fleet(parallel=2)
        first.run(trace)
        second = _fleet(parallel=2)
        second.run(trace)
        assert first.parallel_info == second.parallel_info


class TestShardBoundaryEdgeCases:
    # Round-robin assignment over 4 clusters and 2 shards puts cluster-0/2
    # on shard 0 and cluster-1/3 on shard 1 — the pairs below always span
    # two engines.

    @pytest.mark.parametrize("seed", [1, 13])
    def test_failures_on_different_shards_same_instants(self, seed):
        # Fixed seeds chosen so the injections actually catch requests in
        # flight (restarts > 0) — the parity claim must not be vacuous.
        trace = _mixed_trace(seed, scale=1.0)
        failures = tuple(
            (time_s, f"cluster-{c}/prompt-0")
            for time_s in (5.0, 12.0, 20.0, 40.0)
            for c in (0, 1)
        )
        serial = _fleet().run(trace, failures=failures)
        result = _fleet(parallel=2).run(trace, failures=failures)
        assert _fingerprint(result) == _fingerprint(serial)
        _assert_census_closed(result, trace)
        assert any(r.restarts > 0 for r in result.requests)

    def test_outage_pair_across_two_shards(self):
        """Failures at 4.9s and 5.1s land on clusters of different shards."""
        trace = _mixed_trace(11)
        failures = (
            (4.9, "cluster-0/prompt-0"),
            (5.1, "cluster-1/prompt-0"),
        )
        serial = _fleet().run(trace, failures=failures)
        result = _fleet(parallel=2).run(trace, failures=failures)
        assert _fingerprint(result) == _fingerprint(serial)
        _assert_census_closed(result, trace)

    def test_failure_on_last_of_four_shards(self):
        """An injection on a one-cluster shard fires once, on its shard."""
        trace = _mixed_trace(13)
        failures = ((10.0, "cluster-3/token-0"),)
        serial = _fleet().run(trace, failures=failures)
        result = _fleet(parallel=4).run(trace, failures=failures)
        assert _fingerprint(result) == _fingerprint(serial)
        _assert_census_closed(result, trace)


def _spec(shard_id, **cluster_kwargs):
    return ShardSpec(
        shard_id=shard_id,
        cluster_names=(f"cluster-{shard_id}",),
        design=splitwise_hh(2, 1),
        model=LLAMA2_70B,
        cluster_kwargs=tuple(cluster_kwargs.items()),
        failures=(),
        sanitize=False,
    )


class TestShardWorkerFailure:
    # Shard 0 passes an option ClusterSimulation does not take, so building
    # its clusters raises TypeError; shard 1 is healthy.

    def test_worker_error_carries_traceback_and_joins_every_worker(self):
        specs = [_spec(0, no_such_option=1), _spec(1)]
        with pytest.raises(ShardWorkerError) as raised:
            execute_shards(specs, [[], []], use_processes=True)
        message = str(raised.value)
        assert "TypeError" in message and "no_such_option" in message
        assert multiprocessing.active_children() == []

    def test_in_process_error_propagates_unwrapped(self):
        specs = [_spec(0, no_such_option=1), _spec(1)]
        with pytest.raises(TypeError, match="no_such_option"):
            execute_shards(specs, [[], []], use_processes=False)


class TestCoupledConfigurationFallback:
    def _storm_pair(self, parallel, **overrides):
        """The same failure-storm fleet run twice: serial vs parallel-requested."""
        results = []
        fleets = []
        for requested in (None, parallel):
            fleet, trace, failures = prepare_fleet_run(
                get_scenario("failure-storm"),
                clusters=2,
                burst_clusters=1,
                seed=5,
                scale=0.2,
                chaos="failure-storm",
                parallel=requested,
                **overrides,
            )
            results.append(fleet.run(trace, failures=failures))
            fleets.append(fleet)
        return fleets, results, trace

    def test_chaos_with_retries_and_hedges_falls_back_bit_identical(self):
        """Cross-shard retry/hedge coupling: the lifecycle layer re-routes
        attempts across clusters, so the run must refuse to shard — and the
        fallback must be byte-identical to a run that never asked."""
        (plain, requested), (serial, parallel), trace = self._storm_pair(
            parallel=4, retry_override=2, hedge_override=True
        )
        assert _fingerprint(parallel) == _fingerprint(serial)
        _assert_census_closed(parallel, trace)
        assert plain.parallel_info is None
        info = requested.parallel_info
        assert info == {
            "requested": 4,
            "mode": "serial",
            "workers": 0,
            "shards": 1,
            "reasons": info["reasons"],
        }
        reasons = " ".join(info["reasons"])
        assert "lifecycle" in reasons
        assert "fault plane" in reasons

    def test_cloud_burst_provisioner_falls_back_bit_identical(self):
        """A cloud-burst activating a standby mid-run reacts to fleet-wide
        pressure — undecomposable; the provisioner timeline must match the
        serial run exactly (it is part of the fingerprint's summary)."""
        results = []
        fleets = []
        for requested in (None, 4):
            fleet, trace, failures = prepare_fleet_run(
                get_scenario("mixed-tenant"),
                clusters=2,
                burst_clusters=1,
                seed=9,
                scale=0.5,
                chaos="none",
                burst=True,
                parallel=requested,
            )
            results.append(fleet.run(trace, failures=failures))
            fleets.append(fleet)
        serial, parallel = results
        assert _fingerprint(parallel) == _fingerprint(serial)
        _assert_census_closed(parallel, trace)
        assert parallel.provisioner is not None
        reasons = " ".join(fleets[1].parallel_info["reasons"])
        assert "provisioner" in reasons

    def test_observed_run_falls_back_with_identical_span_census(self):
        from repro.obs import ObservabilityConfig

        trace = _mixed_trace(4)
        observed = _fleet()
        plain_plane = observed.observe(ObservabilityConfig(interval_s=0.5))
        plain_result = observed.run(trace)

        requested = _fleet(parallel=2)
        parallel_plane = requested.observe(ObservabilityConfig(interval_s=0.5))
        parallel_result = requested.run(trace)

        assert _fingerprint(parallel_result) == _fingerprint(plain_result)
        reasons = " ".join(requested.parallel_info["reasons"])
        assert "observability" in reasons
        assert parallel_plane.census() == plain_plane.census()
        assert sum(parallel_plane.census().values()) == len(parallel_result.requests)

    def test_single_cluster_fleet_falls_back(self):
        trace = _mixed_trace(2, scale=0.3)
        fleet = _fleet(parallel=2, clusters=1)
        fleet.run(trace)
        reasons = " ".join(fleet.parallel_info["reasons"])
        assert "fewer than two clusters" in reasons

    def test_feedback_router_policy_falls_back(self):
        trace = _mixed_trace(2, scale=0.3)
        fleet = FleetSimulation(
            splitwise_hh(2, 1), num_clusters=2, router="slo-feedback", parallel=2
        )
        serial = FleetSimulation(splitwise_hh(2, 1), num_clusters=2, router="slo-feedback")
        assert _fingerprint(fleet.run(trace)) == _fingerprint(serial.run(trace))
        reasons = " ".join(fleet.parallel_info["reasons"])
        assert "slo-feedback" in reasons
