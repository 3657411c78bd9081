"""Unit tests for workload distributions, arrivals, traces and generation (Fig. 3)."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.workload.arrival import PoissonArrivalProcess, homogeneous_poisson_times
from repro.workload.distributions import (
    CODING_WORKLOAD,
    CONVERSATION_WORKLOAD,
    LogNormalTokenDistribution,
    MixtureTokenDistribution,
    get_workload,
)
from repro.workload.generator import TraceGenerator, generate_trace
from repro.workload.scenarios import mix_traces
from repro.workload.trace import RequestDescriptor, Trace


class TestLogNormalDistribution:
    def test_samples_respect_clipping(self, rng):
        dist = LogNormalTokenDistribution(median_tokens=100, sigma=1.0, min_tokens=10, max_tokens=500)
        samples = dist.sample(rng, 5000)
        assert samples.min() >= 10
        assert samples.max() <= 500

    def test_sample_median_near_configured_median(self, rng):
        dist = LogNormalTokenDistribution(median_tokens=1500, sigma=0.6, min_tokens=1, max_tokens=100000)
        samples = dist.sample(rng, 20000)
        assert np.median(samples) == pytest.approx(1500, rel=0.05)

    def test_zero_size_sample(self, rng):
        dist = LogNormalTokenDistribution(median_tokens=10, sigma=0.5)
        assert dist.sample(rng, 0).size == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LogNormalTokenDistribution(median_tokens=0, sigma=1)
        with pytest.raises(ValueError):
            LogNormalTokenDistribution(median_tokens=10, sigma=0)
        with pytest.raises(ValueError):
            LogNormalTokenDistribution(median_tokens=10, sigma=1, min_tokens=0)
        with pytest.raises(ValueError):
            LogNormalTokenDistribution(median_tokens=10, sigma=1, min_tokens=10, max_tokens=5)

    def test_samples_are_integer_token_counts(self, rng):
        dist = LogNormalTokenDistribution(median_tokens=37, sigma=0.8, max_tokens=400)
        samples = dist.sample(rng, 200)
        assert samples.dtype.kind == "i"
        assert samples.shape == (200,)


class TestMixtureDistribution:
    def test_weights_must_sum_to_one(self):
        component = LogNormalTokenDistribution(median_tokens=10, sigma=0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureTokenDistribution(components=(component, component), weights=(0.5, 0.6))

    def test_component_and_weight_lengths_must_match(self):
        component = LogNormalTokenDistribution(median_tokens=10, sigma=0.5)
        with pytest.raises(ValueError):
            MixtureTokenDistribution(components=(component,), weights=(0.5, 0.5))

    def test_samples_come_from_both_modes(self, rng):
        low = LogNormalTokenDistribution(median_tokens=10, sigma=0.2, max_tokens=50)
        high = LogNormalTokenDistribution(median_tokens=1000, sigma=0.2, min_tokens=500, max_tokens=2000)
        mixture = MixtureTokenDistribution(components=(low, high), weights=(0.5, 0.5))
        samples = mixture.sample(rng, 4000)
        assert (samples <= 50).sum() > 1000
        assert (samples >= 500).sum() > 1000

    def test_weights_set_each_mode_share(self, rng):
        low = LogNormalTokenDistribution(median_tokens=10, sigma=0.2, max_tokens=50)
        high = LogNormalTokenDistribution(median_tokens=1000, sigma=0.2, min_tokens=500, max_tokens=2000)
        samples = MixtureTokenDistribution(components=(low, high), weights=(0.8, 0.2)).sample(rng, 10000)
        assert (samples <= 50).mean() == pytest.approx(0.8, abs=0.02)
        assert (samples >= 500).mean() == pytest.approx(0.2, abs=0.02)

    def test_zero_weight_component_is_never_drawn(self, rng):
        low = LogNormalTokenDistribution(median_tokens=10, sigma=0.2, max_tokens=50)
        high = LogNormalTokenDistribution(median_tokens=1000, sigma=0.2, min_tokens=500, max_tokens=2000)
        samples = MixtureTokenDistribution(components=(low, high), weights=(1.0, 0.0)).sample(rng, 2000)
        assert samples.max() <= 50

    def test_negative_weight_rejected(self):
        component = LogNormalTokenDistribution(median_tokens=10, sigma=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            MixtureTokenDistribution(components=(component, component), weights=(1.5, -0.5))


class TestWorkloadSpecs:
    def test_coding_prompt_median_about_1500(self, rng):
        samples = CODING_WORKLOAD.prompt_tokens.sample(rng, 20000)
        assert np.median(samples) == pytest.approx(1500, rel=0.08)

    def test_coding_output_median_about_13(self, rng):
        samples = CODING_WORKLOAD.output_tokens.sample(rng, 20000)
        assert 10 <= np.median(samples) <= 17

    def test_conversation_prompt_median_about_1020(self, rng):
        samples = CONVERSATION_WORKLOAD.prompt_tokens.sample(rng, 20000)
        assert np.median(samples) == pytest.approx(1020, rel=0.10)

    def test_conversation_output_is_bimodal_wide(self, rng):
        samples = CONVERSATION_WORKLOAD.output_tokens.sample(rng, 20000)
        assert np.percentile(samples, 25) < 60
        assert np.percentile(samples, 75) > 200

    def test_coding_outputs_much_shorter_than_conversation(self, rng):
        coding = CODING_WORKLOAD.output_tokens.sample(rng, 10000).mean()
        conversation = CONVERSATION_WORKLOAD.output_tokens.sample(rng, 10000).mean()
        assert conversation > 5 * coding

    def test_registry(self):
        assert get_workload("CODING") is CODING_WORKLOAD
        assert get_workload("conversation") is CONVERSATION_WORKLOAD
        with pytest.raises(KeyError):
            get_workload("search")


class TestArrivalProcesses:
    def test_poisson_rate_approximately_respected(self, rng):
        process = PoissonArrivalProcess(rate_rps=10.0)
        times = process.arrival_times(rng, 200.0)
        assert len(times) == pytest.approx(2000, rel=0.10)
        assert np.all(np.diff(times) >= 0)
        assert times.max() < 200.0

    def test_poisson_requires_positive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(rate_rps=0)

    def test_poisson_zero_duration(self, rng):
        assert PoissonArrivalProcess(rate_rps=5).arrival_times(rng, 0.0).size == 0

    def test_poisson_negative_duration_rejected(self, rng):
        with pytest.raises(ValueError, match="duration_s"):
            PoissonArrivalProcess(rate_rps=5).arrival_times(rng, -1.0)

    @pytest.mark.parametrize("rate_rps, duration_s", [(0.0, 10.0), (5.0, 0.0)])
    def test_empty_window_draws_no_randomness(self, rate_rps, duration_s):
        # Piecewise schedules rely on this: a silent segment must not shift
        # the arrivals drawn after it from the same generator.
        rng = np.random.default_rng(7)
        assert homogeneous_poisson_times(rng, rate_rps, duration_s).size == 0
        assert rng.random() == np.random.default_rng(7).random()


@dataclasses.dataclass(frozen=True)
class _DataclassDescriptor:
    """The descriptor's former frozen-dataclass shape: the reference for eq and hash."""

    request_id: int
    arrival_time_s: float
    prompt_tokens: int
    output_tokens: int
    tenant: str = "default"
    ttft_deadline_s: float | None = None
    e2e_deadline_s: float | None = None


_FULL = dict(request_id=3, arrival_time_s=1.25, prompt_tokens=512, output_tokens=40, tenant="coding",
             ttft_deadline_s=2.0, e2e_deadline_s=30.0)


def _metadata(request):
    """Every descriptor field but the id and the arrival time."""
    return (request.prompt_tokens, request.output_tokens, request.tenant, request.ttft_deadline_s,
            request.e2e_deadline_s)


class TestRequestDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            RequestDescriptor(request_id=0, arrival_time_s=-1, prompt_tokens=1, output_tokens=1)
        with pytest.raises(ValueError):
            RequestDescriptor(request_id=0, arrival_time_s=0, prompt_tokens=0, output_tokens=1)
        with pytest.raises(ValueError):
            RequestDescriptor(request_id=0, arrival_time_s=0, prompt_tokens=1, output_tokens=0)

    @pytest.mark.parametrize("change, message", [
        ({"arrival_time_s": -0.5}, "arrival_time_s must be non-negative, got -0.5"),
        ({"prompt_tokens": 0}, "prompt_tokens must be >= 1, got 0"),
        ({"output_tokens": -2}, "output_tokens must be >= 1, got -2"),
        ({"tenant": ""}, "tenant must be a non-empty string"),
        ({"ttft_deadline_s": 0.0}, "ttft_deadline_s must be > 0, got 0.0"),
        ({"e2e_deadline_s": -1.0}, "e2e_deadline_s must be > 0, got -1.0"),
    ])
    def test_each_check_keeps_its_message(self, change, message):
        with pytest.raises(ValueError) as raised:
            RequestDescriptor(**{**_FULL, **change})
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            RequestDescriptor(**_FULL).replace(**change)
        assert str(raised.value) == message

    def test_positional_and_keyword_construction_agree(self):
        assert RequestDescriptor(*_FULL.values()) == RequestDescriptor(**_FULL)
        short = RequestDescriptor(0, 0.0, 8, 4)
        assert (short.tenant, short.ttft_deadline_s, short.e2e_deadline_s) == ("default", None, None)

    @pytest.mark.parametrize("change", [{}, {"tenant": "default", "ttft_deadline_s": None}, {"request_id": 4},
                                        {"arrival_time_s": 1.5}, {"e2e_deadline_s": None}])
    def test_equality_and_hash_match_the_dataclass(self, change):
        fields = {**_FULL, **change}
        descriptor, reference = RequestDescriptor(**fields), _DataclassDescriptor(**fields)
        assert hash(descriptor) == hash(reference)
        assert (descriptor == RequestDescriptor(**_FULL)) == (reference == _DataclassDescriptor(**_FULL))
        assert descriptor == RequestDescriptor(**fields) and not descriptor != RequestDescriptor(**fields)
        assert len({descriptor, RequestDescriptor(**fields)}) == 1
        assert descriptor != reference and descriptor != tuple(fields.values())

    def test_pickle_round_trip(self):
        descriptor = RequestDescriptor(**_FULL)
        restored = pickle.loads(pickle.dumps(descriptor))
        assert restored == descriptor and hash(restored) == hash(descriptor)
        assert restored is not descriptor and type(restored) is RequestDescriptor

    def test_replace_changes_only_the_named_fields(self):
        descriptor = RequestDescriptor(**_FULL)
        moved = descriptor.replace(request_id=9, arrival_time_s=4.0)
        assert (moved.request_id, moved.arrival_time_s) == (9, 4.0)
        assert _metadata(moved) == _metadata(descriptor)
        assert descriptor == RequestDescriptor(**_FULL)  # the original is untouched
        with pytest.raises(TypeError):
            descriptor.replace(priority=1)

    def test_repr_names_every_field(self):
        assert repr(RequestDescriptor(**_FULL)) == repr(_DataclassDescriptor(**_FULL)).replace(
            "_DataclassDescriptor", "RequestDescriptor"
        )

    def test_mix_and_rescale_keep_tenant_and_deadlines(self):
        first = Trace(requests=(RequestDescriptor(**_FULL), RequestDescriptor(7, 3.0, 64, 8)), name="a")
        second = Trace(requests=(RequestDescriptor(0, 2.0, 32, 4, "chat", None, 12.0),), name="b")
        mixed = mix_traces(first, second)
        assert [r.request_id for r in mixed] == [0, 1, 2]
        assert [_metadata(r) for r in mixed] == [_metadata(r) for r in (first.requests[0], second.requests[0],
                                                                        first.requests[1])]
        scaled = mixed.scaled_to_rate(2 * mixed.request_rate_rps)
        assert [r.arrival_time_s for r in scaled] == [r.arrival_time_s / 2 for r in mixed]
        assert [(r.request_id, _metadata(r)) for r in scaled] == [(r.request_id, _metadata(r)) for r in mixed]


class TestTrace:
    def test_from_records_sorted_and_indexed(self):
        trace = Trace.from_records([(2.0, 10, 5), (1.0, 20, 2)])
        assert trace.requests[0].arrival_time_s == 1.0
        assert len(trace) == 2
        assert trace.duration_s == 2.0

    def test_request_rate(self):
        trace = Trace.from_records([(0.0, 10, 1), (1.0, 10, 1), (2.0, 10, 1), (4.0, 10, 1)])
        assert trace.request_rate_rps == pytest.approx(1.0)

    def test_truncation(self):
        trace = Trace.from_records([(0.0, 10, 1), (5.0, 10, 1), (10.0, 10, 1)])
        shorter = trace.truncated(6.0)
        assert len(shorter) == 2

    def test_scaling_to_rate(self):
        trace = Trace.from_records([(float(i), 10, 1) for i in range(11)])
        faster = trace.scaled_to_rate(2.0)
        assert faster.request_rate_rps == pytest.approx(2.0)
        assert len(faster) == len(trace)

    def test_scaling_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace(requests=()).scaled_to_rate(1.0)

    def test_csv_roundtrip(self, tmp_path):
        trace = generate_trace("coding", rate_rps=2, duration_s=10, seed=3)
        path = trace.to_csv(tmp_path / "trace.csv")
        loaded = Trace.from_csv(path)
        assert len(loaded) == len(trace)
        assert loaded.requests[0].prompt_tokens == trace.requests[0].prompt_tokens
        assert loaded.requests[-1].arrival_time_s == pytest.approx(trace.requests[-1].arrival_time_s, abs=1e-5)

    def test_token_count_accessors(self, tiny_trace):
        assert tiny_trace.prompt_token_counts() == [512, 1024, 256, 2048]


class TestTraceGenerator:
    def test_deterministic_for_same_seed(self):
        first = generate_trace("coding", rate_rps=5, duration_s=20, seed=11)
        second = generate_trace("coding", rate_rps=5, duration_s=20, seed=11)
        assert [r.prompt_tokens for r in first] == [r.prompt_tokens for r in second]
        assert [r.arrival_time_s for r in first] == [r.arrival_time_s for r in second]

    def test_different_seeds_differ(self):
        first = generate_trace("coding", rate_rps=5, duration_s=20, seed=1)
        second = generate_trace("coding", rate_rps=5, duration_s=20, seed=2)
        assert [r.prompt_tokens for r in first] != [r.prompt_tokens for r in second]

    def test_rate_respected(self):
        trace = generate_trace("conversation", rate_rps=10, duration_s=120, seed=0)
        assert trace.request_rate_rps == pytest.approx(10, rel=0.15)

    def test_metadata_recorded(self):
        trace = generate_trace("coding", rate_rps=2, duration_s=10, seed=5)
        assert trace.metadata["workload"] == "coding"
        assert trace.metadata["rate_rps"] == 2
        assert trace.metadata["seed"] == 5

    def test_custom_workload_spec_accepted(self):
        trace = generate_trace(CODING_WORKLOAD, rate_rps=2, duration_s=10, seed=5)
        assert len(trace) > 0

    def test_invalid_duration_rejected(self):
        generator = TraceGenerator(workload=CODING_WORKLOAD, arrival=PoissonArrivalProcess(1.0), seed=0)
        with pytest.raises(ValueError):
            generator.generate(0)
