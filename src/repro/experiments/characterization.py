"""Characterization experiments (Section III of the paper).

These regenerate Table I, Figs. 3-9, and Table IV from the models in this
repository: token distributions, batch utilization under mixed continuous
batching, phase latency/throughput/memory/power curves, and the A100 vs H100
comparison.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.cluster import simulate_design
from repro.core.designs import ClusterDesign
from repro.hardware.gpu import GPU_A100, GPU_H100
from repro.hardware.machine import DGX_A100, DGX_H100, MachineSpec
from repro.models.llm import BLOOM_176B, LLAMA2_70B, ModelSpec
from repro.models.memory import GB, MemoryModel
from repro.models.performance import AnalyticalPerformanceModel
from repro.models.power import PowerModel
from repro.workload.distributions import get_workload
from repro.workload.generator import generate_trace

#: Prompt sizes swept in Fig. 5a / Fig. 14 / Fig. 15.
PROMPT_SIZE_GRID = (128, 256, 512, 1024, 2048, 4096, 8192)

#: Decode batch sizes swept in Fig. 5b / Fig. 6b / Fig. 8b.
BATCH_SIZE_GRID = (1, 2, 4, 8, 16, 32, 64)


def table1_hardware_comparison() -> dict[str, dict[str, float]]:
    """Table I: A100 vs H100 specifications and their ratios."""
    rows = {
        "TFLOPs": (GPU_A100.fp16_tflops, GPU_H100.fp16_tflops),
        "HBM capacity (GB)": (GPU_A100.hbm_capacity_gb, GPU_H100.hbm_capacity_gb),
        "HBM bandwidth (GBps)": (GPU_A100.hbm_bandwidth_gbps, GPU_H100.hbm_bandwidth_gbps),
        "Power (W)": (GPU_A100.tdp_watts, GPU_H100.tdp_watts),
        "NVLink (GBps)": (GPU_A100.nvlink_gbps, GPU_H100.nvlink_gbps),
        "Infiniband (Gbps)": (GPU_A100.infiniband_gbps, GPU_H100.infiniband_gbps),
        "Cost per machine ($/hr)": (GPU_A100.cost_per_hour, GPU_H100.cost_per_hour),
    }
    return {
        metric: {"A100": a100, "H100": h100, "ratio": h100 / a100}
        for metric, (a100, h100) in rows.items()
    }


def fig3_token_distributions(sample_size: int = 20000, seed: int = 0) -> dict[str, dict[str, float]]:
    """Fig. 3: prompt and output token distributions of the two workloads.

    Returns medians and selected CDF quantiles for the coding and
    conversation workloads.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, dict[str, float]] = {}
    for name in ("coding", "conversation"):
        workload = get_workload(name)
        prompts = workload.prompt_tokens.sample(rng, sample_size)
        outputs = workload.output_tokens.sample(rng, sample_size)
        out[name] = {
            "prompt_p50": float(np.percentile(prompts, 50)),
            "prompt_p90": float(np.percentile(prompts, 90)),
            "output_p50": float(np.percentile(outputs, 50)),
            "output_p90": float(np.percentile(outputs, 90)),
            "output_mean": float(np.mean(outputs)),
        }
    return out


def fig4_batch_utilization(
    model: ModelSpec = LLAMA2_70B,
    machine: MachineSpec = DGX_H100,
    workloads: Sequence[str] = ("coding", "conversation"),
    rate_rps: float = 2.0,
    duration_s: float = 120.0,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Fig. 4: time spent at each active-batched-token count on one machine.

    The paper runs a scaled-down trace (2 RPS) on a single machine with mixed
    continuous batching and reports the CDF of time spent at various active
    token counts.  Returns, per workload, the fraction of busy time spent at
    or below 1 and 20 active tokens plus the median occupancy.
    """
    results: dict[str, dict[str, float]] = {}
    for workload in workloads:
        design = ClusterDesign(
            name=f"single-{machine.name}",
            prompt_machine=machine,
            token_machine=machine,
            num_prompt=1,
            num_token=0,
            split=False,
        )
        trace = generate_trace(workload, rate_rps=rate_rps, duration_s=duration_s, seed=seed)
        result = simulate_design(design, trace, model=model)
        occupancy = result.metrics.machine_stats("machine-0").occupancy
        cdf = occupancy.cdf()
        median_tokens = next((tokens for tokens, frac in cdf if frac >= 0.5), 0)
        results[workload] = {
            "fraction_at_1_token": occupancy.fraction_at_or_below(1),
            "fraction_at_or_below_20_tokens": occupancy.fraction_at_or_below(20),
            "median_active_tokens": float(median_tokens),
            "busy_time_s": occupancy.total_time,
        }
    return results


def fig5_latency(
    models: Sequence[ModelSpec] = (BLOOM_176B, LLAMA2_70B),
    machine: MachineSpec = DGX_H100,
    prompt_sizes: Sequence[int] = PROMPT_SIZE_GRID,
    batch_sizes: Sequence[int] = BATCH_SIZE_GRID,
    workloads: Sequence[str] = ("coding", "conversation"),
    num_requests: int = 300,
    seed: int = 0,
) -> dict[str, dict]:
    """Fig. 5: TTFT vs prompt size, TBT vs batch size, E2E percentiles.

    Returns three sub-dictionaries keyed ``"ttft"``, ``"tbt"``, ``"e2e"``.
    TTFT/TBT values are in milliseconds; E2E percentiles in seconds.
    """
    ttft: dict[str, dict[int, float]] = {}
    tbt: dict[str, dict[int, float]] = {}
    e2e: dict[str, dict[str, float]] = {}
    rng = np.random.default_rng(seed)
    for model in models:
        perf = AnalyticalPerformanceModel(model, machine)
        ttft[model.name] = {n: perf.ttft(n) * 1e3 for n in prompt_sizes}
        tbt[model.name] = {b: perf.tbt(b, b * 1024) * 1e3 for b in batch_sizes}
        for workload in workloads:
            spec = get_workload(workload)
            prompts = spec.prompt_tokens.sample(rng, num_requests)
            outputs = spec.output_tokens.sample(rng, num_requests)
            latencies = perf.unbatched_latencies(prompts, outputs)[2]
            e2e[f"{workload}-{model.name}"] = {
                "p50": float(np.percentile(latencies, 50)),
                "p90": float(np.percentile(latencies, 90)),
                "p99": float(np.percentile(latencies, 99)),
            }
    return {"ttft": ttft, "tbt": tbt, "e2e": e2e}


def fig6_throughput(
    models: Sequence[ModelSpec] = (BLOOM_176B, LLAMA2_70B),
    machine: MachineSpec = DGX_H100,
    prompt_sizes: Sequence[int] = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768),
    batch_sizes: Sequence[int] = BATCH_SIZE_GRID,
    context_per_request: int = 1024,
) -> dict[str, dict]:
    """Fig. 6: phase throughput vs batched tokens / batch size.

    Prompt throughput is prompt tokens processed per second; token throughput
    is generated tokens per second.
    """
    prompt: dict[str, dict[int, float]] = {}
    token: dict[str, dict[int, float]] = {}
    for model in models:
        perf = AnalyticalPerformanceModel(model, machine)
        prompt[model.name] = {n: perf.prompt_throughput(n) for n in prompt_sizes}
        token[model.name] = {
            b: perf.token_throughput(b, b * context_per_request) for b in batch_sizes
        }
    return {"prompt": prompt, "token": token}


def fig7_memory(
    model: ModelSpec = BLOOM_176B,
    machine: MachineSpec = DGX_H100,
    token_counts: Sequence[int] = (1, 10, 100, 1000, 10000, 30000, 60000),
) -> dict[str, dict[int, float]]:
    """Fig. 7: required memory (GB) vs number of batched tokens.

    In the prompt phase the batched tokens are prompt tokens; in the token
    phase they are the cached contexts of the batched requests — both consume
    KV-cache at the same per-token rate, on top of the model weights.
    """
    memory = MemoryModel(model, machine)
    usage = {n: memory.usage(n).total_gb for n in token_counts}
    return {
        "memory_gb": usage,
        "model_size_gb": {0: model.weight_bytes / GB},
        "capacity_gb": {0: machine.total_hbm_capacity_gb},
        "max_kv_tokens": {0: float(memory.max_kv_tokens)},
    }


def fig8_power(
    model: ModelSpec = LLAMA2_70B,
    machine: MachineSpec = DGX_H100,
    prompt_sizes: Sequence[int] = (512, 1024, 2048, 4096, 8192),
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16),
) -> dict[str, dict[int, float]]:
    """Fig. 8: power draw (fraction of TDP) vs batch size per phase."""
    power = PowerModel(model, machine)
    return {
        "prompt": {n: power.prompt_power_fraction(n) for n in prompt_sizes},
        "token": {b: power.token_power_fraction(b) for b in batch_sizes},
    }


def fig9_power_cap(
    model: ModelSpec = LLAMA2_70B,
    machine: MachineSpec = DGX_H100,
    caps_watts: Sequence[int] = (700, 650, 600, 550, 500, 450, 400, 350, 300, 250, 200),
    prompt_tokens: int = 8192,
    batch_size: int = 64,
) -> dict[str, dict[int, float]]:
    """Fig. 9: latency impact of GPU power caps on each phase.

    Returns TTFT (ms) for a maximum-size prompt batch and TBT (ms) for a
    maximum-size decode batch at each per-GPU power cap.
    """
    perf = AnalyticalPerformanceModel(model, machine, apply_power_cap=False)
    power = PowerModel(model, machine)
    base_ttft = perf.prompt_latency(prompt_tokens) * 1e3
    base_tbt = perf.token_latency(batch_size, batch_size * 1024) * 1e3
    ttft = {}
    tbt = {}
    for cap in caps_watts:
        fraction = cap / machine.gpu.tdp_watts
        ttft[cap] = base_ttft * power.prompt_cap_slowdown(prompt_tokens, fraction)
        tbt[cap] = base_tbt * power.token_cap_slowdown(batch_size, fraction)
    return {"ttft_ms": ttft, "tbt_ms": tbt}


def table4_gpu_comparison(
    model: ModelSpec = LLAMA2_70B,
    workloads: Sequence[str] = ("coding", "conversation"),
    num_requests: int = 400,
    seed: int = 0,
) -> dict[str, dict[str, Mapping[str, float]]]:
    """Table IV: P50 per-request metrics on A100 vs H100 without batching.

    Metrics per (workload, machine): TTFT (ms), TBT (ms), E2E (ms), cost ($)
    and energy (Wh) of the median request.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, dict[str, Mapping[str, float]]] = {}
    for workload in workloads:
        spec = get_workload(workload)
        prompts = spec.prompt_tokens.sample(rng, num_requests)
        outputs = spec.output_tokens.sample(rng, num_requests)
        per_machine: dict[str, Mapping[str, float]] = {}
        for machine in (DGX_A100, DGX_H100):
            perf = AnalyticalPerformanceModel(model, machine)
            power = PowerModel(model, machine)
            ttfts, tbts, e2es, energies = [], [], [], []
            ref_ttft, ref_tbt, ref_e2e = (a.tolist() for a in perf.unbatched_latencies(prompts, outputs))
            for p, prompt_latency, token_latency, e2e in zip(prompts.tolist(), ref_ttft, ref_tbt, ref_e2e):
                ttfts.append(prompt_latency * 1e3)
                tbts.append(token_latency * 1e3)
                e2es.append(e2e * 1e3)
                decode_time = e2e - prompt_latency
                energies.append(
                    power.prompt_energy_wh(p, prompt_latency) + power.token_energy_wh(1, decode_time)
                )
            e2e_p50_hours = float(np.percentile(e2es, 50)) / 1e3 / 3600.0
            per_machine[machine.name] = {
                "ttft_ms": float(np.percentile(ttfts, 50)),
                "tbt_ms": float(np.percentile(tbts, 50)),
                "e2e_ms": float(np.percentile(e2es, 50)),
                "cost_usd": e2e_p50_hours * machine.cost_per_hour,
                "energy_wh": float(np.percentile(energies, 50)),
            }
        a100, h100 = per_machine["DGX-A100"], per_machine["DGX-H100"]
        per_machine["ratio_h100_over_a100"] = {
            key: (h100[key] / a100[key]) if a100[key] else float("nan") for key in a100
        }
        results[workload] = per_machine
    return results
