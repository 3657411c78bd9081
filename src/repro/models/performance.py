"""Latency (performance) models for LLM inference iterations.

The Splitwise simulator is driven by a performance model that answers one
question: *how long does one forward-pass iteration take for a given batch
composition on a given machine?*  The paper builds a piecewise-linear model
fitted to hardware profiles (validated to <3% MAPE, Section V-B).  Here
:class:`AnalyticalPerformanceModel` answers it with closed-form latency curves
calibrated to the paper's published characterization (Fig. 5a/5b, Fig. 6,
Table IV); :class:`PerformanceModel` is the interface it implements.

Latency is always returned in **seconds**; calibration constants are stored
in milliseconds because that is how the paper reports them.

An iteration may process prompt tokens (prefill), token-phase requests
(decode), or both (mixed batching).  The machine that runs it adds the two
phase latencies — the prompt work and the token work share the machine
serially within an iteration — which is what makes mixed batching inflate
TBT in the paper's Fig. 2(c).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.hardware.machine import MachineSpec
from repro.models.llm import ModelSpec
from repro.models.power import PowerModel

#: Memory-bandwidth efficiency achieved by the decode kernels when streaming
#: KV-cache from HBM.
KV_READ_EFFICIENCY = 0.8

#: Reference context length per request used when profiling decode latency.
DEFAULT_REFERENCE_CONTEXT = 1024


class PerformanceModel(ABC):
    """Interface every performance model implements."""

    model: ModelSpec
    machine: MachineSpec

    #: Multiplicative straggler slowdown applied to every latency this model
    #: produces (1.0 = healthy hardware; the fault plane sets it via
    #: :meth:`set_slowdown`).  Distinct from power-cap inflation: a power cap
    #: is a reversible operator policy, a straggler is degraded hardware.
    slowdown_factor: float = 1.0

    def set_slowdown(self, factor: float) -> None:
        """Set the straggler slowdown factor and drop memoized latencies.

        Raises:
            ValueError: if ``factor`` is not positive.
        """
        if factor <= 0.0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        self.slowdown_factor = factor
        self.invalidate_caches()

    @abstractmethod
    def prompt_latency(self, prompt_tokens: int) -> float:
        """Seconds for a prompt-only iteration over ``prompt_tokens`` tokens."""

    @abstractmethod
    def token_latency(self, token_requests: int, context_tokens: int | None = None) -> float:
        """Seconds for a decode iteration of ``token_requests`` requests.

        Args:
            token_requests: Number of batched decoding requests.
            context_tokens: Total cached context read; defaults to
                ``token_requests * DEFAULT_REFERENCE_CONTEXT``.
        """

    @abstractmethod
    def token_latency_series(
        self, token_requests: int, context_start: int, context_step: int, count: int
    ) -> np.ndarray:
        """:meth:`token_latency` at ``count`` contexts ``context_start + i * context_step``.

        Bit-identical to ``count`` calls of :meth:`token_latency`: a float64
        array, empty when ``count <= 0`` or ``token_requests == 0``.
        """

    @abstractmethod
    def invalidate_caches(self) -> None:
        """Drop memoized latency entries (:meth:`set_slowdown` calls this)."""

    # -- derived quantities ------------------------------------------------------

    def ttft(self, prompt_tokens: int) -> float:
        """Time to first token for an unbatched request (Fig. 5a)."""
        return self.prompt_latency(prompt_tokens)

    def tbt(self, batch_size: int = 1, context_tokens: int | None = None) -> float:
        """Time between tokens at a given decode batch size (Fig. 5b)."""
        return self.token_latency(batch_size, context_tokens)

    def unbatched_latencies(
        self, prompt_tokens: Sequence[int] | np.ndarray, output_tokens: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """TTFT, TBT and E2E of each request run alone (Fig. 5), as float64 arrays.

        Request ``i`` with prompt ``p`` and output ``o`` gets TTFT
        ``prompt_latency(p)``, TBT ``token_latency(1, p)`` and E2E
        ``prompt_latency(p) + token_latency(1, p + 1) + ... +
        token_latency(1, p + o - 1)``: the first output token comes from the
        prompt phase, and each later one takes a decode iteration whose
        context has grown by one token.

        Every decode latency comes from one :meth:`token_latency_series`
        table over the contexts the requests reach.  Each E2E is the last
        element of its row's ``np.cumsum``, which adds left to right exactly
        as a per-token loop would (``np.sum`` would add pairwise), so every
        value is bit-identical to that loop.  Rows are laid out longest
        first, a block of at most :data:`_E2E_BLOCK_CELLS` cells (or one row)
        at a time, so memory stays bounded on any trace.
        """
        prompts = np.asarray(prompt_tokens, dtype=np.int64)
        outputs = np.asarray(output_tokens, dtype=np.int64)
        if prompts.shape != outputs.shape or prompts.ndim != 1:
            raise ValueError("prompt_tokens and output_tokens must be 1-D and of equal length")
        if not prompts.size:
            return np.empty(0), np.empty(0), np.empty(0)
        if outputs.min() < 1:
            raise ValueError(f"output_tokens must be >= 1, got {int(outputs.min())}")
        first = int(prompts.min())
        widest = int(outputs.max())
        # table[c - first] == token_latency(1, c) for every context a row reads.
        table = self.token_latency_series(1, first, 1, int(prompts.max()) + widest - first)
        ttft = np.array([self.prompt_latency(p) for p in prompts.tolist()], dtype=np.float64)
        tbt = table[prompts - first]
        e2e = np.empty(prompts.size)
        order = np.argsort(-outputs, kind="stable")
        start = 0
        while start < order.size:
            width = int(outputs[order[start]])
            rows = order[start : start + max(1, _E2E_BLOCK_CELLS // width)]
            block = np.empty((rows.size, width))
            block[:, 0] = ttft[rows]
            contexts = (prompts[rows] + 1 - first)[:, None] + np.arange(width - 1)
            block[:, 1:] = table[contexts]
            np.cumsum(block, axis=1, out=block)
            e2e[rows] = block[np.arange(rows.size), outputs[rows] - 1]
            start += rows.size
        return ttft, tbt, e2e

    def prompt_throughput(self, prompt_tokens: int) -> float:
        """Prompt tokens processed per second at the given batch size (Fig. 6a)."""
        latency = self.prompt_latency(prompt_tokens)
        return prompt_tokens / latency if latency > 0 else 0.0

    def token_throughput(self, batch_size: int, context_tokens: int | None = None) -> float:
        """Generated tokens per second at the given decode batch size (Fig. 6b)."""
        latency = self.token_latency(batch_size, context_tokens)
        return batch_size / latency if latency > 0 else 0.0


# ---------------------------------------------------------------------------
# Calibration tables
# ---------------------------------------------------------------------------
# Prompt-phase latency in milliseconds:  t(n) = c0 + c1 * n + c2 * n^2
# where n is the number of batched prompt tokens.  The quadratic term captures
# attention cost and reproduces the throughput roll-off past ~2048 tokens that
# motivates the paper's 2048-token prompt batching limit (Fig. 6a).
_PROMPT_COEFFS_MS: dict[tuple[str, str], tuple[float, float, float]] = {
    ("Llama2-70B", "H100"): (60.0, 0.013, 8.0e-6),
    ("Llama2-70B", "A100"): (110.0, 0.027, 1.65e-5),
    ("BLOOM-176B", "H100"): (60.0, 0.060, 2.0e-5),
    ("BLOOM-176B", "A100"): (110.0, 0.120, 4.0e-5),
}

# Token-phase latency in milliseconds: t(b) = d0 + d1 * b  (+ KV read time),
# where b is the decode batch size.  The shallow slope reproduces the paper's
# observation that batch 64 only doubles TBT (Fig. 5b).
_TOKEN_COEFFS_MS: dict[tuple[str, str], tuple[float, float]] = {
    ("Llama2-70B", "H100"): (27.5, 0.35),
    ("Llama2-70B", "A100"): (39.0, 0.50),
    ("BLOOM-176B", "H100"): (36.0, 0.30),
    ("BLOOM-176B", "A100"): (51.0, 0.43),
}

_REFERENCE_MODEL = "Llama2-70B"
_REFERENCE_GPU = "H100"

#: Memoized latency tables are cleared wholesale once they reach this many
#: entries, bounding memory on million-token traces whose coalesced decode
#: runs touch a long tail of unique (batch, context) keys.
_MAX_MEMO_ENTRIES = 1 << 16

#: Cells (float64) of one block of :meth:`PerformanceModel.unbatched_latencies`
#: rows: 2 MiB, which bounds what one block holds on any trace.
_E2E_BLOCK_CELLS = 1 << 18


def _gpu_family(machine: MachineSpec) -> str:
    """Map a machine to the GPU family used in the calibration tables."""
    name = machine.gpu.name.upper()
    if "H100" in name:
        return "H100"
    if "A100" in name:
        return "A100"
    return name


class AnalyticalPerformanceModel(PerformanceModel):
    """Closed-form latency model calibrated to the paper's characterization.

    Calibration anchors (all P50, Llama2-70B unless noted):

    * TTFT on DGX-H100 ~84 ms at 1020 prompt tokens and ~95 ms at 1500
      (Table IV); A100 roughly 2x slower (TTFT ratio 0.51).
    * TBT on DGX-H100 ~28 ms unbatched, ~2x at decode batch 64 (Fig. 5b);
      A100/H100 TBT ratio 0.70 (Table IV).
    * Prompt throughput peaks near 2048 batched tokens then declines
      (Fig. 6a); token throughput keeps scaling to batch 64 (Fig. 6b).
    * BLOOM-176B: a 1500-token prompt costs roughly as much as six decode
      iterations (Insight III).

    Unknown (model, GPU) pairs are extrapolated from the Llama2-70B / H100
    reference by parameter count and by the FLOPs / HBM-bandwidth ratios of
    the GPU, so user-defined models remain usable.

    Latencies are pure functions of the batch composition, so they are
    memoized on exact ``prompt_tokens`` / ``(token_requests, context_tokens)``
    keys — exact keys, not rounded buckets, so cached and freshly computed
    values are bit-identical.  :meth:`set_slowdown` drops them, because every
    entry folds in the straggler factor.

    Args:
        model: LLM being served.
        machine: Machine serving it (tensor-parallel across all its GPUs).
        apply_power_cap: Whether to inflate latencies according to the
            machine's GPU power cap (Fig. 9).
    """

    def __init__(self, model: ModelSpec, machine: MachineSpec, apply_power_cap: bool = True) -> None:
        self.model = model
        self.machine = machine
        self.apply_power_cap = apply_power_cap
        self._power = PowerModel(model, machine)
        self._prompt_coeffs = self._resolve_prompt_coeffs()
        self._token_coeffs = self._resolve_token_coeffs()
        self._kv_bytes_per_token = model.kv_bytes_per_token
        #: Bytes per second the decode kernels stream KV-cache from HBM.
        self._kv_read_bandwidth = machine.total_hbm_bandwidth_gbps * 1e9 * KV_READ_EFFICIENCY
        self._prompt_cache: dict[int, float] = {}
        self._token_cache: dict[tuple[int, int], float] = {}

    def invalidate_caches(self) -> None:
        """Drop every memoized latency entry and the power model's tables."""
        self._prompt_cache.clear()
        self._token_cache.clear()
        self._power.invalidate_caches()

    # -- calibration resolution ---------------------------------------------------

    def _resolve_prompt_coeffs(self) -> tuple[float, float, float]:
        key = (self.model.name, _gpu_family(self.machine))
        if key in _PROMPT_COEFFS_MS:
            return _PROMPT_COEFFS_MS[key]
        return self._scale_prompt_reference()

    def _resolve_token_coeffs(self) -> tuple[float, float]:
        key = (self.model.name, _gpu_family(self.machine))
        if key in _TOKEN_COEFFS_MS:
            return _TOKEN_COEFFS_MS[key]
        return self._scale_token_reference()

    def _scale_prompt_reference(self) -> tuple[float, float, float]:
        from repro.hardware.gpu import GPU_H100
        from repro.models.llm import LLAMA2_70B

        c0, c1, c2 = _PROMPT_COEFFS_MS[(_REFERENCE_MODEL, _REFERENCE_GPU)]
        size_ratio = self.model.num_parameters / LLAMA2_70B.num_parameters
        compute_ratio = (GPU_H100.fp16_tflops * 8) / (self.machine.gpu.fp16_tflops * self.machine.num_gpus)
        scale = size_ratio * compute_ratio
        return (c0 * compute_ratio, c1 * scale, c2 * scale)

    def _scale_token_reference(self) -> tuple[float, float]:
        from repro.hardware.gpu import GPU_H100
        from repro.models.llm import LLAMA2_70B

        d0, d1 = _TOKEN_COEFFS_MS[(_REFERENCE_MODEL, _REFERENCE_GPU)]
        size_ratio = self.model.num_parameters / LLAMA2_70B.num_parameters
        bandwidth_ratio = (GPU_H100.hbm_bandwidth_gbps * 8) / (
            self.machine.gpu.hbm_bandwidth_gbps * self.machine.num_gpus
        )
        scale = size_ratio * bandwidth_ratio
        return (d0 * scale, d1 * scale)

    # -- latency -------------------------------------------------------------------

    def prompt_latency(self, prompt_tokens: int) -> float:
        cached = self._prompt_cache.get(prompt_tokens)
        if cached is not None:
            return cached
        if prompt_tokens < 0:
            raise ValueError(f"prompt_tokens must be non-negative, got {prompt_tokens}")
        if prompt_tokens == 0:
            return 0.0
        c0, c1, c2 = self._prompt_coeffs
        latency_ms = c0 + c1 * prompt_tokens + c2 * prompt_tokens**2
        if self.apply_power_cap:
            latency_ms *= self._power.prompt_cap_slowdown(prompt_tokens)
        if self.slowdown_factor != 1.0:
            latency_ms *= self.slowdown_factor
        latency = latency_ms / 1e3
        cache = self._prompt_cache
        if len(cache) >= _MAX_MEMO_ENTRIES:
            cache.clear()
        cache[prompt_tokens] = latency
        return latency

    def token_latency(self, token_requests: int, context_tokens: int | None = None) -> float:
        if context_tokens is None:
            context_tokens = token_requests * DEFAULT_REFERENCE_CONTEXT
        key = (token_requests, context_tokens)
        cached = self._token_cache.get(key)
        if cached is not None:
            return cached
        if token_requests < 0:
            raise ValueError(f"token_requests must be non-negative, got {token_requests}")
        latency = self.token_latency_uncached(token_requests, context_tokens)
        cache = self._token_cache
        if len(cache) >= _MAX_MEMO_ENTRIES:
            cache.clear()
        cache[key] = latency
        return latency

    def token_latency_uncached(self, token_requests: int, context_tokens: int) -> float:
        """Decode latency for a transient key, skipping the memo table.

        :meth:`token_latency` is the memo wrapper around it, and rotating
        batches — which never repeat a ``(token_requests, context_tokens)``
        key — call it directly so the table doesn't churn.
        """
        if token_requests <= 0:
            return 0.0
        if context_tokens < 0:
            raise ValueError(f"context_tokens must be non-negative, got {context_tokens}")
        return float(self._decode_latency(token_requests, context_tokens))

    def token_latency_series(
        self, token_requests: int, context_start: int, context_step: int, count: int
    ) -> np.ndarray:
        """Decode latencies of a coalesced run, or of a table over contexts.

        One vectorized pass of :meth:`_decode_latency` (the same float
        operations per element as :meth:`token_latency_uncached`), skipping
        the memo table — the growing-context keys of a coalesced run are
        transient and would only churn the cache.
        """
        if token_requests < 0:
            raise ValueError(f"token_requests must be non-negative, got {token_requests}")
        if count <= 0 or token_requests == 0:
            return np.empty(0)
        if min(context_start, context_start + (count - 1) * context_step) < 0:
            raise ValueError("context_tokens must be non-negative")
        contexts = np.arange(count, dtype=np.int64)
        contexts *= context_step
        contexts += context_start
        return self._decode_latency(token_requests, contexts)

    def _decode_latency(self, token_requests: int, context_tokens: int | np.ndarray) -> float | np.ndarray:
        """The single copy of the decode-latency formula, in seconds.

        Takes one context or an array of them; numpy applies each operation
        elementwise in the order written, so both give the same bits.
        """
        d0, d1 = self._token_coeffs
        kv_read_ms = self._kv_bytes_per_token * context_tokens / self._kv_read_bandwidth * 1e3
        latency_ms = d0 + d1 * token_requests + kv_read_ms
        if self.apply_power_cap:
            latency_ms = latency_ms * self._power.token_cap_slowdown(token_requests)
        if self.slowdown_factor != 1.0:
            latency_ms = latency_ms * self.slowdown_factor
        return latency_ms / 1e3
