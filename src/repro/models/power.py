"""GPU power-draw and power-capping models (Figs. 8 and 9 of the paper).

Characterization findings the model reproduces:

* **Fig. 8a** — prompt-phase power grows with the number of batched tokens,
  approaching the GPU TDP for large batches (the phase is compute bound).
* **Fig. 8b** — token-phase power is roughly flat at about half of TDP
  regardless of batch size (the phase is memory bound).
* **Fig. 9a** — capping power sharply increases prompt latency once the cap
  falls below what the phase wants to draw.
* **Fig. 9b** — the token phase tolerates a cap of ~50% of TDP with almost no
  latency impact (Insight VI), which motivates Splitwise-HHcap.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

from repro.hardware.machine import MachineSpec
from repro.models.llm import ModelSpec

#: Idle/base draw of a busy GPU as a fraction of TDP.
PROMPT_BASE_FRACTION = 0.60
#: Additional fraction of TDP the prompt phase draws as the batch saturates.
PROMPT_SLOPE_FRACTION = 0.40
#: Batched token count at which the prompt phase reaches full TDP draw.
PROMPT_SATURATION_TOKENS = 4096

#: Token-phase draw as a fraction of TDP (flat across batch sizes).
TOKEN_BASE_FRACTION = 0.45
TOKEN_SLOPE_FRACTION = 0.05
TOKEN_SATURATION_BATCH = 16

#: Machine idle power as a fraction of GPU TDP (no active batch).
IDLE_FRACTION = 0.12


@dataclass(frozen=True)
class PhasePower:
    """Power draw of a machine while executing one phase.

    Attributes:
        gpu_watts: Total GPU power draw in watts.
        fraction_of_tdp: Draw as a fraction of the total (uncapped) GPU TDP.
    """

    gpu_watts: float
    fraction_of_tdp: float


class PowerModel:
    """Power model for one (model, machine) pair.

    The model exposes per-phase draw (for Fig. 8 and for energy accounting)
    and cap-induced latency multipliers (for Fig. 9 and the HHcap design).

    Args:
        model: The LLM being served (power draw is model-size insensitive at
            the fidelity of the paper's figures; the spec is kept for
            interface symmetry and future refinement).
        machine: The machine whose GPUs draw the power.

    Per-phase draw and default-cap slowdowns are pure functions of the batch
    composition, and the simulator evaluates them once per iteration, so they
    are memoized on exact batch keys.  The cap is frozen into the machine
    spec, so no entry goes stale during a run.
    """

    def __init__(self, model: ModelSpec, machine: MachineSpec) -> None:
        self.model = model
        self.machine = machine
        self._prompt_power_cache: dict[int | float, PhasePower] = {}
        self._token_power_cache: dict[int, PhasePower] = {}
        self._prompt_slowdown_cache: dict[int | float, float] = {}
        self._token_slowdown_cache: dict[int, float] = {}

    def invalidate_caches(self) -> None:
        """Drop every memoized draw/slowdown entry."""
        self._prompt_power_cache.clear()
        self._token_power_cache.clear()
        self._prompt_slowdown_cache.clear()
        self._token_slowdown_cache.clear()

    # -- draw ------------------------------------------------------------------

    def prompt_power_fraction(self, batched_tokens: int | float) -> float:
        """Prompt-phase draw as a fraction of TDP for ``batched_tokens``."""
        if batched_tokens < 0:
            raise ValueError(f"batched_tokens must be non-negative, got {batched_tokens}")
        if batched_tokens == 0:
            return IDLE_FRACTION
        saturation = min(1.0, batched_tokens / PROMPT_SATURATION_TOKENS)
        uncapped = PROMPT_BASE_FRACTION + PROMPT_SLOPE_FRACTION * saturation
        return min(uncapped, self.machine.gpu.power_cap_fraction)

    def token_power_fraction(self, batch_size: int) -> float:
        """Token-phase draw as a fraction of TDP for ``batch_size`` requests."""
        if batch_size < 0:
            raise ValueError(f"batch_size must be non-negative, got {batch_size}")
        if batch_size == 0:
            return IDLE_FRACTION
        saturation = min(1.0, batch_size / TOKEN_SATURATION_BATCH)
        uncapped = TOKEN_BASE_FRACTION + TOKEN_SLOPE_FRACTION * saturation
        return min(uncapped, self.machine.gpu.power_cap_fraction)

    def prompt_power(self, batched_tokens: int | float) -> PhasePower:
        """Prompt-phase draw in watts (all GPUs); memoized per batch size."""
        cached = self._prompt_power_cache.get(batched_tokens)
        if cached is not None:
            return cached
        fraction = self.prompt_power_fraction(batched_tokens)
        power = PhasePower(gpu_watts=fraction * self.machine.gpu_tdp_watts, fraction_of_tdp=fraction)
        self._prompt_power_cache[batched_tokens] = power
        return power

    def token_power(self, batch_size: int) -> PhasePower:
        """Token-phase draw in watts (all GPUs); memoized per batch size."""
        cached = self._token_power_cache.get(batch_size)
        if cached is not None:
            return cached
        fraction = self.token_power_fraction(batch_size)
        power = PhasePower(gpu_watts=fraction * self.machine.gpu_tdp_watts, fraction_of_tdp=fraction)
        self._token_power_cache[batch_size] = power
        return power

    # -- power capping ----------------------------------------------------------

    def prompt_cap_slowdown(self, batched_tokens: int | float, cap_fraction: float | None = None) -> float:
        """Latency multiplier the prompt phase suffers under a power cap.

        When the cap is below the draw the phase wants, throughput degrades
        roughly proportionally to the missing power (Fig. 9a shows TTFT
        roughly doubling when the cap is halved at full batch).

        Args:
            batched_tokens: Batched prompt tokens in the iteration.
            cap_fraction: Cap as a fraction of TDP; defaults to the machine's
                configured cap.  Only the default-cap path is memoized.
        """
        if cap_fraction is None:
            cached = self._prompt_slowdown_cache.get(batched_tokens)
            if cached is not None:
                return cached
        cap = self._resolve_cap(cap_fraction)
        saturation = min(1.0, max(batched_tokens, 1) / PROMPT_SATURATION_TOKENS)
        wanted = PROMPT_BASE_FRACTION + PROMPT_SLOPE_FRACTION * saturation
        slowdown = 1.0 if cap >= wanted else wanted / cap
        if cap_fraction is None:
            self._prompt_slowdown_cache[batched_tokens] = slowdown
        return slowdown

    def token_cap_slowdown(self, batch_size: int, cap_fraction: float | None = None) -> float:
        """Latency multiplier the token phase suffers under a power cap.

        Flat at 1.0 down to roughly half of TDP (Fig. 9b), then degrading
        like the prompt phase below that.
        """
        if cap_fraction is None:
            cached = self._token_slowdown_cache.get(batch_size)
            if cached is not None:
                return cached
        cap = self._resolve_cap(cap_fraction)
        saturation = min(1.0, max(batch_size, 1) / TOKEN_SATURATION_BATCH)
        wanted = TOKEN_BASE_FRACTION + TOKEN_SLOPE_FRACTION * saturation
        slowdown = 1.0 if cap >= wanted else wanted / cap
        if cap_fraction is None:
            self._token_slowdown_cache[batch_size] = slowdown
        return slowdown

    def _resolve_cap(self, cap_fraction: float | None) -> float:
        cap = self.machine.gpu.power_cap_fraction if cap_fraction is None else cap_fraction
        if not 0 < cap <= 1:
            raise ValueError(f"cap_fraction must be in (0, 1], got {cap}")
        return cap

    # -- energy -----------------------------------------------------------------

    def prompt_energy_wh(self, batched_tokens: int | float, duration_s: float) -> float:
        """Energy in watt-hours consumed by a prompt iteration of ``duration_s``."""
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        return self.prompt_power(batched_tokens).gpu_watts * duration_s / 3600.0

    def token_energy_wh(self, batch_size: int, duration_s: float) -> float:
        """Energy in watt-hours consumed by a token iteration of ``duration_s``."""
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        return self.token_power(batch_size).gpu_watts * duration_s / 3600.0

    def token_energy_series(self, batch_size: int, durations_s: Iterable[float]) -> array:
        """Per-iteration energies of a coalesced decode run.

        Bit-identical to calling :meth:`token_energy_wh` once per duration
        (same operations in the same order), with the wattage lookup hoisted
        out of the loop.  Durations must be non-negative (the caller produces
        them from a latency model, which already guarantees it).
        """
        watts = self.token_power(batch_size).gpu_watts
        energies = array("d")
        append = energies.append
        for duration_s in durations_s:
            append(watts * duration_s / 3600.0)
        return energies
