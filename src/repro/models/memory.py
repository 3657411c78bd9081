"""GPU memory accounting for LLM inference (Fig. 7 of the paper).

During inference, machine HBM holds three things: the model weights, a
working set of activations, and the KV-cache of every active request.  The
prompt phase writes KV-cache entries for all prompt tokens; the token phase
reads the entire cached context of each batched request and appends one entry
per generated token.

This module answers the questions the machine-level scheduler needs:

* How much memory does a given batch composition require? (Fig. 7)
* How many KV-cache tokens fit on a machine, i.e. when must the scheduler
  start queueing token-phase requests? (Insight V)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.machine import MachineSpec
from repro.models.llm import ModelSpec

GB = 1024.0**3

#: Fraction of HBM usable for weights + KV-cache (the rest is reserved for
#: fragmentation, CUDA context, and framework overheads).
DEFAULT_USABLE_FRACTION = 0.92

#: Activation working-set reserve per machine, in bytes.  The prompt phase
#: keeps per-token activations live for one layer at a time; a flat reserve
#: models this (vLLM pre-allocates a similar buffer).
DEFAULT_ACTIVATION_RESERVE_BYTES = 12 * GB


@dataclass(frozen=True)
class MemoryUsage:
    """Breakdown of machine memory usage for one batch composition.

    Attributes:
        weight_bytes: Bytes used by the model weights.
        activation_bytes: Bytes reserved for activations.
        kv_cache_bytes: Bytes used by KV-cache entries.
    """

    weight_bytes: float
    activation_bytes: float
    kv_cache_bytes: float

    @property
    def total_bytes(self) -> float:
        """Total bytes across all components."""
        return self.weight_bytes + self.activation_bytes + self.kv_cache_bytes

    @property
    def total_gb(self) -> float:
        """Total usage in GB."""
        return self.total_bytes / GB


class MemoryModel:
    """Memory capacity model for one (model, machine) pair.

    Args:
        model: The LLM being served.
        machine: The machine serving it.
        usable_fraction: Fraction of HBM capacity usable by the server.
        activation_reserve_bytes: Flat activation reserve.

    Raises:
        ValueError: if the model weights do not fit on the machine at all.
    """

    def __init__(
        self,
        model: ModelSpec,
        machine: MachineSpec,
        usable_fraction: float = DEFAULT_USABLE_FRACTION,
        activation_reserve_bytes: float = DEFAULT_ACTIVATION_RESERVE_BYTES,
    ) -> None:
        if not 0 < usable_fraction <= 1:
            raise ValueError(f"usable_fraction must be in (0, 1], got {usable_fraction}")
        if activation_reserve_bytes < 0:
            raise ValueError("activation_reserve_bytes must be non-negative")
        self.model = model
        self.machine = machine
        self.usable_fraction = usable_fraction
        self.activation_reserve_bytes = activation_reserve_bytes
        capacity = machine.total_hbm_capacity_gb * GB * usable_fraction
        budget = capacity - model.weight_bytes - activation_reserve_bytes
        if budget <= 0:
            raise ValueError(
                f"Model {model.name} ({model.weight_bytes / GB:.0f} GB weights) does not fit on "
                f"{machine.name} ({machine.total_hbm_capacity_gb:.0f} GB HBM)"
            )
        self._kv_budget_bytes = budget

    @property
    def max_kv_tokens(self) -> int:
        """Maximum number of cached context tokens the machine can hold."""
        return int(self._kv_budget_bytes // self.model.kv_bytes_per_token)

    def usage(self, cached_tokens: int | float) -> MemoryUsage:
        """Memory usage for ``cached_tokens`` tokens of live KV-cache.

        This is the quantity plotted in Fig. 7: in the prompt phase the
        cached tokens are the batched prompt tokens; in the token phase they
        are the full contexts of all batched requests.
        """
        if cached_tokens < 0:
            raise ValueError(f"cached_tokens must be non-negative, got {cached_tokens}")
        return MemoryUsage(
            weight_bytes=self.model.weight_bytes,
            activation_bytes=self.activation_reserve_bytes,
            kv_cache_bytes=self.model.kv_cache_bytes(cached_tokens),
        )
