"""LLM model descriptions (Table III of the Splitwise paper).

The paper evaluates two production-class open models:

=============  =======  ===========  =======
Model          #Layers  Hidden size  #Heads
=============  =======  ===========  =======
Llama2-70B     80       8192         64 (8 KV)
BLOOM-176B     70       14336        112
=============  =======  ===========  =======

(The paper's Table III prints 32 heads for Llama2-70B; the architectural
fact that matters for Splitwise is the KV-cache size per token, which is
driven by the number of **KV heads** — Llama2-70B uses grouped-query
attention with 8 KV heads, which is what makes its KV-cache ~12x smaller
per token than BLOOM's.)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """Static description of a decoder-only transformer LLM.

    Attributes:
        name: Identifier, e.g. ``"Llama2-70B"``.
        num_parameters: Total parameter count.
        num_layers: Number of transformer layers.
        hidden_size: Model (embedding) dimension.
        num_heads: Number of attention (query) heads.
        num_kv_heads: Number of key/value heads (``num_heads`` for classic
            multi-head attention, fewer for grouped-query attention).
        bytes_per_param: Storage per weight (2 for FP16/BF16 inference).
        bytes_per_kv_scalar: Storage per KV-cache element (2 for FP16).
    """

    name: str
    num_parameters: float
    num_layers: int
    hidden_size: int
    num_heads: int
    num_kv_heads: int
    bytes_per_param: int = 2
    bytes_per_kv_scalar: int = 2

    def __post_init__(self) -> None:
        if self.num_parameters <= 0:
            raise ValueError(f"num_parameters must be positive, got {self.num_parameters}")
        if self.num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {self.num_layers}")
        if self.hidden_size <= 0:
            raise ValueError(f"hidden_size must be positive, got {self.hidden_size}")
        if self.num_heads <= 0:
            raise ValueError(f"num_heads must be positive, got {self.num_heads}")
        if not 0 < self.num_kv_heads <= self.num_heads:
            raise ValueError(
                f"num_kv_heads must be in [1, num_heads]; got {self.num_kv_heads} with {self.num_heads} heads"
            )
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size ({self.hidden_size}) must be divisible by num_heads ({self.num_heads})"
            )

    @property
    def head_dim(self) -> int:
        """Dimension of a single attention head."""
        return self.hidden_size // self.num_heads

    @property
    def weight_bytes(self) -> float:
        """Bytes needed to store the model weights."""
        return self.num_parameters * self.bytes_per_param

    @property
    def kv_bytes_per_token(self) -> float:
        """KV-cache bytes generated per token of context.

        Each layer stores a key and a value vector of size
        ``num_kv_heads * head_dim`` per token.
        """
        per_layer = 2 * self.num_kv_heads * self.head_dim * self.bytes_per_kv_scalar
        return float(per_layer * self.num_layers)

    def kv_cache_bytes(self, num_tokens: int | float) -> float:
        """Total KV-cache bytes for ``num_tokens`` of cached context."""
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be non-negative, got {num_tokens}")
        return self.kv_bytes_per_token * num_tokens


#: Llama2-70B: 80 layers, 8192 hidden, 64 query heads, 8 KV heads (GQA).
LLAMA2_70B = ModelSpec(
    name="Llama2-70B",
    num_parameters=70e9,
    num_layers=80,
    hidden_size=8192,
    num_heads=64,
    num_kv_heads=8,
)

#: BLOOM-176B: 70 layers, 14336 hidden, 112 heads, full multi-head attention.
BLOOM_176B = ModelSpec(
    name="BLOOM-176B",
    num_parameters=176e9,
    num_layers=70,
    hidden_size=14336,
    num_heads=112,
    num_kv_heads=112,
)

_REGISTRY: dict[str, ModelSpec] = {
    "LLAMA2-70B": LLAMA2_70B,
    "BLOOM-176B": BLOOM_176B,
}


def get_model(name: str) -> ModelSpec:
    """Look up a model spec by name (case-insensitive).

    Raises:
        KeyError: if the model is not registered.
    """
    key = name.upper()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"Unknown model {name!r}; known models: {known}")
    return _REGISTRY[key]
