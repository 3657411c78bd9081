"""Token-count distributions for the coding and conversation workloads.

Fig. 3 of the paper gives the CDFs of prompt and output token counts for the
two Azure production services:

* **Coding** — large prompts (median ~1500 tokens: the user's code so far)
  and very short outputs (median ~13 tokens: the next few words).
* **Conversation** — wide prompt range (median ~1020 tokens) and an almost
  bimodal output distribution (median ~129 tokens): short acknowledgements
  mixed with long generated answers.

We model each marginal with a clipped log-normal (or a mixture of two
log-normals for the bimodal conversation outputs).  The synthetic generators
match the published medians and overall CDF shape, which is all the
simulator consumes.  The real Azure trace can be replayed instead with
:meth:`repro.workload.trace.Trace.from_csv`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class TokenDistribution(ABC):
    """A distribution over positive integer token counts."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples as an integer array."""


@dataclass(frozen=True)
class LogNormalTokenDistribution(TokenDistribution):
    """Clipped log-normal distribution over token counts.

    Attributes:
        median_tokens: Median of the underlying log-normal.
        sigma: Log-space standard deviation (spread of the distribution).
        min_tokens: Lower clip (inclusive).
        max_tokens: Upper clip (inclusive).
    """

    median_tokens: float
    sigma: float
    min_tokens: int = 1
    max_tokens: int = 8192

    def __post_init__(self) -> None:
        if self.median_tokens <= 0:
            raise ValueError(f"median_tokens must be positive, got {self.median_tokens}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.min_tokens < 1:
            raise ValueError(f"min_tokens must be >= 1, got {self.min_tokens}")
        if self.max_tokens < self.min_tokens:
            raise ValueError(
                f"max_tokens ({self.max_tokens}) must be >= min_tokens ({self.min_tokens})"
            )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        raw = rng.lognormal(mean=math.log(self.median_tokens), sigma=self.sigma, size=size)
        return np.clip(np.rint(raw), self.min_tokens, self.max_tokens).astype(int)


@dataclass(frozen=True)
class MixtureTokenDistribution(TokenDistribution):
    """Weighted mixture of token distributions (used for bimodal outputs).

    Attributes:
        components: Component distributions.
        weights: Mixture weights; must sum to 1.
    """

    components: tuple[TokenDistribution, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must be non-empty and equal length")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if not math.isclose(sum(self.weights), 1.0, rel_tol=1e-6):
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if size == 0:
            return np.empty(0, dtype=int)
        choices = rng.choice(len(self.components), size=size, p=self.weights)
        out = np.empty(size, dtype=int)
        for index, component in enumerate(self.components):
            mask = choices == index
            count = int(mask.sum())
            if count:
                out[mask] = component.sample(rng, count)
        return out


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload: joint distribution of prompt and output token counts.

    Attributes:
        name: Workload identifier, e.g. ``"coding"``.
        prompt_tokens: Distribution of prompt (input) token counts.
        output_tokens: Distribution of generated (output) token counts.
    """

    name: str
    prompt_tokens: TokenDistribution
    output_tokens: TokenDistribution


#: Coding service: median prompt ~1500 tokens, median output ~13 tokens.
CODING_WORKLOAD = WorkloadSpec(
    name="coding",
    prompt_tokens=LogNormalTokenDistribution(median_tokens=1500, sigma=0.60, min_tokens=16, max_tokens=8192),
    output_tokens=LogNormalTokenDistribution(median_tokens=13, sigma=0.80, min_tokens=1, max_tokens=500),
)

#: Conversation service: median prompt ~1020 tokens, bimodal output, median ~129.
CONVERSATION_WORKLOAD = WorkloadSpec(
    name="conversation",
    prompt_tokens=LogNormalTokenDistribution(median_tokens=1020, sigma=0.95, min_tokens=8, max_tokens=8192),
    output_tokens=MixtureTokenDistribution(
        components=(
            LogNormalTokenDistribution(median_tokens=20, sigma=0.60, min_tokens=1, max_tokens=400),
            LogNormalTokenDistribution(median_tokens=350, sigma=0.60, min_tokens=32, max_tokens=1500),
        ),
        weights=(0.47, 0.53),
    ),
)

_REGISTRY: dict[str, WorkloadSpec] = {
    "CODING": CODING_WORKLOAD,
    "CONVERSATION": CONVERSATION_WORKLOAD,
}


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload by name (case-insensitive).

    Raises:
        KeyError: if the workload is not registered.
    """
    key = name.upper()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"Unknown workload {name!r}; known workloads: {known}")
    return _REGISTRY[key]
