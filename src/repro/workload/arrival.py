"""Request arrival processes.

The paper tunes a Poisson arrival rate over the production token-size
distributions to sweep cluster load (requests per second) when sizing
clusters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class ArrivalProcess(ABC):
    """Generates request arrival timestamps (seconds from trace start)."""

    rate_rps: float

    @abstractmethod
    def arrival_times(self, rng: np.random.Generator, duration_s: float) -> np.ndarray:
        """Arrival times within ``[0, duration_s)``, sorted ascending."""


def homogeneous_poisson_times(
    rng: np.random.Generator, rate_rps: float, duration_s: float
) -> np.ndarray:
    """Sorted homogeneous-Poisson arrival times in ``[0, duration_s)``.

    The shared sampling kernel for every Poisson-derived process (stationary
    and the piecewise/thinned/modulated processes in
    :mod:`repro.workload.scenarios`): draw enough exponential gaps to cover
    the window with margin, then top up in the unlikely case the draw fell
    short.  Consumes no randomness when the window or rate is empty.
    """
    if rate_rps <= 0.0 or duration_s <= 0.0:
        return np.empty(0, dtype=float)
    expected = rate_rps * duration_s
    gaps = rng.exponential(1.0 / rate_rps, size=max(16, int(expected * 1.3) + 16))
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration_s:
        extra = rng.exponential(1.0 / rate_rps, size=max(16, int(expected * 0.3) + 16))
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    return times[times < duration_s]


@dataclass(frozen=True)
class PoissonArrivalProcess(ArrivalProcess):
    """Memoryless arrivals at an average of ``rate_rps`` requests per second."""

    rate_rps: float

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")

    def arrival_times(self, rng: np.random.Generator, duration_s: float) -> np.ndarray:
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        return homogeneous_poisson_times(rng, self.rate_rps, duration_s)
