"""Synthetic trace generation.

Combines a :class:`~repro.workload.distributions.WorkloadSpec` (token-size
distributions matching the published Azure CDFs) with an arrival process to
produce the traces that drive the cluster simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.workload.arrival import ArrivalProcess, PoissonArrivalProcess
from repro.workload.distributions import WorkloadSpec, get_workload
from repro.workload.trace import DEFAULT_TENANT, RequestDescriptor, Trace


@dataclass(frozen=True)
class TraceGenerator:
    """Generates synthetic traces for one workload.

    Attributes:
        workload: Token-size distributions to draw request shapes from.
        arrival: Arrival process controlling request timing.
        seed: Seed for the pseudo-random generator (deterministic traces).
        tenant: Tenant tag stamped on every generated request (multi-tenant
            traces are built by generating one trace per tenant and composing
            them; see :func:`repro.workload.scenarios.mix_traces`).
    """

    workload: WorkloadSpec
    arrival: ArrivalProcess
    seed: int = 0
    tenant: str = DEFAULT_TENANT

    def generate(self, duration_s: float) -> Trace:
        """Generate a trace covering ``duration_s`` seconds."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        rng = np.random.default_rng(self.seed)
        arrivals = self.arrival.arrival_times(rng, duration_s)
        count = len(arrivals)
        prompts = self.workload.prompt_tokens.sample(rng, count)
        outputs = self.workload.output_tokens.sample(rng, count)
        # One conversion per array instead of a numpy scalar per field.
        requests = tuple(
            map(
                RequestDescriptor,
                range(count),
                np.asarray(arrivals, dtype=np.float64).tolist(),
                np.asarray(prompts, dtype=np.int64).tolist(),
                np.asarray(outputs, dtype=np.int64).tolist(),
                repeat(self.tenant, count),
            )
        )
        name = f"{self.workload.name}-{self.arrival.rate_rps:g}rps-seed{self.seed}"
        metadata = {
            "workload": self.workload.name,
            "rate_rps": self.arrival.rate_rps,
            "duration_s": duration_s,
            "seed": self.seed,
        }
        if self.tenant != DEFAULT_TENANT:
            metadata["tenant"] = self.tenant
        return Trace(requests=requests, name=name, metadata=metadata)


def generate_trace(
    workload: str | WorkloadSpec = "conversation",
    rate_rps: float = 2.0,
    duration_s: float = 60.0,
    seed: int = 0,
) -> Trace:
    """Convenience wrapper: Poisson arrivals over a named workload.

    Args:
        workload: Workload name (``"coding"`` or ``"conversation"``) or a
            custom :class:`WorkloadSpec`.
        rate_rps: Average request arrival rate.
        duration_s: Trace length in seconds.
        seed: Random seed for reproducibility.
    """
    spec = get_workload(workload) if isinstance(workload, str) else workload
    generator = TraceGenerator(workload=spec, arrival=PoissonArrivalProcess(rate_rps), seed=seed)
    return generator.generate(duration_s)
