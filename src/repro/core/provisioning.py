"""Cluster provisioning: the design-space search of §IV-D and Fig. 12.

Given a design family (e.g. Splitwise-HA), a workload (token-size
distributions), SLOs, and an optimization goal, the provisioner sweeps
machine counts or request rates through the cluster simulator:

* **iso-throughput, cost- or power-optimized** — find the cheapest (or lowest
  provisioned power) machine counts that sustain a target request rate
  (:meth:`Provisioner.size_for_throughput`);
* **sustainable rate** — the highest rate of a grid one design sustains
  (:meth:`Provisioner.max_throughput`), behind the headline claims.

Feasibility of a (design, rate) point requires that (almost) all requests
complete within the simulated window and that all nine Table VI SLO
percentiles hold.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.cluster import SimulationResult, simulate_design
from repro.core.designs import ClusterDesign, build_design
from repro.hardware.machine import DGX_A100
from repro.metrics.slo import DEFAULT_SLO, SloPolicy, SloReport
from repro.metrics.summary import RequestMetrics
from repro.models.llm import LLAMA2_70B, ModelSpec
from repro.models.performance import AnalyticalPerformanceModel, PerformanceModel
from repro.workload.distributions import WorkloadSpec, get_workload
from repro.workload.generator import generate_trace
from repro.workload.trace import Trace


class OptimizationGoal(enum.Enum):
    """What the provisioning search minimizes or maximizes."""

    COST = "cost"
    POWER = "power"


@dataclass(frozen=True)
class ProvisioningConstraints:
    """Feasibility constraints for a candidate configuration.

    Attributes:
        slo: Latency SLO every candidate must meet.
        min_completion_rate: Minimum fraction of trace requests that must
            complete (guards against configurations whose queues blow up).
    """

    slo: SloPolicy = DEFAULT_SLO
    min_completion_rate: float = 0.98


@dataclass(frozen=True)
class CandidateEvaluation:
    """One simulated (design, request rate) point in the search space.

    Attributes:
        design: The candidate cluster design.
        rate_rps: Request rate the candidate was evaluated at.
        feasible: Whether the candidate met the SLO and completion constraints.
        slo_report: Full SLO report.
        metrics: Latency/throughput summary of the simulation.
        completion_rate: Fraction of requests that completed.
    """

    design: ClusterDesign
    rate_rps: float
    feasible: bool
    slo_report: SloReport
    metrics: RequestMetrics
    completion_rate: float

    @property
    def cost_per_hour(self) -> float:
        """Cluster cost of this candidate in $/hr."""
        return self.design.cost_per_hour

    @property
    def provisioned_power_kw(self) -> float:
        """Provisioned power of this candidate in kW."""
        return self.design.provisioned_power_kw


@dataclass
class ProvisioningResult:
    """Outcome of a provisioning search.

    Attributes:
        best: The optimal feasible candidate (None if nothing was feasible).
        candidates: Every evaluated candidate (the Fig. 12 design space).
        goal: The optimization goal that selected ``best``.
    """

    best: CandidateEvaluation | None
    candidates: list[CandidateEvaluation] = field(default_factory=list)
    goal: OptimizationGoal = OptimizationGoal.COST


class Provisioner:
    """Design-space search driver.

    Args:
        model: LLM served by every candidate cluster.
        workload: Workload name or spec used to generate evaluation traces.
        trace_duration_s: Length of the synthetic evaluation trace.  The paper
            uses a 2-minute trace for provisioning sweeps; shorter traces make
            the sweep cheaper at some loss of tail fidelity.
        seed: Seed for trace generation (the same trace is reused across
            candidates at the same rate for a fair comparison).
        constraints: Feasibility constraints.
    """

    def __init__(
        self,
        model: ModelSpec = LLAMA2_70B,
        workload: str | WorkloadSpec = "coding",
        trace_duration_s: float = 60.0,
        seed: int = 0,
        constraints: ProvisioningConstraints | None = None,
    ) -> None:
        self.model = model
        self.workload = get_workload(workload) if isinstance(workload, str) else workload
        self.trace_duration_s = trace_duration_s
        self.seed = seed
        self.constraints = constraints or ProvisioningConstraints()
        self.reference_model: PerformanceModel = AnalyticalPerformanceModel(model, DGX_A100)
        self._trace_cache: dict[float, Trace] = {}

    # -- building blocks -------------------------------------------------------------

    def trace_at(self, rate_rps: float) -> Trace:
        """The evaluation trace for a given request rate (cached)."""
        if rate_rps not in self._trace_cache:
            self._trace_cache[rate_rps] = generate_trace(
                workload=self.workload,
                rate_rps=rate_rps,
                duration_s=self.trace_duration_s,
                seed=self.seed,
            )
        return self._trace_cache[rate_rps]

    def evaluate(self, design: ClusterDesign, rate_rps: float) -> CandidateEvaluation:
        """Simulate one (design, rate) candidate and judge feasibility."""
        trace = self.trace_at(rate_rps)
        result: SimulationResult = simulate_design(design, trace, model=self.model)
        slo_report = result.slo_report(reference_model=self.reference_model, policy=self.constraints.slo)
        metrics = result.request_metrics()
        completion = result.completion_rate
        feasible = slo_report.satisfied and completion >= self.constraints.min_completion_rate
        return CandidateEvaluation(
            design=design,
            rate_rps=rate_rps,
            feasible=feasible,
            slo_report=slo_report,
            metrics=metrics,
            completion_rate=completion,
        )

    def max_throughput(
        self, design: ClusterDesign, rates: Sequence[float]
    ) -> tuple[float, list[CandidateEvaluation]]:
        """Highest request rate (from ``rates``) the design sustains under SLO.

        Rates are scanned in ascending order; scanning stops after the first
        infeasible rate above a feasible one.  Feasibility is not monotone in
        rate near the frontier (a seed can fail at one rate and pass at a
        higher one), so the answer can depend on the grid and the seed.

        Returns:
            ``(max_rate, evaluations)`` where ``max_rate`` is 0.0 when even the
            lowest rate is infeasible.
        """
        evaluations: list[CandidateEvaluation] = []
        best_rate = 0.0
        for rate in sorted(rates):
            candidate = self.evaluate(design, rate)
            evaluations.append(candidate)
            if candidate.feasible:
                best_rate = rate
            elif best_rate > 0.0:
                break
        return best_rate, evaluations

    # -- searches ------------------------------------------------------------------------

    def size_for_throughput(
        self,
        family: str,
        target_rps: float,
        prompt_counts: Iterable[int],
        token_counts: Iterable[int] = (0,),
        goal: OptimizationGoal = OptimizationGoal.COST,
    ) -> ProvisioningResult:
        """Iso-throughput sizing: cheapest / lowest-power design meeting ``target_rps``.

        Args:
            family: Design family name.
            target_rps: Request rate every candidate must sustain.
            prompt_counts: Candidate prompt-pool sizes (or total machine
                counts for baseline families).
            token_counts: Candidate token-pool sizes (added to the prompt
                count for baselines).
            goal: COST or POWER.
        """
        candidates: list[CandidateEvaluation] = []
        for num_prompt, num_token in itertools.product(sorted(set(prompt_counts)), sorted(set(token_counts))):
            design = self._make_design(family, num_prompt, num_token)
            if design is None:
                continue
            candidates.append(self.evaluate(design, target_rps))
        best = self._select_best(candidates, goal)
        return ProvisioningResult(best=best, candidates=candidates, goal=goal)

    # -- helpers ---------------------------------------------------------------------------

    @staticmethod
    def _make_design(family: str, num_prompt: int, num_token: int) -> ClusterDesign | None:
        """A candidate sized by :func:`build_design`; None when a pool would be empty."""
        if num_prompt <= 0 or num_token < 0:
            return None
        design = build_design(family, num_prompt, num_token)
        return None if design.split and num_token == 0 else design

    def _select_best(
        self, candidates: Sequence[CandidateEvaluation], goal: OptimizationGoal
    ) -> CandidateEvaluation | None:
        feasible = [c for c in candidates if c.feasible]
        if not feasible:
            return None
        if goal is OptimizationGoal.COST:
            return min(feasible, key=lambda c: (c.cost_per_hour, c.design.num_machines))
        return min(feasible, key=lambda c: (c.provisioned_power_kw, c.design.num_machines))


def estimate_pool_sizes(
    design_family: str,
    rate_rps: float,
    workload: str | WorkloadSpec = "coding",
    model: ModelSpec = LLAMA2_70B,
    utilization_target: float = 0.7,
    sample_size: int = 4000,
    seed: int = 0,
) -> tuple[int, int]:
    """Analytically estimate the prompt/token pool sizes a load needs.

    This is the first-cut sizing the design-space search is seeded with: it
    divides the offered prompt-token and output-token demand by the
    per-machine phase throughput (from the performance model) and a target
    utilization.  The simulator then refines around this point.

    Args:
        design_family: Family name (determines machine types).
        rate_rps: Offered request rate.
        workload: Workload whose token-size distributions set the demand.
        model: LLM being served.
        utilization_target: Average machine utilization to plan for.
        sample_size: Number of samples used to estimate mean token counts.
        seed: Seed for the demand sample.

    Returns:
        ``(num_prompt, num_token)``; ``num_token`` is 0 for baseline families.
    """
    import numpy as np

    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if not 0 < utilization_target <= 1:
        raise ValueError(f"utilization_target must be in (0, 1], got {utilization_target}")
    probe = build_design(design_family, 1, 1)
    spec = get_workload(workload) if isinstance(workload, str) else workload
    rng = np.random.default_rng(seed)
    mean_prompt = float(np.mean(spec.prompt_tokens.sample(rng, sample_size)))
    mean_output = float(np.mean(spec.output_tokens.sample(rng, sample_size)))

    prompt_perf = AnalyticalPerformanceModel(model, probe.prompt_machine)
    token_perf = AnalyticalPerformanceModel(model, probe.token_machine)
    # Prompt capacity: tokens/s at the MLS batching limit of 2048 tokens.
    prompt_capacity = prompt_perf.prompt_throughput(2048) * utilization_target
    # Token capacity: tokens/s at a typical decode batch (32 requests).
    token_capacity = token_perf.token_throughput(32, int(32 * (mean_prompt + mean_output / 2))) * utilization_target

    prompt_demand = rate_rps * mean_prompt
    token_demand = rate_rps * mean_output
    num_prompt = max(1, int(np.ceil(prompt_demand / prompt_capacity)))
    num_token = max(1, int(np.ceil(token_demand / token_capacity)))
    if not probe.split:
        # Baselines run both phases everywhere: size for the combined demand.
        return max(1, num_prompt + num_token), 0
    return num_prompt, num_token


def find_max_throughput(
    design: ClusterDesign,
    rates: Sequence[float],
    model: ModelSpec = LLAMA2_70B,
    workload: str | WorkloadSpec = "coding",
    trace_duration_s: float = 60.0,
    seed: int = 0,
) -> float:
    """Convenience wrapper around :meth:`Provisioner.max_throughput`."""
    provisioner = Provisioner(model=model, workload=workload, trace_duration_s=trace_duration_s, seed=seed)
    best_rate, _ = provisioner.max_throughput(design, rates)
    return best_rate
