"""Service-level objectives (Table VI of the paper).

The paper expresses SLOs as *slowdowns* relative to the same request running
on a DGX-A100 with no contention: e.g. the P50 TTFT across all requests must
be within 2x of the uncontended TTFT, P90 within 3x, P99 within 6x, and
similarly for TBT and E2E.  All nine constraints must hold for a cluster
configuration to be considered as meeting its SLO at a given load.

For fleets serving several tenants, :func:`evaluate_slo_by_tenant` evaluates
the same machinery *per tenant* — each tenant may carry its own
:class:`SloPolicy` — and rolls the verdicts up into a fleet-level
:class:`TenantSloReport`.  A tenant that submitted requests but completed
none reports ``nan`` slowdowns (never a vacuous pass), mirroring the
empty-series semantics of the single-cluster evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.models.performance import PerformanceModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.simulation.request import Request


@dataclass(frozen=True)
class SloPolicy:
    """Percentile slowdown limits for TTFT, TBT, and E2E.

    Attributes map metric name to ``{percentile: max_slowdown}``.
    """

    ttft: Mapping[float, float] = field(default_factory=lambda: {50: 2.0, 90: 3.0, 99: 6.0})
    tbt: Mapping[float, float] = field(default_factory=lambda: {50: 1.25, 90: 1.5, 99: 5.0})
    e2e: Mapping[float, float] = field(default_factory=lambda: {50: 1.25, 90: 1.5, 99: 5.0})

    def limits(self) -> dict[tuple[str, float], float]:
        """Flatten into ``{(metric, percentile): max_slowdown}``."""
        flat: dict[tuple[str, float], float] = {}
        for metric, table in (("ttft", self.ttft), ("tbt", self.tbt), ("e2e", self.e2e)):
            for pct, limit in table.items():
                flat[(metric, float(pct))] = float(limit)
        return flat


#: The paper's Table VI SLO.
DEFAULT_SLO = SloPolicy()


@dataclass(frozen=True)
class SloReport:
    """Outcome of evaluating the SLO for one simulation run.

    Attributes:
        slowdowns: Achieved slowdown at each ``(metric, percentile)``.  A
            metric with no samples reports ``nan`` at every percentile — an
            unevaluable constraint is never treated as satisfied.
        limits: Allowed slowdown at each ``(metric, percentile)``.
        samples: Number of slowdown samples behind each metric's percentiles
            (guards against vacuous verdicts: a satisfied report with zero
            samples somewhere is impossible by construction).
    """

    slowdowns: Mapping[tuple[str, float], float]
    limits: Mapping[tuple[str, float], float]
    samples: Mapping[str, int] = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        """True when every percentile slowdown is within its limit.

        A ``nan`` slowdown (metric with no samples) fails its comparison, so
        a report with a missing series is never satisfied.
        """
        return all(self.slowdowns[key] <= self.limits[key] for key in self.limits)

    def missing_series(self) -> list[str]:
        """Metrics that produced no slowdown samples (reported as ``nan``)."""
        missing = {metric for (metric, _), value in self.slowdowns.items() if np.isnan(value)}
        return sorted(missing)

    def violations(self) -> dict[tuple[str, float], float]:
        """Every (metric, percentile) whose limit is exceeded or unevaluable."""
        return {
            key: self.slowdowns[key]
            for key in self.limits
            if not self.slowdowns[key] <= self.limits[key]
        }

    def worst_margin(self) -> float:
        """Largest ratio of achieved slowdown to allowed slowdown (<=1 means pass).

        ``nan`` when any metric could not be evaluated.
        """
        ratios = [self.slowdowns[key] / self.limits[key] for key in self.limits]
        if any(np.isnan(ratio) for ratio in ratios):
            return float("nan")
        return max(ratios)


@dataclass(frozen=True)
class TenantSloReport:
    """Per-tenant SLO verdicts plus the fleet-level roll-up.

    Attributes:
        tenants: Each tenant's :class:`SloReport` (keyed by tenant tag).
            Every tenant that *submitted* a request appears here — a tenant
            with no completions gets an all-``nan`` report, which can never
            be satisfied.
        fleet: Roll-up report over every request regardless of tenant,
            evaluated against ``fleet_policy``.
        goodput: Fraction of each tenant's *submitted* requests that
            completed.  Distinct from SLO attainment: admission shedding,
            deadline expiry, and failures reduce goodput even when the
            requests that were served met every latency target.  Degraded
            completions count toward goodput — the request was answered,
            just shorter — with their share reported separately in
            ``degraded_goodput``.
        fleet_goodput: Completed fraction over all submitted requests
            (``nan`` when no requests were submitted).
        degraded_goodput: Fraction of each tenant's submitted requests that
            completed *degraded* (a subset of ``goodput``).
        fleet_degraded_goodput: Degraded-completed fraction over all
            submitted requests (0.0 when none were degraded).
        expired_by_tenant: Requests cancelled by the lifecycle layer
            (missed deadline or exhausted retry budget), per tenant.
    """

    tenants: Mapping[str, SloReport]
    fleet: SloReport
    goodput: Mapping[str, float] = field(default_factory=dict)
    fleet_goodput: float = float("nan")
    degraded_goodput: Mapping[str, float] = field(default_factory=dict)
    fleet_degraded_goodput: float = 0.0
    expired_by_tenant: Mapping[str, int] = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        """True when every tenant's SLO holds (and at least one tenant exists)."""
        return bool(self.tenants) and all(report.satisfied for report in self.tenants.values())

    def unsatisfied_tenants(self) -> list[str]:
        """Tenants whose SLO is violated or unevaluable, sorted."""
        return sorted(t for t, report in self.tenants.items() if not report.satisfied)

    def samples_by_tenant(self) -> dict[str, dict[str, int]]:
        """Per-tenant sample counts behind each metric (vacuousness guard)."""
        return {tenant: dict(report.samples) for tenant, report in self.tenants.items()}

    def as_dict(self) -> dict:
        """JSON-friendly summary (used by the fleet CLI's ``--json`` payload)."""
        return {
            "satisfied": self.satisfied,
            "unsatisfied_tenants": self.unsatisfied_tenants(),
            "tenants": {
                tenant: {
                    "satisfied": report.satisfied,
                    "violations": len(report.violations()),
                    "samples": dict(report.samples),
                    "missing_series": report.missing_series(),
                    "goodput": self.goodput.get(tenant),
                    "degraded_goodput": self.degraded_goodput.get(tenant, 0.0),
                    "expired": self.expired_by_tenant.get(tenant, 0),
                }
                for tenant, report in self.tenants.items()
            },
            "fleet": {
                "satisfied": self.fleet.satisfied,
                "violations": len(self.fleet.violations()),
                "samples": dict(self.fleet.samples),
                "goodput": None if np.isnan(self.fleet_goodput) else self.fleet_goodput,
                "degraded_goodput": self.fleet_degraded_goodput,
                "expired": sum(self.expired_by_tenant.values()),
            },
        }


def empty_slo_report(policy: SloPolicy = DEFAULT_SLO) -> SloReport:
    """An all-``nan`` report for a request set with no completions.

    Used by the per-tenant evaluator for tenants that submitted requests but
    completed none: the report carries zero samples everywhere, every
    percentile is ``nan``, and :attr:`SloReport.satisfied` is ``False`` — an
    unevaluable SLO never passes.
    """
    limits = policy.limits()
    return SloReport(
        slowdowns={key: float("nan") for key in limits},
        limits=limits,
        samples={"ttft": 0, "tbt": 0, "e2e": 0},
    )


def evaluate_slo(
    requests: Iterable[Request],
    reference_model: PerformanceModel,
    policy: SloPolicy = DEFAULT_SLO,
    tbt_mode: str = "per-token",
) -> SloReport:
    """Evaluate the Table VI SLO over a set of completed requests.

    Each achieved TTFT/TBT/E2E is divided by the latency the same request
    would see on the reference machine with no contention (computed from
    ``reference_model``), giving slowdowns whose percentiles are compared
    against the policy.

    TBT percentiles follow the paper's Table VI and are taken over the
    pooled *per-token* inter-token-gap distribution by default — a P99 over
    per-request means would hide per-token stalls inside long requests.  Set
    ``tbt_mode="per-request-mean"`` for the coarser legacy definition.

    A metric with no samples (e.g. no request generated a second token, so
    there are no TBT gaps) reports ``nan`` at its percentiles and the report
    is never marked satisfied: an unevaluable SLO must not pass vacuously.

    Args:
        requests: Requests from a simulation (incomplete ones are ignored).
        reference_model: Performance model of the uncontended reference
            machine (the paper uses DGX-A100).
        policy: The SLO percentile limits.
        tbt_mode: ``"per-token"`` (paper-faithful pooled distribution) or
            ``"per-request-mean"``.

    Raises:
        ValueError: if no completed requests are supplied, or ``tbt_mode``
            is unknown.
    """
    if tbt_mode not in ("per-token", "per-request-mean"):
        raise ValueError(f"tbt_mode must be 'per-token' or 'per-request-mean', got {tbt_mode!r}")
    completed = [r for r in requests if r.is_complete]
    if not completed:
        raise ValueError("no completed requests to evaluate against the SLO")

    ttft_slowdowns: list[float] = []
    e2e_slowdowns: list[float] = []
    # Pooled per-token TBT slowdowns are the one genuinely large series
    # (every generated token contributes a gap): each request's interval
    # array is divided by its reference TBT in one vectorized operation —
    # identical float64 divisions to the old per-gap loop — and the pool is
    # a single concatenation instead of millions of list appends.
    tbt_parts: list[np.ndarray] = []
    tbt_means: list[float] = []
    per_token = tbt_mode == "per-token"
    for request in completed:
        ref_ttft = reference_model.ttft(request.prompt_tokens)
        ref_tbt = reference_model.tbt(1, request.prompt_tokens)
        ref_e2e = reference_model.e2e_latency(request.prompt_tokens, request.output_tokens)
        if request.ttft is not None and ref_ttft > 0:
            ttft_slowdowns.append(request.ttft / ref_ttft)
        if ref_tbt > 0:
            if per_token:
                gaps = request.token_intervals_np
                if gaps.size:
                    tbt_parts.append(gaps / ref_tbt)
            elif request.mean_tbt is not None:
                tbt_means.append(request.mean_tbt / ref_tbt)
        if request.e2e_latency is not None and ref_e2e > 0:
            e2e_slowdowns.append(request.e2e_latency / ref_e2e)

    if per_token:
        tbt_pool = np.concatenate(tbt_parts) if tbt_parts else np.empty(0, dtype=np.float64)
    else:
        tbt_pool = np.asarray(tbt_means, dtype=np.float64)
    series: dict[str, np.ndarray] = {
        "ttft": np.asarray(ttft_slowdowns, dtype=np.float64),
        "tbt": tbt_pool,
        "e2e": np.asarray(e2e_slowdowns, dtype=np.float64),
    }
    slowdowns: dict[tuple[str, float], float] = {}
    for (metric, pct), _limit in policy.limits().items():
        values = series[metric]
        slowdowns[(metric, pct)] = float(np.percentile(values, pct)) if values.size else float("nan")
    samples = {metric: int(values.size) for metric, values in series.items()}
    return SloReport(slowdowns=slowdowns, limits=policy.limits(), samples=samples)


def evaluate_slo_by_tenant(
    requests: Iterable[Request],
    reference_model: PerformanceModel,
    policies: Mapping[str, SloPolicy] | None = None,
    default_policy: SloPolicy = DEFAULT_SLO,
    fleet_policy: SloPolicy | None = None,
    tbt_mode: str = "per-token",
) -> TenantSloReport:
    """Evaluate the SLO separately for every tenant, plus a fleet roll-up.

    Requests are grouped by their ``tenant`` tag; each group is evaluated
    against that tenant's policy (``policies[tenant]``, falling back to
    ``default_policy``).  Tenants appear in the report whenever they
    *submitted* at least one request: a tenant whose requests all failed to
    complete gets the all-``nan`` :func:`empty_slo_report`, so a dropped
    tenant can never make the fleet look compliant.

    Attempt semantics: a retried or hedged request contributes exactly one
    sample — the fleet layer resolves every attempt back to its logical
    request before it reaches this function (hedge clones never enter the
    submitted list, and restarts reuse the original request object), so
    latencies are measured from the *original* arrival to the winning
    attempt's completion.

    Args:
        requests: Requests from a simulation (any mix of tenants).
        reference_model: Uncontended reference machine model.
        policies: Optional per-tenant SLO overrides.
        default_policy: Policy for tenants without an explicit entry.
        fleet_policy: Policy for the roll-up over all requests (defaults to
            ``default_policy``).
        tbt_mode: See :func:`evaluate_slo`.
    """
    policies = policies or {}
    all_requests = list(requests)
    by_tenant: dict[str, list[Request]] = {}
    for request in all_requests:
        by_tenant.setdefault(request.tenant, []).append(request)

    reports: dict[str, SloReport] = {}
    goodput: dict[str, float] = {}
    degraded_goodput: dict[str, float] = {}
    expired_by_tenant: dict[str, int] = {}
    for tenant in sorted(by_tenant):
        policy = policies.get(tenant, default_policy)
        group = by_tenant[tenant]
        completed = sum(1 for r in group if r.is_complete)
        goodput[tenant] = completed / len(group)
        degraded = sum(1 for r in group if r.is_complete and getattr(r, "degraded", False))
        if degraded:
            degraded_goodput[tenant] = degraded / len(group)
        expired = sum(1 for r in group if getattr(r, "expired", False))
        if expired:
            expired_by_tenant[tenant] = expired
        if completed:
            reports[tenant] = evaluate_slo(group, reference_model, policy, tbt_mode=tbt_mode)
        else:
            reports[tenant] = empty_slo_report(policy)

    roll_up_policy = fleet_policy or default_policy
    fleet_completed = sum(1 for r in all_requests if r.is_complete)
    if fleet_completed:
        fleet = evaluate_slo(all_requests, reference_model, roll_up_policy, tbt_mode=tbt_mode)
    else:
        fleet = empty_slo_report(roll_up_policy)
    fleet_goodput = fleet_completed / len(all_requests) if all_requests else float("nan")
    fleet_degraded = sum(
        1 for r in all_requests if r.is_complete and getattr(r, "degraded", False)
    )
    fleet_degraded_goodput = fleet_degraded / len(all_requests) if all_requests else 0.0
    return TenantSloReport(
        tenants=reports,
        fleet=fleet,
        goodput=goodput,
        fleet_goodput=fleet_goodput,
        degraded_goodput=degraded_goodput,
        fleet_degraded_goodput=fleet_degraded_goodput,
        expired_by_tenant=expired_by_tenant,
    )
