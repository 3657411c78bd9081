"""Service-level objectives (Table VI of the paper).

The paper expresses SLOs as *slowdowns* relative to the same request running
on a DGX-A100 with no contention: e.g. the P50 TTFT across all requests must
be within 2x of the uncontended TTFT, P90 within 3x, P99 within 6x, and
similarly for TBT and E2E.  All nine constraints must hold for a cluster
configuration to be considered as meeting its SLO at a given load.

For fleets serving several tenants, :func:`evaluate_slo_by_tenant` judges
every tenant, and the fleet roll-up, by the same Table VI policy and collects
the verdicts in a :class:`TenantSloReport`.  A tenant that submitted requests
but completed none reports ``nan`` slowdowns (never a vacuous pass),
mirroring the empty-series semantics of the single-cluster evaluator.
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
        fleet: Roll-up report over every request regardless of tenant.
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


def evaluate_slo(
    requests: Iterable[Request],
    reference_model: PerformanceModel,
    policy: SloPolicy = DEFAULT_SLO,
) -> SloReport:
    """Evaluate the Table VI SLO over a set of completed requests.

    Each achieved TTFT/TBT/E2E is divided by the latency the same request
    would see on the reference machine with no contention (computed from
    ``reference_model``), giving slowdowns whose percentiles are compared
    against the policy.

    TBT percentiles follow the paper's Table VI and are taken over the
    pooled *per-token* inter-token-gap distribution — a P99 over
    per-request means would hide per-token stalls inside long requests.

    A metric with no samples (e.g. no request generated a second token, so
    there are no TBT gaps) reports ``nan`` at its percentiles and the report
    is never marked satisfied: an unevaluable SLO must not pass vacuously.

    Args:
        requests: Requests from a simulation (incomplete ones are ignored).
        reference_model: Performance model of the uncontended reference
            machine (the paper uses DGX-A100).
        policy: The SLO percentile limits.

    Raises:
        ValueError: if no completed requests are supplied.
    """
    completed = [r for r in requests if r.is_complete]
    if not completed:
        raise ValueError("no completed requests to evaluate against the SLO")
    series, _ = _slowdown_series(completed, reference_model)
    return _report(series, policy.limits())


def _slowdown_series(
    completed: list[Request], reference_model: PerformanceModel
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Every TTFT, TBT and E2E slowdown of ``completed``, in request order.

    Returns the three series and, per metric, how many of its samples each
    request contributed (TTFT and E2E drop a request whose latency or
    reference is missing; TBT has one sample per token gap).
    """
    ref_ttft, ref_tbt, ref_e2e = reference_model.unbatched_latencies(
        [r.prompt_tokens for r in completed], [r.output_tokens for r in completed]
    )
    # None (no first token / no completion) reads as nan and is dropped.
    ttft = np.array([r.ttft for r in completed], dtype=np.float64)
    e2e = np.array([r.e2e_latency for r in completed], dtype=np.float64)
    ttft_kept = ~np.isnan(ttft) & (ref_ttft > 0)
    e2e_kept = ~np.isnan(e2e) & (ref_e2e > 0)
    tbt, tbt_counts = _tbt_slowdown_pool(completed, ref_tbt.tolist())
    series = {
        "ttft": ttft[ttft_kept] / ref_ttft[ttft_kept],
        "tbt": tbt,
        "e2e": e2e[e2e_kept] / ref_e2e[e2e_kept],
    }
    counts = {"ttft": ttft_kept.astype(np.int64), "tbt": tbt_counts, "e2e": e2e_kept.astype(np.int64)}
    return series, counts


def _report(series: dict[str, np.ndarray], limits: dict[tuple[str, float], float]) -> SloReport:
    """Percentile slowdowns of each series against ``limits``.

    Partitions every series in place (one partition for all of a metric's
    percentiles).  An empty series reports ``nan`` at each of its
    percentiles.
    """
    samples = {metric: int(values.size) for metric, values in series.items()}
    slowdowns: dict[tuple[str, float], float] = {}
    for metric, values in series.items():
        keys = [key for key in limits if key[0] == metric]
        if not values.size:
            slowdowns.update(dict.fromkeys(keys, float("nan")))
        elif keys:
            points = np.percentile(values, [pct for _, pct in keys], overwrite_input=True)
            slowdowns.update(zip(keys, points.tolist()))
    return SloReport(slowdowns=slowdowns, limits=limits, samples=samples)


def _tbt_slowdown_pool(completed: list[Request], ref_tbt: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Every token gap of ``completed``, divided by its request's reference TBT.

    One preallocated buffer: each request's gaps are subtracted straight
    into its segment and divided there (the float64 operations of
    ``np.diff(times) / ref``), so no per-request array or concatenated copy
    of the token times is built.  Also returns each request's segment
    length (0 for a request with no gap or no reference).
    """
    counts = np.array(
        [max(len(r.token_times) - 1, 0) if ref > 0 else 0 for r, ref in zip(completed, ref_tbt)],
        dtype=np.int64,
    )
    pool = np.empty(int(counts.sum()))
    start = 0
    for request, count, ref in zip(completed, counts.tolist(), ref_tbt):
        if count:
            times = np.frombuffer(request.token_times)
            segment = pool[start : start + count]
            np.subtract(times[1:], times[:-1], out=segment)
            segment /= ref
            start += count
    return pool, counts


def evaluate_slo_by_tenant(requests: Iterable[Request], reference_model: PerformanceModel) -> TenantSloReport:
    """Judge every tenant, and the fleet as a whole, by the Table VI SLO.

    Requests are grouped by their ``tenant`` tag.  Tenants appear in the
    report whenever they *submitted* at least one request: a tenant whose
    requests all failed to complete gets an all-``nan`` report, so a dropped
    tenant can never make the fleet look compliant.

    The completed requests are laid out tenant by tenant, so every
    slowdown is computed once: each tenant's percentiles are taken on its
    slice of the series, then the roll-up's on the whole series.  A
    percentile does not depend on element order, so partitioning the
    slices in place leaves every roll-up value unchanged.

    Attempt semantics: a retried or hedged request contributes exactly one
    sample — the fleet layer resolves every attempt back to its logical
    request before it reaches this function (hedge clones never enter the
    submitted list, and restarts reuse the original request object), so
    latencies are measured from the *original* arrival to the winning
    attempt's completion.

    Args:
        requests: Requests from a simulation (any mix of tenants).
        reference_model: Uncontended reference machine model.
    """
    all_requests = list(requests)
    by_tenant: dict[str, list[Request]] = {}
    for request in all_requests:
        by_tenant.setdefault(request.tenant, []).append(request)

    completed: list[Request] = []
    ends: list[int] = []
    goodput: dict[str, float] = {}
    degraded_goodput: dict[str, float] = {}
    expired_by_tenant: dict[str, int] = {}
    tenants = sorted(by_tenant)
    for tenant in tenants:
        group = by_tenant[tenant]
        served = [r for r in group if r.is_complete]
        completed.extend(served)
        ends.append(len(completed))
        goodput[tenant] = len(served) / len(group)
        degraded = sum(1 for r in served if getattr(r, "degraded", False))
        if degraded:
            degraded_goodput[tenant] = degraded / len(group)
        expired = sum(1 for r in group if getattr(r, "expired", False))
        if expired:
            expired_by_tenant[tenant] = expired

    series, counts = _slowdown_series(completed, reference_model)
    limits = DEFAULT_SLO.limits()
    # Tenant i's samples of a metric are series[metric][cut[i]:cut[i + 1]].
    cuts = {
        metric: np.concatenate(([0], np.cumsum(per_request)))[[0, *ends]].tolist()
        for metric, per_request in counts.items()
    }
    reports = {
        tenant: _report(
            {metric: values[cuts[metric][i] : cuts[metric][i + 1]] for metric, values in series.items()},
            limits,
        )
        for i, tenant in enumerate(tenants)
    }
    fleet = _report(series, limits)
    fleet_goodput = len(completed) / len(all_requests) if all_requests else float("nan")
    fleet_degraded = sum(1 for r in completed if getattr(r, "degraded", False))
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
