"""Metrics: latency summaries, batch-occupancy accounting, SLOs, cost/power.

The paper reports four request-level metrics (Table II) — end-to-end latency,
time to first token, time between tokens, and throughput — plus cluster-level
metrics: time spent at each active-batched-token count (Figs. 4, 17), machine
power and energy, and cost.  SLOs (Table VI) are expressed as percentile
slowdowns relative to an uncontended DGX-A100 request.
"""

from repro.metrics.collectors import BatchOccupancyTracker, MetricsCollector, request_outcomes
from repro.metrics.slo import (
    DEFAULT_SLO,
    SloPolicy,
    SloReport,
    TenantSloReport,
    empty_slo_report,
    evaluate_slo,
    evaluate_slo_by_tenant,
)
from repro.metrics.summary import LatencySummary, RequestMetrics, percentile, summarize_requests
from repro.metrics.token_log import TokenLog

__all__ = [
    "MetricsCollector",
    "BatchOccupancyTracker",
    "request_outcomes",
    "TokenLog",
    "LatencySummary",
    "RequestMetrics",
    "percentile",
    "summarize_requests",
    "SloPolicy",
    "SloReport",
    "TenantSloReport",
    "DEFAULT_SLO",
    "evaluate_slo",
    "evaluate_slo_by_tenant",
    "empty_slo_report",
]
