"""Request-level latency summaries and percentile helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.simulation.request import Request


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of one latency metric (seconds).

    Attributes:
        count: Number of samples.
        mean: Arithmetic mean.
        p50: Median.
        p90: 90th percentile.
        p99: 99th percentile.
        max: Largest sample.
    """

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarize a non-empty sequence of latency samples.

        Accepts any sequence (including a numpy array) without an
        intermediate list copy; the three percentiles come from one
        ``np.percentile`` call (one partition of the samples).
        """
        if not isinstance(values, (Sequence, np.ndarray)):
            values = list(values)  # one-shot iterables (generators) stay accepted
        data = np.asarray(values, dtype=float)
        if data.size == 0:
            raise ValueError("cannot summarize an empty sequence")
        p50, p90, p99 = np.percentile(data, [50, 90, 99]).tolist()
        return cls(
            count=int(data.size),
            mean=float(data.mean()),
            p50=p50,
            p90=p90,
            p99=p99,
            max=float(data.max()),
        )


@dataclass(frozen=True)
class RequestMetrics:
    """Latency summaries of a set of completed requests.

    Attributes:
        ttft: Time-to-first-token summary.
        tbt: Time-between-tokens summary (per-request mean TBT).
        e2e: End-to-end latency summary.
        throughput_rps: Completed requests per second of simulated time.
        completed: Number of completed requests included.
        total: Number of requests submitted (completed or not).
    """

    ttft: LatencySummary
    tbt: LatencySummary
    e2e: LatencySummary
    throughput_rps: float
    completed: int
    total: int


def summarize_requests(requests: Iterable[Request], duration_s: float | None = None) -> RequestMetrics:
    """Summarize completed requests into the paper's metric set.

    Args:
        requests: All requests submitted to a simulation.
        duration_s: Wall-clock span used for throughput; defaults to the last
            completion time observed.

    Raises:
        ValueError: if no request completed.
    """
    all_requests = list(requests)
    completed = [r for r in all_requests if r.is_complete]
    if not completed:
        raise ValueError("no completed requests to summarize")
    ttfts = [r.ttft for r in completed if r.ttft is not None]
    e2es = [r.e2e_latency for r in completed if r.e2e_latency is not None]
    # Requests that emit a single token have no TBT sample; skip them.
    tbts = [tbt for tbt in (r.mean_tbt for r in completed) if tbt is not None]
    if not tbts:
        tbts = [0.0]
    if duration_s is None:
        duration_s = max(r.completion_time for r in completed if r.completion_time is not None)
    throughput = len(completed) / duration_s if duration_s and duration_s > 0 else 0.0
    return RequestMetrics(
        ttft=LatencySummary.from_values(ttfts),
        tbt=LatencySummary.from_values(tbts),
        e2e=LatencySummary.from_values(e2es),
        throughput_rps=throughput,
        completed=len(completed),
        total=len(all_requests),
    )
