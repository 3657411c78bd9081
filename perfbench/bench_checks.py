"""Per-operation correctness checks of the end-to-end benchmark.

An *operation* is one simulation run plus its report.  It fails when it
raises, when its census does not close, or when its fingerprint differs
between passes of one benchmark invocation (the same seed gives the same
inputs, and the simulator is deterministic, so every pass must reproduce the
first one bit for bit).  The iso-power sweep adds one more operation per pass:
the paper's throughput ratio, which fails instead of returning ``inf`` when a
design sustains no load at all.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping, Sequence

#: Splitwise's headline iso-power throughput gain over Baseline-H100 (abstract:
#: "2.35x more throughput under the same power and cost budgets").
PAPER_ISO_POWER_RATIO = 2.35


def census(requests: Sequence[Any], submitted: int, shed_total: int | None = None,
           expired_total: int | None = None) -> dict:
    """Count every request's final state and check that the counts close.

    Counted from the request objects, never from a rounded completion rate.
    ``closed`` requires ``completed + shed + expired == submitted``, no request
    in two final states, and -- when the result keeps its own totals (fleet
    runs) -- those totals to agree with the per-request flags.
    """
    completed = shed = expired = doubled = 0
    for request in requests:
        states = int(request.is_complete) + int(bool(request.shed)) + int(bool(request.expired))
        doubled += states > 1
        completed += request.is_complete
        shed += bool(request.shed)
        expired += bool(request.expired)
    closed = (
        len(requests) == submitted
        and completed + shed + expired == submitted
        and doubled == 0
        and (shed_total is None or shed_total == shed)
        and (expired_total is None or expired_total == expired)
    )
    return {
        "submitted": submitted,
        "completed": completed,
        "shed": shed,
        "expired": expired,
        "closed": closed,
    }


def fingerprint(report_text: str, duration_s: float, requests: Iterable[Any]) -> str:
    """Digest of one operation's simulated output.

    Covers the rendered report, the simulated end time and every request's
    completion time, all as exact float bits.
    """
    digest = hashlib.sha256(report_text.encode())
    digest.update(float(duration_s).hex().encode())
    for request in requests:
        time_s = request.completion_time
        digest.update(b"-," if time_s is None else float(time_s).hex().encode() + b",")
    return digest.hexdigest()


def combined_fingerprint(ops: Sequence[Mapping]) -> str:
    """One digest over a pass's operations, in order (short form for reports)."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(f"{op['name']}={op['fingerprint']};".encode())
    return digest.hexdigest()[:16]


def fingerprint_mismatches(reference: Sequence[Mapping], ops: Sequence[Mapping]) -> list[str]:
    """Names of operations whose fingerprint differs from the reference pass.

    An operation missing from either side counts as a mismatch.
    """
    expected = {op["name"]: op["fingerprint"] for op in reference}
    seen = {op["name"]: op["fingerprint"] for op in ops}
    names = list(expected) + [name for name in seen if name not in expected]
    return [name for name in names if expected.get(name) != seen.get(name)]


def sustained_rate(per_rate: Mapping[float, Mapping[str, float]]) -> float:
    """Highest offered rate whose run met the SLO (0.0 when none did)."""
    return max((float(rate) for rate, row in per_rate.items() if row["slo_ok"]), default=0.0)


def paper_ratio(sweep: Mapping[str, Mapping[float, Mapping[str, float]]]) -> tuple[float, float]:
    """The iso-power throughput ratio and its error against the paper.

    Returns ``(ratio, |ratio / 2.35 - 1|)`` where ratio is the best Splitwise
    design's highest SLO-passing rate over Baseline-H100's.

    Raises:
        ValueError: if Baseline-H100 or every Splitwise design sustains 0 RPS,
            which would make the ratio 0 or infinite instead of a measurement.
    """
    base = sustained_rate(sweep["Baseline-H100"])
    best = max((sustained_rate(rows) for name, rows in sweep.items() if name.startswith("Splitwise")),
               default=0.0)
    if base <= 0.0:
        raise ValueError("Baseline-H100 sustains 0 RPS at every swept rate; the ratio is undefined")
    if best <= 0.0:
        raise ValueError("no Splitwise design sustains any swept rate; the ratio is undefined")
    ratio = best / base
    return ratio, abs(ratio / PAPER_ISO_POWER_RATIO - 1.0)
