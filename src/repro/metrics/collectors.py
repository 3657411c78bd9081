"""Cluster-level metric collection.

Two collectors are provided:

* :class:`BatchOccupancyTracker` — accumulates the time a machine spends
  executing each active-batched-token count, producing the CDFs of Fig. 4
  and Fig. 17.
* :class:`MetricsCollector` — cluster-wide aggregation: per-machine busy
  time, energy, and the batch occupancy of every machine, plus helpers to
  derive utilization and the weighted occupancy distribution over machine
  groups (e.g. "all Splitwise-HH prompt machines").

:func:`census` counts a drained run's requests by terminal outcome
(completed / shed / expired, plus degraded completions) and checks that the
counts close — the census every run summary carries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.metrics.token_log import TokenLog


def census(
    requests: Iterable,
    shed_total: int | None = None,
    expired_total: int | None = None,
) -> dict[str, int]:
    """Exact outcome counts of a drained run.

    Every submitted request ends in exactly one terminal outcome: completed,
    shed (rejected by admission control, or by a fleet with no cluster able
    to take it) or expired (cancelled by a deadline or an exhausted retry
    budget).  So the returned ``submitted``,
    ``completed``, ``shed`` and ``expired`` counts satisfy
    ``completed + shed + expired == submitted``; ``degraded`` counts the
    completions served with a truncated output budget (a subset of
    ``completed``).

    Args:
        requests: The run's submitted requests.
        shed_total: The run's own count of shed requests (a fleet keeps one),
            checked against the per-request flags.
        expired_total: Likewise for expired requests.

    Raises:
        ValueError: if a request has no terminal outcome (it is still in
            flight, as after a horizon-cut run) or more than one, or if
            ``shed_total`` / ``expired_total`` disagree with the flags.
    """
    submitted = completed = shed = expired = degraded = 0
    for request in requests:
        outcomes = (request.is_complete, request.shed, request.expired)
        if sum(outcomes) != 1:
            raise ValueError(
                f"census does not close: request {request.request_id} has "
                f"completed/shed/expired = {outcomes}"
            )
        submitted += 1
        completed += outcomes[0]
        degraded += outcomes[0] and request.degraded
        shed += outcomes[1]
        expired += outcomes[2]
    for name, total, counted in (("shed", shed_total, shed), ("expired", expired_total, expired)):
        if total is not None and total != counted:
            raise ValueError(
                f"census does not close: the run counts {total} {name} requests, "
                f"the request flags {counted}"
            )
    return {
        "submitted": submitted,
        "completed": completed,
        "shed": shed,
        "expired": expired,
        "degraded": degraded,
    }


class BatchOccupancyTracker:
    """Accumulates time spent at each active-batched-token count.

    "Active tokens" follows the paper's Fig. 4 definition: a request in its
    prompt phase contributes its full prompt size; a request in its token
    phase contributes one.
    """

    def __init__(self) -> None:
        self._durations: dict[int, float] = defaultdict(float)

    def record(self, active_tokens: int, duration_s: float) -> None:
        """Add ``duration_s`` seconds spent running ``active_tokens`` tokens."""
        if active_tokens < 0:
            raise ValueError(f"active_tokens must be non-negative, got {active_tokens}")
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        if duration_s > 0:
            self._durations[active_tokens] += duration_s

    def record_bulk(self, active_tokens: int, durations_s: Sequence[float]) -> None:
        """Accumulate many same-occupancy samples in one call.

        Bit-identical to calling :meth:`record` once per duration — the
        samples are added to the bucket sequentially, in order, and
        non-positive samples are skipped exactly as :meth:`record` skips them
        (no bucket is created for them either) — with a single dict access
        for the whole run.
        """
        if active_tokens < 0:
            raise ValueError(f"active_tokens must be non-negative, got {active_tokens}")
        if not durations_s:
            return
        total = self._durations.get(active_tokens, 0.0)
        recorded = False
        for duration_s in durations_s:
            if duration_s > 0:
                total += duration_s
                recorded = True
        if recorded:
            self._durations[active_tokens] = total

    @property
    def total_time(self) -> float:
        """Total recorded time in seconds."""
        return sum(self._durations.values())

    def as_mapping(self) -> dict[int, float]:
        """Copy of the raw (active_tokens -> seconds) mapping."""
        return dict(self._durations)

    def merge(self, other: "BatchOccupancyTracker") -> None:
        """Fold another tracker's samples into this one."""
        for tokens, duration in other._durations.items():
            self._durations[tokens] += duration

    def cdf(self) -> list[tuple[int, float]]:
        """Cumulative distribution of time vs active tokens.

        Returns ``(active_tokens, cumulative_fraction)`` pairs sorted by
        token count — directly plottable as Fig. 4 / Fig. 17.  Vectorized:
        one ``np.cumsum`` over the sorted buckets replaces the Python
        accumulation loop (``np.cumsum`` accumulates sequentially, so the
        running totals carry the same left-to-right float additions).
        """
        total = self.total_time
        if total == 0:
            return []
        tokens = sorted(self._durations)
        durations = np.asarray([self._durations[t] for t in tokens], dtype=np.float64)
        fractions = np.cumsum(durations) / total
        return list(zip(tokens, fractions.tolist()))

    def fraction_at_or_below(self, active_tokens: int) -> float:
        """Fraction of time spent at or below ``active_tokens`` active tokens."""
        total = self.total_time
        if total == 0:
            return 0.0
        below = sum(d for t, d in self._durations.items() if t <= active_tokens)
        return below / total


@dataclass(slots=True)
class MachineStats:
    """Aggregated statistics for one simulated machine.

    A slotted dataclass: :meth:`add_iteration` runs once per simulated
    iteration across the whole cluster, and slot access keeps that hot path
    free of per-instance ``__dict__`` lookups.

    Attributes:
        busy_time_s: Time spent executing non-empty iterations.
        energy_wh: GPU energy consumed across all iterations.
        iterations: Number of iterations executed.
        prompt_tokens_processed: Total prompt tokens processed.
        tokens_generated: Total output tokens generated.
        occupancy: Batch-occupancy tracker for this machine.
    """

    busy_time_s: float = 0.0
    energy_wh: float = 0.0
    iterations: int = 0
    prompt_tokens_processed: int = 0
    tokens_generated: int = 0
    occupancy: BatchOccupancyTracker = field(default_factory=BatchOccupancyTracker)

    def add_iteration(
        self,
        duration_s: float,
        active_tokens: int,
        energy_wh: float,
        prompt_tokens: int,
        tokens_generated: int,
    ) -> None:
        """Accumulate one executed iteration (the single write point).

        Machines hold their stats row and call this on every iteration they
        step individually; coalesced runs go through
        :meth:`MetricsCollector.record_coalesced`.
        """
        self.busy_time_s += duration_s
        self.energy_wh += energy_wh
        self.iterations += 1
        self.prompt_tokens_processed += prompt_tokens
        self.tokens_generated += tokens_generated
        self.occupancy.record(active_tokens, duration_s)


class MetricsCollector:
    """Cluster-wide metric aggregation keyed by machine name.

    Also owns the cluster's :class:`~repro.metrics.token_log.TokenLog`, the
    count of token-generating iteration boundaries its machines stepped.
    """

    def __init__(self) -> None:
        self._machines: dict[str, MachineStats] = defaultdict(MachineStats)
        self.token_log = TokenLog()

    def record_coalesced(
        self,
        machine: str,
        count: int,
        active_tokens: int,
        durations_s: Sequence[float],
        energies_wh: Sequence[float],
        tokens_per_iteration: int,
    ) -> None:
        """Record ``count`` coalesced decode iterations in one call.

        Equivalent — including float accumulation order — to ``count``
        successive :meth:`MachineStats.add_iteration` calls with the given
        per-iteration durations and energies, all at ``active_tokens`` occupancy with
        ``tokens_per_iteration`` tokens generated each.  Used by the decode
        fast-forward engine to commit a macro-iteration without per-iteration
        collector overhead.
        """
        if count <= 0:
            return
        stats = self._machines[machine]
        busy = stats.busy_time_s
        for duration_s in durations_s:
            busy += duration_s
        stats.busy_time_s = busy
        energy = stats.energy_wh
        for energy_wh in energies_wh:
            energy += energy_wh
        stats.energy_wh = energy
        stats.iterations += count
        stats.tokens_generated += count * tokens_per_iteration
        stats.occupancy.record_bulk(active_tokens, durations_s)

    def machine_stats(self, machine: str) -> MachineStats:
        """Stats for one machine (empty stats if it never ran).

        Machines pre-register their stats row at construction (holding the
        row skips a name lookup per recorded iteration), so a row's mere
        existence does not mean the machine ever ran — activity-filtered
        views use the iteration count.
        """
        return self._machines[machine]

    # -- shard transfer ------------------------------------------------------------

    def export_machine_stats(self) -> dict[str, dict]:
        """Serialize per-machine stats as plain picklable dicts.

        Used by the sharded fleet runner: shard workers export their
        collectors' rows, the coordinator absorbs them via
        :meth:`absorb_machine_stats`.  Insertion (registration) order is
        preserved so a round trip is deterministic.
        """
        return {
            name: {
                "busy_time_s": stats.busy_time_s,
                "energy_wh": stats.energy_wh,
                "iterations": stats.iterations,
                "prompt_tokens_processed": stats.prompt_tokens_processed,
                "tokens_generated": stats.tokens_generated,
                "occupancy": stats.occupancy.as_mapping(),
            }
            for name, stats in self._machines.items()
        }

    def absorb_machine_stats(self, exported: Mapping[str, Mapping]) -> None:
        """Overwrite per-machine rows from :meth:`export_machine_stats` output.

        Rows are assigned, not accumulated: the coordinator's collector holds
        pre-registered empty rows for machines simulated remotely, and the
        shard's exported row replaces each wholesale.
        """
        for name, row in exported.items():
            stats = self._machines[name]
            stats.busy_time_s = row["busy_time_s"]
            stats.energy_wh = row["energy_wh"]
            stats.iterations = row["iterations"]
            stats.prompt_tokens_processed = row["prompt_tokens_processed"]
            stats.tokens_generated = row["tokens_generated"]
            occupancy = BatchOccupancyTracker()
            for tokens, duration in row["occupancy"].items():
                occupancy._durations[tokens] = duration
            stats.occupancy = occupancy

    # -- aggregation ---------------------------------------------------------------

    def total_energy_wh(self) -> float:
        """Total GPU energy across the cluster in watt-hours."""
        return sum(s.energy_wh for s in self._machines.values())

    def group_occupancy(self, machines: Iterable[str]) -> BatchOccupancyTracker:
        """Merge the occupancy trackers of a group of machines (Fig. 17)."""
        merged = BatchOccupancyTracker()
        for name in machines:
            merged.merge(self._machines[name].occupancy)
        return merged
