"""Count of the iteration boundaries at which a cluster generated tokens.

Token times themselves are recorded on each request
(:attr:`~repro.simulation.request.Request.token_times`); the log only counts
the per-iteration boundaries that produced decode tokens, one per
``SimulatedMachine._finish_iteration`` that serviced at least one token
request.  The iterations a fast-forward run commits in bulk are not
counted; its last iteration, which the macro-event steps through
``_finish_iteration``, is.
"""

from __future__ import annotations

__all__ = ["TokenLog"]


class TokenLog:
    """Per-cluster boundary counter.

    Each :class:`~repro.metrics.collectors.MetricsCollector` (one per
    cluster) owns one log; the cluster's machines bump :attr:`boundaries`
    once per token-generating iteration they step individually.
    """

    __slots__ = ("boundaries",)

    def __init__(self) -> None:
        self.boundaries = 0

    def boundaries_recorded(self) -> int:
        """Iteration boundaries that generated decode tokens, across machines."""
        return self.boundaries
