"""Request traces: the input the cluster simulator consumes.

A trace is an ordered list of :class:`RequestDescriptor` records —
``(request id, arrival time, prompt tokens, output tokens, tenant)`` — the
information the public Azure LLM inference trace exposes plus a tenant tag
for multi-tenant fleets.  Traces can be generated synthetically
(:mod:`repro.workload.generator`), loaded from CSV files in the Azure Public
Dataset column layout, rescaled to different request rates, truncated to
shorter windows, and re-tagged to a tenant.

Tenant assignment lives here (and in the generator) rather than in any one
scenario preset: every trace transformation — rescaling, truncation,
composition (:mod:`repro.workload.scenarios`), serialization — preserves the
tenant tag, so replayed and composed traces keep their per-tenant identity
all the way into the fleet's per-tenant SLO report.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Tenant tag for requests that were never explicitly assigned one.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class RequestDescriptor:
    """One inference request as described by a trace.

    Attributes:
        request_id: Unique identifier within the trace.
        arrival_time_s: Arrival time in seconds from trace start.
        prompt_tokens: Number of input (prompt) tokens.
        output_tokens: Number of tokens the model must generate (>= 1; the
            first one is produced by the prompt phase).
        tenant: Tenant the request belongs to (per-tenant SLO accounting and
            tenant-aware fleet routing group by this tag).
        ttft_deadline_s: Optional per-request TTFT deadline (seconds from
            arrival).  Overrides any per-tenant deadline configured on the
            fleet's request-lifecycle layer; ``None`` defers to it.
        e2e_deadline_s: Optional per-request end-to-end deadline (seconds
            from arrival).  Same precedence as ``ttft_deadline_s``.
    """

    request_id: int
    arrival_time_s: float
    prompt_tokens: int
    output_tokens: int
    tenant: str = DEFAULT_TENANT
    ttft_deadline_s: float | None = None
    e2e_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.arrival_time_s < 0:
            raise ValueError(f"arrival_time_s must be non-negative, got {self.arrival_time_s}")
        if self.prompt_tokens < 1:
            raise ValueError(f"prompt_tokens must be >= 1, got {self.prompt_tokens}")
        if self.output_tokens < 1:
            raise ValueError(f"output_tokens must be >= 1, got {self.output_tokens}")
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        for name in ("ttft_deadline_s", "e2e_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class Trace:
    """An ordered collection of request descriptors plus provenance metadata.

    Attributes:
        requests: Requests sorted by arrival time.
        name: Human-readable provenance (workload name, rate, seed).
        metadata: Free-form extra information carried along with the trace.
    """

    requests: tuple[RequestDescriptor, ...]
    name: str = "trace"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arrivals = [r.arrival_time_s for r in self.requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            object.__setattr__(
                self, "requests", tuple(sorted(self.requests, key=lambda r: r.arrival_time_s))
            )

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[RequestDescriptor]:
        return iter(self.requests)

    @property
    def duration_s(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return self.requests[-1].arrival_time_s if self.requests else 0.0

    @property
    def request_rate_rps(self) -> float:
        """Average arrival rate over the trace duration."""
        if not self.requests or self.duration_s == 0:
            return 0.0
        return len(self.requests) / self.duration_s

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[float, int, int]],
        name: str = "trace",
        metadata: dict | None = None,
    ) -> "Trace":
        """Build a trace from ``(arrival_time_s, prompt_tokens, output_tokens)`` rows."""
        requests = tuple(
            RequestDescriptor(
                request_id=i, arrival_time_s=float(t), prompt_tokens=int(p), output_tokens=int(o)
            )
            for i, (t, p, o) in enumerate(records)
        )
        return cls(requests=requests, name=name, metadata=metadata or {})

    # -- transformations ----------------------------------------------------------

    def truncated(self, duration_s: float) -> "Trace":
        """Return a copy containing only arrivals before ``duration_s``."""
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        kept = tuple(r for r in self.requests if r.arrival_time_s < duration_s)
        return Trace(requests=kept, name=self.name, metadata={**self.metadata, "truncated_to_s": duration_s})

    def scaled_to_rate(self, target_rps: float) -> "Trace":
        """Rescale arrival times so the average rate becomes ``target_rps``.

        The paper uses the same trick to sweep load: keep the token-size
        distribution and arrival pattern, compress or stretch time.
        """
        if target_rps <= 0:
            raise ValueError(f"target_rps must be positive, got {target_rps}")
        current = self.request_rate_rps
        if current == 0:
            raise ValueError("cannot rescale an empty or instantaneous trace")
        factor = current / target_rps
        requests = tuple(
            replace(r, arrival_time_s=r.arrival_time_s * factor) for r in self.requests
        )
        return Trace(requests=requests, name=self.name, metadata={**self.metadata, "scaled_to_rps": target_rps})

    def tenants(self) -> tuple[str, ...]:
        """Distinct tenant tags present in the trace, sorted."""
        return tuple(sorted({r.tenant for r in self.requests}))

    # -- statistics ---------------------------------------------------------------

    def prompt_token_counts(self) -> list[int]:
        """Prompt token count of every request."""
        return [r.prompt_tokens for r in self.requests]

    # -- serialization -------------------------------------------------------------

    _CSV_COLUMNS: Sequence[str] = (
        "request_id",
        "arrival_time_s",
        "prompt_tokens",
        "output_tokens",
        "tenant",
        "ttft_deadline_s",
        "e2e_deadline_s",
    )

    def to_csv(self, path: str | Path) -> Path:
        """Write the trace as CSV (Azure Public Dataset column layout plus tenant)."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self._CSV_COLUMNS)
            for r in self.requests:
                writer.writerow(
                    [
                        r.request_id,
                        f"{r.arrival_time_s:.6f}",
                        r.prompt_tokens,
                        r.output_tokens,
                        r.tenant,
                        "" if r.ttft_deadline_s is None else repr(r.ttft_deadline_s),
                        "" if r.e2e_deadline_s is None else repr(r.e2e_deadline_s),
                    ]
                )
        return path

    @classmethod
    def from_csv(cls, path: str | Path, name: str | None = None) -> "Trace":
        """Load a trace from a CSV produced by :meth:`to_csv`.

        CSVs written before the tenant or deadline columns existed (or raw
        Azure-layout files) load with every request on the default tenant and
        no per-request deadlines.
        """
        path = Path(path)
        requests = []
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                ttft_deadline = row.get("ttft_deadline_s") or None
                e2e_deadline = row.get("e2e_deadline_s") or None
                requests.append(
                    RequestDescriptor(
                        request_id=int(row["request_id"]),
                        arrival_time_s=float(row["arrival_time_s"]),
                        prompt_tokens=int(row["prompt_tokens"]),
                        output_tokens=int(row["output_tokens"]),
                        tenant=row.get("tenant") or DEFAULT_TENANT,
                        ttft_deadline_s=None if ttft_deadline is None else float(ttft_deadline),
                        e2e_deadline_s=None if e2e_deadline is None else float(e2e_deadline),
                    )
                )
        return cls(requests=tuple(requests), name=name or path.stem)
