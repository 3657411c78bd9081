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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Tenant tag for requests that were never explicitly assigned one.
DEFAULT_TENANT = "default"


class RequestDescriptor:
    """One inference request as described by a trace.

    A plain ``__slots__`` class rather than a frozen dataclass: a trace of
    tens of thousands of requests builds one descriptor per request, and the
    frozen dataclass's ``object.__setattr__`` per field made that most of a
    fleet run's set-up.  Descriptors compare and hash by value over their
    seven fields, like the dataclass did, so they must not be mutated; derive
    a changed copy with :meth:`replace`.

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

    Raises:
        ValueError: for a negative arrival time, fewer than one prompt or
            output token, an empty tenant, or a non-positive deadline.
    """

    __slots__ = (
        "request_id",
        "arrival_time_s",
        "prompt_tokens",
        "output_tokens",
        "tenant",
        "ttft_deadline_s",
        "e2e_deadline_s",
    )

    def __init__(
        self,
        request_id: int,
        arrival_time_s: float,
        prompt_tokens: int,
        output_tokens: int,
        tenant: str = DEFAULT_TENANT,
        ttft_deadline_s: float | None = None,
        e2e_deadline_s: float | None = None,
    ) -> None:
        if arrival_time_s < 0:
            raise ValueError(f"arrival_time_s must be non-negative, got {arrival_time_s}")
        if prompt_tokens < 1:
            raise ValueError(f"prompt_tokens must be >= 1, got {prompt_tokens}")
        if output_tokens < 1:
            raise ValueError(f"output_tokens must be >= 1, got {output_tokens}")
        if not tenant:
            raise ValueError("tenant must be a non-empty string")
        if ttft_deadline_s is not None and ttft_deadline_s <= 0:
            raise ValueError(f"ttft_deadline_s must be > 0, got {ttft_deadline_s}")
        if e2e_deadline_s is not None and e2e_deadline_s <= 0:
            raise ValueError(f"e2e_deadline_s must be > 0, got {e2e_deadline_s}")
        self.request_id = request_id
        self.arrival_time_s = arrival_time_s
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        self.tenant = tenant
        self.ttft_deadline_s = ttft_deadline_s
        self.e2e_deadline_s = e2e_deadline_s

    def _values(self) -> tuple:
        return (
            self.request_id,
            self.arrival_time_s,
            self.prompt_tokens,
            self.output_tokens,
            self.tenant,
            self.ttft_deadline_s,
            self.e2e_deadline_s,
        )

    def replace(self, **changes) -> "RequestDescriptor":
        """A copy with ``changes`` (field name -> value) applied and checked anew.

        Raises:
            TypeError: for a name that is not a field.
            ValueError: for a value the constructor rejects.
        """
        values = dict(zip(self.__slots__, self._values()))
        values.update(changes)
        return RequestDescriptor(**values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"RequestDescriptor({values})"


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
        last = 0.0  # descriptors reject negative arrival times
        for request in self.requests:
            arrival = request.arrival_time_s
            if arrival < last:
                object.__setattr__(
                    self, "requests", tuple(sorted(self.requests, key=lambda r: r.arrival_time_s))
                )
                return
            last = arrival

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
            RequestDescriptor(i, float(t), int(p), int(o)) for i, (t, p, o) in enumerate(records)
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
        requests = tuple(r.replace(arrival_time_s=r.arrival_time_s * factor) for r in self.requests)
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
