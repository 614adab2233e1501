"""Plain-text table/report rendering for the benchmark harness.

Every benchmark prints the rows/series the corresponding part of the
paper's evaluation reports (the README's experiment paragraphs record
paper-vs-measured).  Rendering is dependency-free ASCII so output survives any terminal or CI
log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def percentile(samples: Sequence[float], q: float, *, presorted: bool = False) -> float:
    """Exact linear-interpolated quantile; 0.0 for an empty sequence.

    The one shared definition every benchmark and the telemetry
    histograms use (E13/E14/E15 used to hand-roll identical copies), so
    a "p99" printed anywhere in the harness always means the same thing:
    the linear interpolation between the floor/ceil order statistics at
    rank ``q * (n - 1)``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not samples:
        return 0.0
    ordered = samples if presorted else sorted(samples)
    index = q * (len(ordered) - 1)
    low = int(math.floor(index))
    high = int(math.ceil(index))
    if low == high:
        return ordered[low]
    frac = index - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass(frozen=True)
class SummaryStats:
    """The standard latency summary every benchmark table prints."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float


def summarize(samples: Iterable[float]) -> SummaryStats:
    """Shared mean/p50/p90/p99/max summary (zeros for an empty stream)."""
    ordered = sorted(samples)
    if not ordered:
        return SummaryStats(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, maximum=0.0)
    return SummaryStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=percentile(ordered, 0.50, presorted=True),
        p90=percentile(ordered, 0.90, presorted=True),
        p99=percentile(ordered, 0.99, presorted=True),
        maximum=ordered[-1],
    )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_bytes(size: float) -> str:
    """Human-readable byte sizes (matching the paper's MB/KB figures)."""
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024 or unit == "GB":
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.3g} {unit}"
        size /= 1024
    return f"{size:.3g} GB"


def format_seconds(seconds: float) -> str:
    """Human-readable durations (s / ms / us) for benchmark tables."""
    if seconds >= 1:
        return f"{seconds:.3g} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} us"


@dataclass
class ExperimentReport:
    """Collects rows for one experiment and renders them with context.

    >>> report = ExperimentReport(
    ...     experiment="E1", claim="proof generation ~0.5 s",
    ...     headers=("depth", "seconds"))
    >>> report.add_row(20, 0.49)
    >>> print(report.render())  # doctest: +SKIP
    """

    experiment: str
    claim: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, header has {len(self.headers)}"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        parts = [
            f"== {self.experiment}: {self.claim} ==",
            format_table(self.headers, self.rows),
        ]
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)
