"""Exporting telemetry: one snapshot shape, JSON and Prometheus text.

:class:`TelemetrySnapshot` is the machine-readable export every E-bench
writes next to its ASCII table: a nested, JSON-serializable dict built
from one atomic :meth:`~repro.telemetry.registry.MetricsRegistry.collect`
pass.  Snapshots **merge** (across peers, across runs, across CI
artifacts) by adding counters and histogram buckets — merging is
commutative and associative, and merging two snapshots equals
snapshotting the combined stream (the property suite pins this), which
is what makes per-PR perf trajectories diffable.

Histogram quantiles in a snapshot are deterministic *bucket estimates*
(linear interpolation inside the bucket holding the target rank) — the
additive representation cannot carry exact order statistics.  Exact
p50/p90/p99 live on the in-process
:class:`~repro.telemetry.registry.Histogram` objects, which is what the
benchmark waterfall tables print.

``render_prometheus`` emits the standard text exposition format
(``_bucket{le=…}`` cumulative counts, ``_sum``, ``_count``) so the same
snapshot can feed a scrape endpoint or ad-hoc ``promtool`` queries.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.telemetry.registry import (
    MetricsRegistry,
    NullRegistry,
    metric_key,
)

#: Quantiles every snapshot histogram entry carries (bucket estimates).
SNAPSHOT_QUANTILES = (0.50, 0.90, 0.99)


def _bucket_quantile(le: list[float], buckets: list[int], count: int, q: float) -> float:
    """Deterministic quantile estimate from (non-cumulative) bucket counts.

    Linear interpolation inside the bucket containing rank ``q * count``;
    the overflow (+Inf) bucket reports the last finite bound.  Chosen for
    being purely a function of the additive fields, so merged snapshots
    agree exactly with combined-stream snapshots.
    """
    if count <= 0:
        return 0.0
    rank = q * count
    seen = 0
    for i, bucket_count in enumerate(buckets):
        if bucket_count == 0:
            continue
        if seen + bucket_count >= rank:
            lower = le[i - 1] if 0 < i <= len(le) else 0.0
            upper = le[i] if i < len(le) else le[-1] if le else 0.0
            if upper <= lower:
                return upper
            within = (rank - seen) / bucket_count
            return lower + (upper - lower) * min(1.0, max(0.0, within))
        seen += bucket_count
    return le[-1] if le else 0.0


def merge_histogram_into(mine: dict, entry: dict) -> None:
    """Add histogram ``entry``'s additive fields into ``mine``, in place.

    The one histogram merge (snapshot merge and fleet queries both fold
    with it).  An empty side's ``min``/``max`` are the exporter's 0.0
    placeholders, not observations — every eagerly interned series on a
    peer that recorded nothing has them — so they never enter the result.
    """
    if list(mine["le"]) != list(entry["le"]):
        raise ValueError(f"cannot merge {entry['name']!r}: different bucket bounds")
    if entry["count"]:
        if mine["count"]:
            mine["min"] = min(mine["min"], entry["min"])
            mine["max"] = max(mine["max"], entry["max"])
        else:
            mine["min"], mine["max"] = entry["min"], entry["max"]
    mine["count"] += entry["count"]
    mine["sum"] += entry["sum"]
    mine["buckets"] = [a + b for a, b in zip(mine["buckets"], entry["buckets"])]


class TelemetrySnapshot:
    """A frozen, JSON-serializable view of one registry collect pass."""

    def __init__(self, data: Mapping[str, dict]) -> None:
        self.data: dict[str, dict] = {key: dict(entry) for key, entry in data.items()}

    # -- construction ---------------------------------------------------------

    @classmethod
    def of(cls, registry: MetricsRegistry | NullRegistry) -> "TelemetrySnapshot":
        return cls.from_collected(registry.collect())

    @classmethod
    def from_collected(cls, data: Mapping[str, dict]) -> "TelemetrySnapshot":
        """Snapshot a ``collect()``-shaped mapping (deep-copied), adding
        the deterministic bucket-estimate quantiles.

        Shared by :meth:`of` and the telemetry collector, whose per-peer
        folded state is exactly this shape — so a collector-reconstructed
        snapshot and a live one are byte-for-byte the same structure.
        """
        out: dict[str, dict] = {}
        for key, entry in data.items():
            copied = dict(entry)
            copied["labels"] = dict(entry["labels"])
            if copied["kind"] == "histogram":
                copied["le"] = list(entry["le"])
                copied["buckets"] = list(entry["buckets"])
                copied["quantiles"] = {
                    f"p{int(q * 100)}": _bucket_quantile(
                        copied["le"], copied["buckets"], copied["count"], q
                    )
                    for q in SNAPSHOT_QUANTILES
                }
            out[key] = copied
        return cls(out)

    @classmethod
    def from_json(cls, text: str) -> "TelemetrySnapshot":
        return cls(json.loads(text))

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True)

    # -- merging --------------------------------------------------------------

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Additive merge: counters/gauges sum, histogram buckets add.

        Commutative; merged histogram quantiles are recomputed from the
        merged buckets, so ``snap(A).merge(snap(B)) == snap(A then B)``
        holds *exactly* for every integer-valued field (counts, buckets)
        and therefore for the bucket-derived quantiles — float ``sum``
        accumulators agree up to addition-reordering rounding (the
        property suite pins both statements).
        """
        merged: dict[str, dict] = {k: dict(v) for k, v in self.data.items()}
        for key, entry in other.data.items():
            mine = merged.get(key)
            if mine is None:
                merged[key] = dict(entry)
                continue
            if mine["kind"] != entry["kind"]:
                raise ValueError(f"cannot merge {key!r}: {mine['kind']} vs {entry['kind']}")
            if mine["kind"] == "histogram":
                merge_histogram_into(mine, entry)
                mine["quantiles"] = {
                    f"p{int(q * 100)}": _bucket_quantile(
                        mine["le"], mine["buckets"], mine["count"], q
                    )
                    for q in SNAPSHOT_QUANTILES
                }
            else:
                mine["value"] += entry["value"]
        return TelemetrySnapshot(merged)

    # -- reading --------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """A counter/gauge value by name+labels (0 when absent)."""
        entry = self.data.get(metric_key(name, labels))
        return 0.0 if entry is None else entry.get("value", 0.0)

    def histogram(self, name: str, **labels: str) -> dict | None:
        return self.data.get(metric_key(name, labels))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TelemetrySnapshot) and self.data == other.data


def _escape_label_value(value: str) -> str:
    """Prometheus text exposition escaping: ``\\``, ``"`` and newline.

    Label values are user-controlled strings (peer ids, topics, stage
    names) — interpolating them raw would let one odd id corrupt the
    whole exposition.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(snapshot: TelemetrySnapshot) -> str:
    """The standard text exposition format for one snapshot."""

    def fmt_labels(labels: Mapping[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
        items = [*sorted(labels.items()), *extra]
        if not items:
            return ""
        inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
        return f"{{{inner}}}"

    typed: set[str] = set()
    lines: list[str] = []
    for key in sorted(snapshot.data):
        entry = snapshot.data[key]
        name, kind, labels = entry["name"], entry["kind"], entry["labels"]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            cumulative = 0
            for bound, bucket_count in zip(entry["le"], entry["buckets"]):
                cumulative += bucket_count
                lines.append(
                    f"{name}_bucket{fmt_labels(labels, (('le', repr(float(bound))),))} {cumulative}"
                )
            lines.append(
                f"{name}_bucket{fmt_labels(labels, (('le', '+Inf'),))} {entry['count']}"
            )
            lines.append(f"{name}_sum{fmt_labels(labels)} {entry['sum']}")
            lines.append(f"{name}_count{fmt_labels(labels)} {entry['count']}")
        else:
            lines.append(f"{name}{fmt_labels(labels)} {entry['value']}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_snapshot(snapshot: TelemetrySnapshot, path: Any) -> None:
    """Dump a snapshot as pretty JSON (benchmark artifact convenience)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(snapshot.to_json() + "\n")
