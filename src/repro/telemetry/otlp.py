"""OTLP-style telemetry wire types: delta-temporality batches on the wire.

PR 6 made telemetry *pull-only and process-local*: each peer holds its own
registry and nothing aggregates across the fleet.  This module is the wire
half of the push path — the shapes a
:class:`~repro.telemetry.exporter.TelemetryExporter` sends over the
simulated network's ``telemetry`` protocol channel and a
:class:`~repro.telemetry.collector.CollectorPeer` folds into a fleet
snapshot:

* :class:`TelemetryBatch` — one export interval's worth of metric deltas
  and finished :class:`~repro.telemetry.disttrace.SpanRecord` spans
  (waterfall exemplars and propagation-tree nodes in one list — the
  aggregated per-stage histograms ride the metric path, so the collector
  never double-counts a span), stamped with the peer's **resource
  attributes** (peer id, role ``full``/``light``/``witness-provider``,
  shard id) and a per-peer monotone ``seq`` so the collector can dedup
  retransmissions and *see* drop-oldest losses as sequence gaps;
* :class:`CounterDelta` / :class:`GaugeValue` / :class:`HistogramDelta` —
  the three instrument encodings.  Temporality follows OTLP: counters and
  histogram bucket/count fields travel as **deltas** (the additive fields,
  so folding is exact integer addition), gauges travel as **last values**,
  and a histogram's ``sum``/``min``/``max`` travel as cumulative absolutes
  (replace-on-fold) so the collector's per-peer state reconstructs the
  peer's live snapshot *exactly* — the E17 fleet-equals-offline-merge
  assertion rests on this;
* :class:`ExportRequest` / :class:`ExportAck` — the
  :class:`~repro.net.request.RequestDispatcher` envelope (request id for
  attempt matching, seq echo in the ack).

Every type serialises to bytes through :mod:`repro.codec`; the simulated
network carries the dataclasses and bills ``byte_size() ==
len(to_bytes())``, so the E17 telemetry/relay byte ratio reflects honest
wire cost (including re-sending the 33 default
bucket bounds only when a histogram uses *non*-default buckets — the
default set travels as a one-byte flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.codec import Reader, Wire, Writer, flag
from repro.errors import ProtocolError
from repro.telemetry.disttrace import SpanRecord
from repro.telemetry.registry import DEFAULT_BUCKETS, metric_key

#: Protocol channel export requests travel on (peer -> collector).
TELEMETRY_PROTOCOL = "telemetry"

#: Channel the acks come back on.  Distinct from the request channel so a
#: collector could itself run an exporter (to a parent collector) without
#: the client registration displacing the server's.
TELEMETRY_REPLY_PROTOCOL = "telemetry-reply"

Labels = tuple[tuple[str, str], ...]


def labels_of(mapping: Mapping[str, str]) -> Labels:
    """Canonical (sorted) label tuple for the wire."""
    return tuple(sorted(mapping.items()))


# -- metric deltas ------------------------------------------------------------


def _write_number(w: Writer, value: int | float) -> None:
    """Type-preserving scalar: ints stay ints through the round trip."""
    if isinstance(value, bool):
        raise ProtocolError("bool is not a wire scalar")
    if isinstance(value, int):
        w.pack(">Bq", 0, value)
    else:
        w.pack(">Bd", 1, value)


def _read_number(r: Reader) -> int | float:
    (is_float,) = r.unpack(">B")
    return r.unpack(">d" if flag(is_float) else ">q")[0]


class _Metric(Wire):
    """What the three instruments share: the series key, and the head of
    the layout — a tag byte saying which instrument follows, the name and
    the labels."""

    __slots__ = ()

    tag: bytes

    @property
    def key(self) -> str:
        return metric_key(self.name, dict(self.labels))

    def _write_head(self, w: Writer) -> None:
        labels = self.labels
        if len(labels) > 0xFF:
            raise ProtocolError("too many labels")
        w.raw(self.tag)
        w.str(self.name)
        w.pack(">B", len(labels))
        for key, value in labels:
            w.str(key)
            w.str(value)

    @classmethod
    def _read(cls, r: Reader) -> "MetricDelta":
        """The instrument the tag byte announces, which must be a ``cls``
        (a batch reads ``_Metric``: any of the three)."""
        tag = r.raw(1)
        instrument = _METRIC_TYPES.get(tag)
        if instrument is None or not issubclass(instrument, cls):
            raise ProtocolError(f"unexpected metric tag {tag!r}")
        name = r.str()
        (count,) = r.unpack(">B")
        labels = tuple((r.str(), r.str()) for _ in range(count))
        return instrument._read_body(r, name, labels)


@dataclass(frozen=True)
class CounterDelta(_Metric):
    """Counter increment since the previous exported batch."""

    name: str
    labels: Labels
    delta: int | float

    kind = "counter"
    tag = b"C"

    def _write(self, w: Writer) -> None:
        self._write_head(w)
        _write_number(w, self.delta)

    @classmethod
    def _read_body(cls, r: Reader, name: str, labels: Labels) -> "CounterDelta":
        return cls(name=name, labels=labels, delta=_read_number(r))


@dataclass(frozen=True)
class GaugeValue(_Metric):
    """Gauge last-value (OTLP gauges are not additive; fold = replace)."""

    name: str
    labels: Labels
    value: int | float

    kind = "gauge"
    tag = b"G"

    def _write(self, w: Writer) -> None:
        self._write_head(w)
        _write_number(w, self.value)

    @classmethod
    def _read_body(cls, r: Reader, name: str, labels: Labels) -> "GaugeValue":
        return cls(name=name, labels=labels, value=_read_number(r))


@dataclass(frozen=True)
class HistogramDelta(_Metric):
    """Histogram window: delta buckets/count, cumulative sum/min/max.

    ``bucket_deltas`` is sparse — only buckets that moved travel, as
    ``(bucket_index, delta)`` pairs (index ``len(le)`` is the +Inf
    overflow bucket).  ``le is None`` means :data:`DEFAULT_BUCKETS`, which
    every standard histogram uses, so the 33 bounds almost never travel.
    """

    name: str
    labels: Labels
    count_delta: int
    sum_total: float
    min_total: float
    max_total: float
    bucket_deltas: tuple[tuple[int, int], ...]
    le: tuple[float, ...] | None = None

    kind = "histogram"
    tag = b"H"

    @property
    def bounds(self) -> tuple[float, ...]:
        return DEFAULT_BUCKETS if self.le is None else self.le

    def _write(self, w: Writer) -> None:
        self._write_head(w)
        if self.le is None:
            w.pack(">B", 0)
        else:
            w.pack(f">BH{len(self.le)}d", 1, len(self.le), *self.le)
        totals = (self.count_delta, self.sum_total, self.min_total, self.max_total)
        w.pack(">QdddH", *totals, len(self.bucket_deltas))
        for index, delta in self.bucket_deltas:
            w.pack(">HQ", index, delta)

    @classmethod
    def _read_body(cls, r: Reader, name: str, labels: Labels) -> "HistogramDelta":
        le: tuple[float, ...] | None = None
        if flag(r.unpack(">B")[0]):
            (n_bounds,) = r.unpack(">H")
            le = r.unpack(f">{n_bounds}d")
        *totals, n_pairs = r.unpack(">QdddH")
        pairs = tuple(r.unpack(">HQ") for _ in range(n_pairs))
        # The collector folds a pair with ``buckets[index] += delta``; an
        # index past the +Inf overflow bucket has nowhere to land.
        overflow = len(DEFAULT_BUCKETS if le is None else le)
        if any(index > overflow for index, _ in pairs):
            raise ProtocolError(f"bucket index past the overflow bucket {overflow}")
        return cls(name, labels, *totals, bucket_deltas=pairs, le=le)


MetricDelta = CounterDelta | GaugeValue | HistogramDelta

_METRIC_TYPES = {cls.tag: cls for cls in (CounterDelta, GaugeValue, HistogramDelta)}


def compute_deltas(
    current: Mapping[str, dict], previous: Mapping[str, dict]
) -> tuple[MetricDelta, ...]:
    """Diff two registry ``collect()`` passes into wire deltas.

    A metric appears in the output when it changed since ``previous`` —
    or on **first sight** (even at zero), so the collector's key set
    matches the peer's registry exactly and the fleet snapshot can equal
    the offline merge field-for-field.  Registries never remove metrics,
    so keys only ever appear.
    """
    deltas: list[MetricDelta] = []
    for key, entry in current.items():
        prev = previous.get(key)
        labels = labels_of(entry["labels"])
        if entry["kind"] == "counter":
            delta = entry["value"] - (prev["value"] if prev else 0)
            if prev is None or delta != 0:
                deltas.append(CounterDelta(entry["name"], labels, delta))
        elif entry["kind"] == "gauge":
            if prev is None or entry["value"] != prev["value"]:
                deltas.append(GaugeValue(entry["name"], labels, entry["value"]))
        else:
            count_delta = entry["count"] - (prev["count"] if prev else 0)
            if prev is not None and count_delta == 0:
                continue
            prev_buckets = prev["buckets"] if prev else None
            sparse = tuple(
                (index, count - (prev_buckets[index] if prev_buckets else 0))
                for index, count in enumerate(entry["buckets"])
                if count != (prev_buckets[index] if prev_buckets else 0)
            )
            le = tuple(entry["le"])
            deltas.append(
                HistogramDelta(
                    name=entry["name"],
                    labels=labels,
                    count_delta=count_delta,
                    sum_total=entry["sum"],
                    min_total=entry["min"],
                    max_total=entry["max"],
                    bucket_deltas=sparse,
                    le=None if le == DEFAULT_BUCKETS else le,
                )
            )
    return tuple(deltas)


# -- batches ------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryBatch(Wire):
    """One export interval: resource attributes + metric deltas + spans.

    ``seq`` is per-peer monotone from 1; ``dropped_batches`` is the
    exporter's cumulative drop-oldest count at build time (loss
    attribution for the collector without waiting for the next metric
    delta to arrive).
    """

    peer: str
    role: str
    shard: int
    seq: int
    time: float
    dropped_batches: int
    metrics: tuple[MetricDelta, ...]
    #: Finished spans, bounded per tick and cursor-drained; empty is 2
    #: wire bytes.
    spans: tuple[SpanRecord, ...] = ()

    def _write(self, w: Writer) -> None:
        w.str(self.peer)
        w.str(self.role)
        head = (self.shard, self.seq, self.time, self.dropped_batches)
        w.pack(">iQdQI", *head, len(self.metrics))
        for metric in self.metrics:
            metric._write(w)
        w.pack(">H", len(self.spans))
        for span in self.spans:
            span._write(w)

    @classmethod
    def _read(cls, r: Reader) -> "TelemetryBatch":
        peer, role = r.str(), r.str()
        *head, n_metrics = r.unpack(">iQdQI")
        metrics = tuple(_Metric._read(r) for _ in range(n_metrics))
        (n_spans,) = r.unpack(">H")
        spans = tuple(SpanRecord._read(r) for _ in range(n_spans))
        return cls(peer, role, *head, metrics, spans)


@dataclass(frozen=True)
class ExportRequest(Wire):
    """Dispatcher envelope: the batch plus the attempt's request id."""

    request_id: int
    batch: TelemetryBatch

    def _write(self, w: Writer) -> None:
        w.pack(">Q", self.request_id)
        self.batch._write(w)

    @classmethod
    def _read(cls, r: Reader) -> "ExportRequest":
        (request_id,) = r.unpack(">Q")
        return cls(request_id=request_id, batch=TelemetryBatch._read(r))


@dataclass(frozen=True)
class ExportAck(Wire):
    """Collector acknowledgement: echoes the request id and batch seq."""

    request_id: int
    seq: int
    accepted: bool = True

    def _write(self, w: Writer) -> None:
        w.pack(">QQB", self.request_id, self.seq, self.accepted)

    @classmethod
    def _read(cls, r: Reader) -> "ExportAck":
        request_id, seq, accepted = r.unpack(">QQB")
        return cls(request_id=request_id, seq=seq, accepted=flag(accepted))
