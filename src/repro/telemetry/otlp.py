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
wire cost.  A batch does not repeat itself: each of its strings sits once
in its symbol table, counts, ids and integer deltas are varints, a local
root carries no trace id, a repeated span stamp is one bit, and the 33
default bucket bounds are a one-byte flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import gt, ne
from struct import Struct
from typing import Mapping

from repro.codec import Framed, Reader, Symbol, Symbols, Wire, Writer, flag, svarint, varint
from repro.errors import ProtocolError
from repro.telemetry.disttrace import SpanRecord
from repro.telemetry.registry import DEFAULT_BUCKETS, Metric, metric_key

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


_FLOAT = Struct(">Bd")
_DOUBLE = Struct(">d")
_HISTOGRAM_TOTALS = Struct(">ddd")


def _write_number(w: Writer, value: int | float) -> None:
    """Type-preserving scalar: ints stay ints through the round trip."""
    if isinstance(value, bool):
        raise ProtocolError("bool is not a wire scalar")
    if isinstance(value, int):
        w.raw(b"\x00" + svarint(value))
    else:
        w.raw(_FLOAT.pack(1, value))


def _read_number(r: Reader) -> int | float:
    (is_float,) = r.unpack(">B")
    return r.unpack(">d")[0] if flag(is_float) else r.svarint()


class _Metric(Framed):
    """What the three instruments share: the series key, and the head of
    the layout — a tag byte saying which instrument follows, the name and
    the labels, symbols of the frame (a standalone delta is its own)."""

    __slots__ = ()

    tag: bytes

    @property
    def key(self) -> str:
        return _series_key(self.name, self.labels)

    def _write_body(self, w: Writer, refs: Symbols) -> None:
        w += self.tag, refs[self.name], varint(len(self.labels))
        for key, value in self.labels:
            w += refs[key], refs[value]
        self._write_value(w)

    @classmethod
    def _read_body(cls, r: Reader, symbol: Symbol) -> "MetricDelta":
        """The instrument the tag byte announces, which must be a ``cls``
        (a batch reads ``_Metric``: any of the three)."""
        tag = r.raw(1)
        instrument = _METRIC_TYPES.get(tag)
        if instrument is None or not issubclass(instrument, cls):
            raise ProtocolError(f"unexpected metric tag {tag!r}")
        name = symbol()
        labels = tuple((symbol(), symbol()) for _ in range(r.varint()))
        return instrument._read_value(r, name, labels)


@lru_cache(maxsize=4096)
def _series_key(name: str, labels: Labels) -> str:
    """The registry key a series folds under (remembered: the collector
    asks once per delta of every batch)."""
    return metric_key(name, dict(labels))


@dataclass(frozen=True, slots=True)
class CounterDelta(_Metric):
    """Counter increment since the previous exported batch."""

    name: str
    labels: Labels
    delta: int | float

    kind = "counter"
    tag = b"C"

    def _write_value(self, w: Writer) -> None:
        _write_number(w, self.delta)

    @classmethod
    def _read_value(cls, r: Reader, name: str, labels: Labels) -> "CounterDelta":
        return cls(name=name, labels=labels, delta=_read_number(r))


@dataclass(frozen=True, slots=True)
class GaugeValue(_Metric):
    """Gauge last-value (OTLP gauges are not additive; fold = replace)."""

    name: str
    labels: Labels
    value: int | float

    kind = "gauge"
    tag = b"G"

    def _write_value(self, w: Writer) -> None:
        _write_number(w, self.value)

    @classmethod
    def _read_value(cls, r: Reader, name: str, labels: Labels) -> "GaugeValue":
        return cls(name=name, labels=labels, value=_read_number(r))


@dataclass(frozen=True, slots=True)
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

    def _write_value(self, w: Writer) -> None:
        if self.le is None:
            w.raw(b"\x00")
        else:
            w += b"\x01", varint(len(self.le)), *map(_DOUBLE.pack, self.le)
        totals = _HISTOGRAM_TOTALS.pack(self.sum_total, self.min_total, self.max_total)
        w += varint(self.count_delta), totals, varint(len(self.bucket_deltas))
        for index, delta in self.bucket_deltas:
            w += varint(index), varint(delta)

    @classmethod
    def _read_value(cls, r: Reader, name: str, labels: Labels) -> "HistogramDelta":
        le: tuple[float, ...] | None = None
        if flag(r.unpack(">B")[0]):
            le = tuple(r.unpack(">d")[0] for _ in range(r.varint()))
            # A registry only ever holds sorted finite bounds; anything
            # else folds into a state whose quantiles are garbage.
            if not all(map(math.isfinite, le)) or any(map(gt, le, le[1:])):
                raise ProtocolError("histogram bounds must be finite and non-decreasing")
        count_delta = r.varint()
        totals = r.unpack(">ddd")
        pairs = tuple((r.varint(), r.varint()) for _ in range(r.varint()))
        # The collector folds a pair with ``buckets[index] += delta``; an
        # index past the +Inf overflow bucket has nowhere to land.
        overflow = len(DEFAULT_BUCKETS if le is None else le)
        if any(index > overflow for index, _ in pairs):
            raise ProtocolError(f"bucket index past the overflow bucket {overflow}")
        return cls(name, labels, count_delta, *totals, bucket_deltas=pairs, le=le)


MetricDelta = CounterDelta | GaugeValue | HistogramDelta

_METRIC_TYPES = {cls.tag: cls for cls in (CounterDelta, GaugeValue, HistogramDelta)}


class _Exported:
    """One series as its last export left it."""

    __slots__ = ("labels", "value", "buckets", "le")

    def __init__(self, metric: Metric) -> None:
        self.labels = labels_of(metric.labels)
        #: The value (counter, gauge) or count (histogram) last exported.
        self.value: int | float = 0
        #: A histogram's bucket counts as last exported, and its bounds
        #: as the wire carries them (``None``: the default set).
        self.buckets: list[int] | None = None
        self.le: tuple[float, ...] | None = None
        if metric.kind == "histogram":
            self.buckets = [0] * len(metric.bucket_counts)
            if metric.bounds != DEFAULT_BUCKETS:
                self.le = metric.bounds


class DeltaTracker:
    """Delta temporality against the live registry: one exporter's memory
    of what it last sent, per series.

    :meth:`deltas` walks the live metric objects and emits a series when
    it changed since its last export — or on **first sight** (even at
    zero), so the collector's key set matches the peer's registry exactly
    and the fleet snapshot can equal the offline merge field for field.
    Registries never remove metrics, so keys only ever appear.  A
    histogram whose ``count`` did not move is skipped without looking at
    its buckets; one that moved diffs only its buckets, sparsely.
    """

    __slots__ = ("_exported",)

    def __init__(self) -> None:
        self._exported: dict[str, _Exported] = {}

    def deltas(self, metrics: Mapping[str, Metric]) -> tuple[MetricDelta, ...]:
        """The wire deltas since the previous call, in ``metrics`` order."""
        out: list[MetricDelta] = []
        exported = self._exported
        for key, metric in metrics.items():
            series = exported.get(key)
            first = series is None
            if first:
                series = exported[key] = _Exported(metric)
            kind = metric.kind
            if kind == "counter":
                value = metric.value
                delta = value - series.value
                series.value = value
                if first or delta != 0:
                    out.append(CounterDelta(metric.name, series.labels, delta))
            elif kind == "gauge":
                value = metric.value
                changed = first or value != series.value
                series.value = value
                if changed:
                    out.append(GaugeValue(metric.name, series.labels, value))
            else:
                count = metric.count
                if not first and count == series.value:
                    continue
                buckets, last = metric.bucket_counts, series.buckets
                moved = tuple(
                    (index, buckets[index] - last[index])
                    for index in compress(range(len(buckets)), map(ne, buckets, last))
                )
                last[:] = buckets
                low, high = metric.extremes()
                out.append(
                    HistogramDelta(
                        metric.name, series.labels, count - series.value,
                        metric.total, low, high, moved, series.le,
                    )
                )
                series.value = count
        return tuple(out)


# -- batches ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TelemetryBatch(Framed):
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
    #: Finished spans, bounded per tick and cursor-drained; empty is one
    #: wire byte.
    spans: tuple[SpanRecord, ...] = ()

    def _write_body(self, w: Writer, refs: Symbols) -> None:
        """Peer and role (symbols), shard (zigzag), seq, time (f64), dropped
        batches, then the metrics and the spans, each list counted first."""
        w += refs[self.peer], refs[self.role], svarint(self.shard), varint(self.seq)
        w += _DOUBLE.pack(self.time), varint(self.dropped_batches), varint(len(self.metrics))
        for metric in self.metrics:
            metric._write_body(w, refs)
        w.raw(varint(len(self.spans)))
        for span in self.spans:
            span._write_body(w, refs)

    @classmethod
    def _read_body(cls, r: Reader, symbol: Symbol) -> "TelemetryBatch":
        peer, role = symbol(), symbol()
        shard, seq, (time,), dropped = r.svarint(), r.varint(), r.unpack(">d"), r.varint()
        metrics = tuple(_Metric._read_body(r, symbol) for _ in range(r.varint()))
        spans = tuple(SpanRecord._read_body(r, symbol) for _ in range(r.varint()))
        return cls(peer, role, shard, seq, time, dropped, metrics, spans)


@dataclass(frozen=True, slots=True)
class ExportRequest(Wire):
    """Dispatcher envelope: the batch plus the attempt's request id."""

    request_id: int
    batch: TelemetryBatch

    def _write(self, w: Writer) -> None:
        w.raw(varint(self.request_id))
        self.batch._write(w)

    @classmethod
    def _read(cls, r: Reader) -> "ExportRequest":
        return cls(request_id=r.varint(), batch=TelemetryBatch._read(r))


@dataclass(frozen=True, slots=True)
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
