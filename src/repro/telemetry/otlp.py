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

Every type serialises to bytes with the same conventions as the tree-sync
and witness wire artefacts; the simulated network carries the dataclasses
and bills ``byte_size() == len(to_bytes())``, so the E17 telemetry/relay
byte ratio reflects honest wire cost (including re-sending the 33 default
bucket bounds only when a histogram uses *non*-default buckets — the
default set travels as a one-byte flag).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ProtocolError
from repro.telemetry.disttrace import SpanRecord, decode_str, encode_str
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


# -- primitive codecs ---------------------------------------------------------


def _encode_labels(labels: Labels) -> bytes:
    if len(labels) > 0xFF:
        raise ProtocolError("too many labels")
    out = [struct.pack(">B", len(labels))]
    for key, value in labels:
        out.append(encode_str(key))
        out.append(encode_str(value))
    return b"".join(out)


def _decode_labels(data: bytes, offset: int) -> tuple[Labels, int]:
    (count,) = struct.unpack_from(">B", data, offset)
    offset += 1
    labels = []
    for _ in range(count):
        key, offset = decode_str(data, offset)
        value, offset = decode_str(data, offset)
        labels.append((key, value))
    return tuple(labels), offset


def _encode_number(value: int | float) -> bytes:
    """Type-preserving scalar: ints stay ints through the round trip."""
    if isinstance(value, bool):
        raise ProtocolError("bool is not a wire scalar")
    if isinstance(value, int):
        return struct.pack(">Bq", 0, value)
    return struct.pack(">Bd", 1, value)


def _decode_number(data: bytes, offset: int) -> tuple[int | float, int]:
    (flag,) = struct.unpack_from(">B", data, offset)
    offset += 1
    if flag == 0:
        (value,) = struct.unpack_from(">q", data, offset)
        return value, offset + 8
    (value,) = struct.unpack_from(">d", data, offset)
    return value, offset + 8


# -- metric deltas ------------------------------------------------------------


@dataclass(frozen=True)
class CounterDelta:
    """Counter increment since the previous exported batch."""

    name: str
    labels: Labels
    delta: int | float

    kind = "counter"
    tag = b"C"

    @property
    def key(self) -> str:
        return metric_key(self.name, dict(self.labels))

    def to_bytes(self) -> bytes:
        return (
            self.tag
            + encode_str(self.name)
            + _encode_labels(self.labels)
            + _encode_number(self.delta)
        )

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["CounterDelta", int]:
        name, offset = decode_str(data, offset)
        labels, offset = _decode_labels(data, offset)
        delta, offset = _decode_number(data, offset)
        return cls(name=name, labels=labels, delta=delta), offset


@dataclass(frozen=True)
class GaugeValue:
    """Gauge last-value (OTLP gauges are not additive; fold = replace)."""

    name: str
    labels: Labels
    value: int | float

    kind = "gauge"
    tag = b"G"

    @property
    def key(self) -> str:
        return metric_key(self.name, dict(self.labels))

    def to_bytes(self) -> bytes:
        return (
            self.tag
            + encode_str(self.name)
            + _encode_labels(self.labels)
            + _encode_number(self.value)
        )

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["GaugeValue", int]:
        name, offset = decode_str(data, offset)
        labels, offset = _decode_labels(data, offset)
        value, offset = _decode_number(data, offset)
        return cls(name=name, labels=labels, value=value), offset


@dataclass(frozen=True)
class HistogramDelta:
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
    def key(self) -> str:
        return metric_key(self.name, dict(self.labels))

    @property
    def bounds(self) -> tuple[float, ...]:
        return DEFAULT_BUCKETS if self.le is None else self.le

    def to_bytes(self) -> bytes:
        out = [self.tag, encode_str(self.name), _encode_labels(self.labels)]
        if self.le is None:
            out.append(struct.pack(">B", 0))
        else:
            out.append(struct.pack(">BH", 1, len(self.le)))
            out.append(struct.pack(f">{len(self.le)}d", *self.le))
        out.append(
            struct.pack(
                ">Qddd",
                self.count_delta,
                self.sum_total,
                self.min_total,
                self.max_total,
            )
        )
        out.append(struct.pack(">H", len(self.bucket_deltas)))
        for index, delta in self.bucket_deltas:
            out.append(struct.pack(">HQ", index, delta))
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["HistogramDelta", int]:
        name, offset = decode_str(data, offset)
        labels, offset = _decode_labels(data, offset)
        (explicit,) = struct.unpack_from(">B", data, offset)
        offset += 1
        le: tuple[float, ...] | None = None
        if explicit:
            (n_bounds,) = struct.unpack_from(">H", data, offset)
            offset += 2
            le = struct.unpack_from(f">{n_bounds}d", data, offset)
            offset += 8 * n_bounds
        count_delta, sum_total, min_total, max_total = struct.unpack_from(
            ">Qddd", data, offset
        )
        offset += 32
        (n_pairs,) = struct.unpack_from(">H", data, offset)
        offset += 2
        pairs = []
        for _ in range(n_pairs):
            index, delta = struct.unpack_from(">HQ", data, offset)
            offset += 10
            pairs.append((index, delta))
        return (
            cls(
                name=name,
                labels=labels,
                count_delta=count_delta,
                sum_total=sum_total,
                min_total=min_total,
                max_total=max_total,
                bucket_deltas=tuple(pairs),
                le=le,
            ),
            offset,
        )


MetricDelta = CounterDelta | GaugeValue | HistogramDelta

_METRIC_DECODERS = {
    CounterDelta.tag: CounterDelta.decode,
    GaugeValue.tag: GaugeValue.decode,
    HistogramDelta.tag: HistogramDelta.decode,
}


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
class TelemetryBatch:
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

    def to_bytes(self) -> bytes:
        out = [
            encode_str(self.peer),
            encode_str(self.role),
            struct.pack(
                ">iQdQ", self.shard, self.seq, self.time, self.dropped_batches
            ),
            struct.pack(">I", len(self.metrics)),
        ]
        for metric in self.metrics:
            out.append(metric.to_bytes())
        out.append(struct.pack(">H", len(self.spans)))
        for span in self.spans:
            out.append(span.to_bytes())
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["TelemetryBatch", int]:
        try:
            peer, offset = decode_str(data, offset)
            role, offset = decode_str(data, offset)
            shard, seq, time, dropped = struct.unpack_from(">iQdQ", data, offset)
            offset += 28
            (n_metrics,) = struct.unpack_from(">I", data, offset)
            offset += 4
            metrics = []
            for _ in range(n_metrics):
                tag = data[offset : offset + 1]
                decoder = _METRIC_DECODERS.get(tag)
                if decoder is None:
                    raise ProtocolError(f"unknown metric tag {tag!r}")
                metric, offset = decoder(data, offset + 1)
                metrics.append(metric)
            (n_spans,) = struct.unpack_from(">H", data, offset)
            offset += 2
            spans = []
            for _ in range(n_spans):
                span, offset = SpanRecord.decode(data, offset)
                spans.append(span)
        except (struct.error, IndexError) as exc:
            raise ProtocolError(f"malformed TelemetryBatch: {exc}") from exc
        return (
            cls(
                peer=peer,
                role=role,
                shard=shard,
                seq=seq,
                time=time,
                dropped_batches=dropped,
                metrics=tuple(metrics),
                spans=tuple(spans),
            ),
            offset,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TelemetryBatch":
        batch, offset = cls.decode(data, 0)
        if offset != len(data):
            raise ProtocolError("trailing bytes after TelemetryBatch")
        return batch

    def byte_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class ExportRequest:
    """Dispatcher envelope: the batch plus the attempt's request id."""

    request_id: int
    batch: TelemetryBatch

    def to_bytes(self) -> bytes:
        return struct.pack(">Q", self.request_id) + self.batch.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExportRequest":
        try:
            (request_id,) = struct.unpack_from(">Q", data, 0)
        except struct.error as exc:
            raise ProtocolError(f"malformed ExportRequest: {exc}") from exc
        batch, offset = TelemetryBatch.decode(data, 8)
        if offset != len(data):
            raise ProtocolError("trailing bytes after ExportRequest")
        return cls(request_id=request_id, batch=batch)

    def byte_size(self) -> int:
        return 8 + self.batch.byte_size()


@dataclass(frozen=True)
class ExportAck:
    """Collector acknowledgement: echoes the request id and batch seq."""

    request_id: int
    seq: int
    accepted: bool = True

    def to_bytes(self) -> bytes:
        return struct.pack(">QQB", self.request_id, self.seq, int(self.accepted))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExportAck":
        if len(data) != 17:
            raise ProtocolError(f"malformed ExportAck: {len(data)} bytes")
        request_id, seq, accepted = struct.unpack(">QQB", data)
        return cls(request_id=request_id, seq=seq, accepted=bool(accepted))

    def byte_size(self) -> int:
        return 17
