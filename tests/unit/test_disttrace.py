"""Unit tests for the span model: local and cross-peer tracing.

The load-bearing guarantees:

* :class:`SpanContext` / :class:`SpanRecord` round-trip the wire exactly
  and reject trailing bytes; a span carries its ids in full (flags bit 0
  is reserved), a repeated stamp travels as one mask bit (bytes compared,
  so -0.0 survives), and every other spelling of those is refused;
* head sampling is decided once at the root: ``sample=0.0`` mints
  nothing (and costs nothing on the message), downstream peers honour an
  inbound context regardless of their own rate, and the sampling RNG is
  deterministic per peer (never the router's);
* the relay rewrite hook re-stamps contexts with the forwarding peer's
  own span, strips (never misattributes) when the route table lost the
  entry, and leaves untraced messages untouched;
* an untraced bundle's span is a *local* root: folded like any other,
  but never archived or exported, never in the route table and never in
  a propagation tree;
* the exporter drains spans behind one per-tracer cursor — ring eviction
  racing the cursor surfaces as ``spans_missed``, bounded batches as
  ``spans_truncated`` — and ``close()`` rescues cursor-stranded spans
  with ``close_flush_*`` accounting (shutdown strands nothing);
* the collector's :class:`TraceAssembler` stitches rooted trees, flags
  incompleteness, dedups retransmissions, and answers fan-out /
  duplicate-delivery / critical-path / quantile questions.
"""

import copy
import math
import pickle
import random
import struct

import pytest

from repro.analysis.reporting import percentile
from repro.codec import Writer, varint
from repro.errors import ProtocolError
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry import Telemetry
from repro.telemetry.collector import CollectorPeer
from repro.telemetry.disttrace import (
    NO_PARENT,
    REVOCATION_CAPACITY,
    RING_CAPACITY,
    ROUTE_CAPACITY,
    DistTracer,
    SpanContext,
    SpanRecord,
    TraceAssembler,
    local_prefix,
)
from repro.telemetry.exporter import TelemetryExporter
from repro.telemetry.otlp import TelemetryBatch
from repro.telemetry.registry import MetricsRegistry
from repro.witness.messages import WitnessRequest


def make_context(**overrides) -> SpanContext:
    values = dict(trace_id=7 << 64, span_id=11, hop=2, origin="peer-000")
    values.update(overrides)
    return SpanContext(**values)


def make_span(
    *, trace_id=1, span_id=2, parent_id=NO_PARENT, seq=0, peer="peer-000",
    kind="publish", hop=0, start=0.0, end=1.0, marks=(),
) -> SpanRecord:
    return SpanRecord(
        trace_id=trace_id, span_id=span_id, parent_id=parent_id, seq=seq,
        peer=peer, origin="peer-000", kind=kind, hop=hop, start=start,
        end=end, marks=tuple(marks),
    )


# -- wire types ---------------------------------------------------------------


def test_span_context_round_trip_and_trailing_reject():
    ctx = make_context()
    data = ctx.to_bytes()
    assert len(data) == ctx.byte_size()
    assert SpanContext.from_bytes(data) == ctx
    with pytest.raises(ProtocolError):
        SpanContext.from_bytes(data + b"\x00")
    with pytest.raises(ProtocolError):
        SpanContext.from_bytes(data[:-1])


def test_span_record_round_trip_with_marks():
    record = make_span(marks=(("prefilter", 0.25), ("verdict", 0.75)))
    assert SpanRecord.from_bytes(record.to_bytes()) == record
    with pytest.raises(ProtocolError):
        SpanRecord.from_bytes(record.to_bytes() + b"!")


def span_frame(*, flags, kind="bundle", ids=(7 << 64, 9, 1), marks=0, mask=0, kept=(), end=2.0):
    """A standalone span frame built field by field — peer and origin "p",
    seq 1, span id 5, start 1.0 — so a test can write what the encoder
    never does.  ``ids`` are (trace id, parent, hop); ``kept`` are the
    stamps written out, ``end`` is None when flagged as repeating."""

    def body(w, refs):
        w.raw(bytes([flags]))
        w.raw(varint(1))
        w.raw(varint(5))
        w.raw(refs["p"])
        w.raw(refs[kind])
        trace_id, parent_id, hop = ids
        w.raw(trace_id.to_bytes(16, "big"))
        w.pack(">Q", parent_id)
        w.raw(varint(hop))
        w.raw(refs["p"])
        w.pack(">d", 1.0)
        w.raw(varint(marks))
        w.extend(refs["verdict"] for _ in range(marks))
        w.raw(varint(mask))
        w.extend(struct.pack(">d", stamp) for stamp in kept)
        if end is not None:
            w.pack(">d", end)

    writer = Writer()
    writer.frame(body)
    return writer.getvalue()


@pytest.mark.parametrize(
    "data",
    [
        span_frame(flags=1, ids=(local_prefix("p") | 5, NO_PARENT, 0)),
        span_frame(flags=1, kind="publish", ids=(local_prefix("p") | 5, NO_PARENT, 0)),
        span_frame(flags=4),
        span_frame(flags=0, marks=1, kept=(1.0,)),
        span_frame(flags=0, end=1.0),
        span_frame(flags=0, marks=1, mask=2, kept=()),
    ],
    ids=[
        "local-root-flag", "publish-as-local-root", "reserved-flag",
        "repeated-stamp-in-full", "repeated-end-in-full", "mask-past-the-marks",
    ],
)
def test_span_decoding_refuses_what_the_encoder_never_writes(data):
    with pytest.raises(ProtocolError):
        SpanRecord.from_bytes(data)


def test_repeated_stamps_compare_bytes_so_negative_zero_survives():
    record = make_span(start=0.0, end=-0.0, marks=(("a", -0.0), ("b", -0.0), ("c", 0.0)))
    decoded = SpanRecord.from_bytes(record.to_bytes())
    signs = [math.copysign(1.0, stamp) for stamp in (*decoded.stamps, decoded.end)]
    assert signs == [-1.0, -1.0, 1.0, -1.0]
    # -0.0 after 0.0 is kept, the second -0.0 is one mask bit; 0.0 is kept
    # again and the end (-0.0 after 0.0) is written out too.
    assert record.to_bytes() == SpanRecord.from_bytes(record.to_bytes()).to_bytes()
    repeats = make_span(start=1.0, end=1.0, marks=(("a", 1.0), ("b", 1.0), ("c", 1.0)))
    assert len(repeats.to_bytes()) == len(record.to_bytes()) - 3 * 8


def test_span_records_are_slotted_and_share_their_stage_path():
    """A finished span is two objects — the record and its stamps — with
    no ``__dict__``; spans that took one path share its stage names."""
    now = [0.0]
    tracer = DistTracer("peer-000", clock=lambda: now[0])
    records = []
    for _ in range(2):
        span = tracer.begin("bundle", parent=make_context())
        for stage in ("prefilter", "pairing"):
            now[0] += 0.5
            span.mark(stage)
        records.append(tracer.finish(span))
    first, second = records
    assert not hasattr(first, "__dict__")
    assert first.stage_path is second.stage_path
    assert first.marks == (("ingress", 0.0), ("prefilter", 0.5), ("pairing", 1.0))
    assert first.stamps == (0.0, 0.5, 1.0)
    # Built from marks, it is the record the tracer built.
    rebuilt = SpanRecord(*first[:10], marks=first.marks)
    assert rebuilt == first and SpanRecord.from_bytes(first.to_bytes()) == first
    assert copy.copy(first) == first and pickle.loads(pickle.dumps(first)) == first


def test_finish_folds_each_delta_into_its_stage_in_mark_order():
    now = [0.0]
    registry = MetricsRegistry()
    tracer = DistTracer("peer-000", registry=registry, clock=lambda: now[0])
    span = tracer.begin("bundle")
    for stage, stamp in (("pairing", 0.25), ("resolve", 1.0), ("pairing", 3.0)):
        now[0] = stamp
        span.mark(stage)
    tracer.finish(span)
    pairing = registry.histogram("trace_stage_seconds", kind="bundle", stage="pairing")
    resolve = registry.histogram("trace_stage_seconds", kind="bundle", stage="resolve")
    assert pairing.count == 2 and pairing.total == 0.25 + 2.0
    assert resolve.count == 1 and resolve.total == 0.75
    total = registry.histogram("trace_total_seconds", kind="bundle")
    assert total.count == 1 and total.total == 3.0
    assert registry.counter("traces_finished_total", kind="bundle").value == 1
    # A publish root is archived, never folded.
    tracer.finish(DistTracer("peer-000", sample=1.0).begin_publish())
    assert registry.counter("traces_finished_total", kind="bundle").value == 1


def test_finished_since_reads_back_from_the_newest_to_a_cursor():
    tracer = DistTracer("peer-000")
    last = RING_CAPACITY + 1
    for _ in range(last + 1):
        tracer.finish(tracer.begin("bundle", parent=make_context()))
    # seqs 2..last are in the ring; 0 and 1 were evicted.
    assert [r.seq for r in tracer.finished_since(last - 2)] == [last - 1, last]
    assert [r.seq for r in tracer.finished_since(last)] == []
    assert [r.seq for r in tracer.finished_since(-1)] == list(range(2, last + 1))


def test_witness_request_trace_rides_as_trailing_bytes():
    bare = WitnessRequest(request_id=4, index=9)
    assert len(bare.to_bytes()) == 16 == bare.byte_size()
    assert WitnessRequest.from_bytes(bare.to_bytes()) == bare
    traced = WitnessRequest(request_id=4, index=9, trace=make_context())
    decoded = WitnessRequest.from_bytes(traced.to_bytes())
    assert decoded == traced and decoded.trace == traced.trace
    assert traced.byte_size() == 16 + traced.trace.byte_size()
    # One extension, not "anything after the head": bytes past the span
    # context used to be ignored here and nowhere else.
    with pytest.raises(ProtocolError):
        WitnessRequest.from_bytes(traced.to_bytes() + b"junk")


# -- head sampling ------------------------------------------------------------


def test_sample_zero_mints_nothing_and_one_always_mints():
    sim = Simulator()
    off = DistTracer("peer-000", sample=0.0, clock=lambda: sim.now)
    assert off.begin_publish() is None and off.recent() == ()
    on = DistTracer("peer-000", sample=1.0, clock=lambda: sim.now)
    span = on.begin_publish()
    assert span is not None and span.context.hop == 0
    with pytest.raises(ProtocolError):
        DistTracer("peer-000", sample=1.5)


def test_sampling_rng_is_deterministic_per_peer():
    def draws() -> tuple[bool, ...]:
        dist = DistTracer("peer-007", sample=0.5)
        return tuple(dist.begin_publish() is not None for _ in range(20))

    decisions = [draws(), draws()]
    assert decisions[0] == decisions[1]
    assert True in decisions[0] and False in decisions[0]


def test_downstream_child_ignores_local_sample_rate():
    # Head sampling: the root's decision rides the wire; a peer whose own
    # rate is 0.0 still opens child spans for inbound traced messages.
    dist = DistTracer("peer-001", sample=0.0)
    parent = make_context(hop=0)
    span = dist.begin(parent=parent, key=b"m1")
    span.mark("verdict")
    dist.finish(span)
    (record,) = dist.recent()
    assert record.hop == 1 and record.parent_id == parent.span_id
    assert record.trace_id == parent.trace_id and record.origin == parent.origin
    assert [stage for stage, _ in record.marks] == ["ingress", "verdict"]


# -- child spans, local roots & the route table ---------------------------------


def test_child_registers_outbound_context_with_own_span_id():
    dist = DistTracer("peer-001", sample=0.0)
    parent = make_context(hop=0, span_id=99)
    span = dist.begin(parent=parent, key=b"m1")
    outbound = dist.outbound_context(b"m1")
    assert outbound is not None and outbound == span.context
    assert outbound.span_id == span.span_id != parent.span_id
    assert outbound.hop == 1 and outbound.trace_id == parent.trace_id
    assert dist.outbound_context(b"other") is None


def test_untraced_begin_is_a_local_root_outside_the_route_table():
    registry = MetricsRegistry()
    dist = DistTracer("peer-001", registry=registry, sample=1.0)
    first = dist.begin(key=b"m1")
    second = dist.begin("revocation", key=b"m2")
    # Never forwarded: the rewriter finds nothing to stamp on the message.
    assert dist.outbound_context(b"m1") is None
    assert dist.outbound_context(b"m2") is None
    for span in (first, second):
        assert span.parent_id == NO_PARENT and span.hop == 0
        assert span.origin == "peer-001"
    assert first.trace_id != second.trace_id
    assert first.stages[0] == "ingress" and second.stages[0] == "evidence"
    # Another peer's local ids never collide with this one's.
    assert DistTracer("peer-002").begin().trace_id != first.trace_id
    # Local roots fold like every span, then are dropped: never archived.
    assert dist.finish(first) is None and dist.finish(second) is None
    assert dist.recent() == ()
    assert registry.counter("traces_finished_total", kind="bundle").value == 1
    assert registry.counter("traces_finished_total", kind="revocation").value == 1
    # Sampled publish roots are archived, never folded.
    root = dist.finish(dist.begin_publish())
    assert dist.recent() == (root,)
    assert not any("publish" in key for key in registry.collect())


def test_route_table_is_bounded_drop_oldest():
    dist = DistTracer("peer-001")
    parent = make_context(hop=0)
    keys = [b"%d" % index for index in range(ROUTE_CAPACITY + 1)]
    for key in keys:
        dist.begin(parent=parent, key=key)
    assert dist.outbound_context(keys[0]) is None
    assert dist.outbound_context(keys[1]) is not None
    assert dist.outbound_context(keys[-1]) is not None


def test_revocation_table_is_bounded_and_a_key_set_again_keeps_its_slot():
    dist = DistTracer("peer-001")
    for index in range(REVOCATION_CAPACITY):
        dist.set_revocation_context(index, make_context(span_id=index + 1))
    # Setting the oldest key again moves its context, not its slot.
    dist.set_revocation_context(0, make_context(span_id=999))
    assert dist.revocation_context(0).span_id == 999
    dist.set_revocation_context("new", make_context())
    assert dist.revocation_context(0) is None  # still the oldest: evicted
    assert dist.revocation_context(1) is not None
    assert dist.revocation_context("new") is not None


# -- exporter cursor discipline ------------------------------------------------


def build_fleet(**telemetry_kwargs):
    sim = Simulator()
    graph = full_mesh(2)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01),
        rng=random.Random(7),
    )
    telemetry = Telemetry(**telemetry_kwargs)
    exporter = TelemetryExporter(
        "peer-000", telemetry, network, sim,
        collectors=["peer-001"], start=False,
    )
    collector = CollectorPeer("peer-001", network, sim)
    return sim, telemetry, exporter, collector


def test_exporter_drains_spans_once_each():
    sim, telemetry, exporter, collector = build_fleet(trace_sample=1.0)
    dist = telemetry.disttracer("peer-000", clock=lambda: sim.now)
    dist.finish(dist.begin_publish())
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 1
    assert collector.stats.spans == 1
    assert collector.assembler.span_count == 1
    telemetry.registry.counter("events_total").inc()
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 1  # not re-exported


def test_span_ring_eviction_racing_cursor_counts_spans_missed():
    # A burst between two ticks longer than the tracer ring loses spans —
    # relay hops and sampled roots share it; the cursor sees the seq gap
    # and owns up to it.
    sim, telemetry, exporter, collector = build_fleet(trace_sample=1.0)
    dist = telemetry.disttracer("peer-000", clock=lambda: sim.now)
    for _ in range(3):
        dist.finish(dist.begin("bundle", parent=make_context()))
    for _ in range(RING_CAPACITY):
        dist.finish(dist.begin_publish())
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_missed == 3  # seqs 0-2 evicted unseen
    assert exporter.stats.spans_exported == exporter.max_spans_per_batch
    assert collector.assembler.span_count == exporter.max_spans_per_batch


def test_spans_over_batch_bound_truncate_but_cursor_advances():
    sim, telemetry, exporter, _ = build_fleet(trace_sample=1.0)
    exporter.max_spans_per_batch = 2
    dist = telemetry.disttracer("peer-000", clock=lambda: sim.now)
    for _ in range(5):
        dist.finish(dist.begin_publish())
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 2
    assert exporter.stats.spans_truncated == 3
    # Truncated spans are skipped, not stalled: nothing re-exports.
    telemetry.registry.counter("events_total").inc()
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 2


def test_close_flushes_cursor_stranded_traces_and_spans():
    # A peer shutting down mid-interval must not strand finished spans
    # behind the cursor; close() proves the rescue in close_flush_* and
    # the collector actually receives them — the relay hop and the
    # publish root, both as tree nodes.
    sim, telemetry, exporter, collector = build_fleet(trace_sample=1.0)
    dist = telemetry.disttracer("peer-000", clock=lambda: sim.now)
    exporter.export()  # a normal tick first (baseline cursors)
    sim.run_until_idle()
    dist.finish(dist.begin("bundle", parent=make_context()))
    dist.finish(dist.begin_publish())
    exporter.close()
    sim.run_until_idle()
    assert exporter.stats.close_flush_batches == 1
    assert exporter.stats.close_flush_spans == 2
    assert collector.stats.spans == 2
    assert collector.assembler.span_count == 2
    # Idempotent: nothing new, nothing rescued twice.
    exporter.close()
    sim.run_until_idle()
    assert exporter.stats.close_flush_batches == 1


# -- batch wire carriage -------------------------------------------------------


def test_batch_spans_field_round_trips_and_is_small_when_empty():
    tracer = DistTracer("peer-000")
    traced = tracer.finish(tracer.begin(parent=make_context()))
    spans = (make_span(), make_span(span_id=3, parent_id=2, seq=1, hop=1), traced)
    with_spans = TelemetryBatch(
        peer="p", role="full", shard=-1, seq=1, time=0.0,
        dropped_batches=0, metrics=(), spans=spans,
    )
    decoded = TelemetryBatch.from_bytes(with_spans.to_bytes())
    assert decoded.spans == spans
    without = TelemetryBatch(
        peer="p", role="full", shard=-1, seq=1, time=0.0,
        dropped_batches=0, metrics=(),
    )
    # In a batch, spans share its symbol table: never dearer than alone.
    span_bytes = len(with_spans.to_bytes()) - len(without.to_bytes())
    assert span_bytes <= sum(s.byte_size() for s in spans)
    # No spans is one byte, the zero count that ends the frame, and a
    # batch with nothing in it is a couple of dozen bytes.
    assert without.to_bytes()[-1] == 0
    assert len(without.to_bytes()) <= 24


# -- assembly ------------------------------------------------------------------


def make_tree_spans():
    #        root(p0)
    #        /      \
    #   s2(p1)     s3(p2)
    #     |
    #   s4(p3)   + a witness-fetch leaf under the root
    return [
        make_span(span_id=1, seq=0, peer="peer-000", start=0.0, end=0.1),
        make_span(span_id=2, parent_id=1, seq=0, peer="peer-001",
                  kind="bundle", hop=1, start=0.05, end=0.15),
        make_span(span_id=3, parent_id=1, seq=1, peer="peer-002",
                  kind="bundle", hop=1, start=0.06, end=0.12),
        make_span(span_id=4, parent_id=2, seq=0, peer="peer-003",
                  kind="bundle", hop=2, start=0.10, end=0.30),
        make_span(span_id=5, parent_id=1, seq=1, peer="peer-000",
                  kind="witness-fetch", hop=0, start=0.01, end=0.02),
    ]


def test_assembler_builds_rooted_tree_with_fanout_and_critical_path():
    assembler = TraceAssembler()
    for span in make_tree_spans():
        assembler.add(span)
    tree = assembler.tree(1)
    assert tree is not None and tree.complete
    assert tree.span_count == 5 and tree.hops == 2
    assert len(tree.relay_spans()) == 3  # the witness-fetch leaf excluded
    assert tree.fanout(1) == 2 and tree.max_fanout == 2
    assert tree.duplicate_deliveries == 0
    assert [s.peer for s in tree.critical_path()] == [
        "peer-000", "peer-001", "peer-003",
    ]
    assert tree.end_to_end == pytest.approx(0.30)
    hop2 = next(span for span in tree.relay_spans() if span.hop == 2)
    assert hop2.start - tree.spans[hop2.parent_id].start == pytest.approx(0.05)
    rendered = tree.render()
    assert "peer-003" in rendered and "witness-fetch" in rendered
    as_json = tree.to_json()
    assert as_json["spans"] == 5 and as_json["max_fanout"] == 2


def test_assembler_dedups_and_flags_missing_parents():
    assembler = TraceAssembler()
    spans = make_tree_spans()
    for span in spans + [spans[0]]:
        assembler.add(span)
    assert assembler.duplicates == 1
    # Drop the intermediate hop: its child's parent is unresolved.
    partial = TraceAssembler()
    for span in spans:
        if span.span_id != 2:
            partial.add(span)
    tree = partial.tree(1)
    assert tree is not None and not tree.complete
    # No root at all: not assemblable yet.
    rootless = TraceAssembler()
    rootless.add(spans[1])
    assert rootless.tree(1) is None


def test_assembler_quantiles_over_relay_spans():
    assembler = TraceAssembler()
    for span in make_tree_spans():
        assembler.add(span)
    q = assembler.quantiles()
    assert q["count"] == 3
    assert q["max"] == pytest.approx(0.30)
    assert 0.0 < q["p50"] <= q["p99"] <= q["max"]


def test_assembler_quantiles_use_the_shared_percentile():
    # Two relay spans, publish->verdict 0.25 s and 0.75 s: the shared
    # linear-interpolated p50 is their midpoint, not the upper sample.
    assembler = TraceAssembler()
    assembler.add(make_span(span_id=1, start=0.0, end=0.1))
    for span_id, end in ((2, 0.25), (3, 0.75)):
        assembler.add(
            make_span(span_id=span_id, parent_id=1, seq=span_id, kind="bundle",
                      hop=1, peer=f"peer-00{span_id}", start=0.05, end=end)
        )
    q = assembler.quantiles()
    assert q["count"] == 2
    assert q["p50"] == pytest.approx(0.5)
    assert q["p99"] == pytest.approx(percentile([0.25, 0.75], 0.99))
    assert q["max"] == 0.75


def test_duplicate_delivery_detection():
    assembler = TraceAssembler()
    for span in make_tree_spans():
        assembler.add(span)
    assembler.add(
        make_span(span_id=6, parent_id=3, seq=2, peer="peer-001",
                  kind="bundle", hop=2, start=0.2, end=0.25)
    )
    tree = assembler.tree(1)
    assert tree.duplicate_deliveries == 1  # peer-001 judged it twice
