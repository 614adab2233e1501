"""Unit tests for fleet telemetry: otlp wire types, exporter, collector.

The load-bearing guarantees:

* every wire type round-trips ``to_bytes``/``from_bytes`` exactly,
  preserving number types (counter int deltas stay ints — fold must be
  exact integer addition) and rejecting trailing/truncated bytes, bucket
  indices past the overflow bucket and bounds no registry can hold;
* ``compute_deltas`` (the reference in ``tests/delta_oracle.py`` that
  the exporter's live :class:`DeltaTracker` is held to) follows OTLP
  delta temporality: counters and histogram bucket/count fields diff,
  gauges and histogram ``sum``/``min``/``max`` travel as absolutes,
  unchanged metrics are skipped, and first sight exports even a zero
  (key-set parity with the offline snapshot);
* ``fold_delta`` reconstructs a peer's live ``collect()`` state exactly
  from its delta stream;
* the exporter never backpressures: the outbound queue is bounded
  drop-oldest, with the loss self-reported as
  ``telemetry_dropped_batches_total`` in the peer's own registry;
* the collector dedups retransmitted seqs (ack again, never re-fold) and
  counts sequence gaps as lost batches;
* pushes fail over to a backup collector through the shared dispatcher.
"""

import random

import pytest

from repro.errors import ProtocolError
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry import Telemetry
from repro.telemetry.collector import CollectorPeer, fold_delta
from repro.telemetry.disttrace import NO_PARENT, SpanRecord
from repro.telemetry.exporter import TelemetryExporter
from repro.telemetry.otlp import (
    CounterDelta,
    DeltaTracker,
    ExportAck,
    ExportRequest,
    GaugeValue,
    HistogramDelta,
    TelemetryBatch,
)
from tests.delta_oracle import compute_deltas


def round_trip(batch: TelemetryBatch) -> TelemetryBatch:
    return TelemetryBatch.from_bytes(batch.to_bytes())


def make_batch(metrics=(), spans=(), seq=1) -> TelemetryBatch:
    return TelemetryBatch(
        peer="peer-000",
        role="full",
        shard=3,
        seq=seq,
        time=12.5,
        dropped_batches=0,
        metrics=tuple(metrics),
        spans=tuple(spans),
    )


# -- wire round trips ---------------------------------------------------------


def test_batch_round_trip_all_metric_kinds():
    batch = make_batch(
        metrics=[
            CounterDelta("events_total", (("peer", "a"),), 7),
            GaugeValue("depth", (), 3.5),
            HistogramDelta(
                name="wait_seconds",
                labels=(("stage", "pairing"),),
                count_delta=4,
                sum_total=0.25,
                min_total=0.01,
                max_total=0.1,
                bucket_deltas=((0, 3), (33, 1)),
            ),
        ],
        spans=[
            SpanRecord(
                trace_id=9, span_id=9, parent_id=NO_PARENT, seq=0,
                peer="peer-000", origin="peer-000", kind="bundle", hop=0,
                start=1.0, end=1.5,
                marks=(("ingress", 1.0), ("verdict", 1.5)),
            )
        ],
    )
    assert round_trip(batch) == batch
    assert batch.byte_size() == len(batch.to_bytes())


def test_counter_delta_preserves_int_type():
    decoded = round_trip(make_batch([CounterDelta("c", (), 5)])).metrics[0]
    assert decoded.delta == 5 and isinstance(decoded.delta, int)
    decoded = round_trip(make_batch([CounterDelta("c", (), 0.5)])).metrics[0]
    assert decoded.delta == 0.5 and isinstance(decoded.delta, float)


def test_default_buckets_travel_as_flag_not_bounds():
    default = HistogramDelta(
        name="h", labels=(), count_delta=1, sum_total=1.0,
        min_total=1.0, max_total=1.0, bucket_deltas=((0, 1),), le=None,
    )
    explicit = HistogramDelta(
        name="h", labels=(), count_delta=1, sum_total=1.0,
        min_total=1.0, max_total=1.0, bucket_deltas=((0, 1),),
        le=tuple(float(i) for i in range(33)),
    )
    saved = len(make_batch([explicit]).to_bytes()) - len(make_batch([default]).to_bytes())
    assert saved >= 33 * 8  # the bounds themselves never travelled
    assert round_trip(make_batch([default])).metrics[0].le is None
    assert round_trip(make_batch([explicit])).metrics[0].le == explicit.le


def test_batch_rejects_trailing_and_truncated_bytes():
    data = make_batch([CounterDelta("c", (), 1)]).to_bytes()
    with pytest.raises(ProtocolError):
        TelemetryBatch.from_bytes(data + b"\x00")
    with pytest.raises(ProtocolError):
        TelemetryBatch.from_bytes(data[:-3])


def test_bucket_index_past_the_overflow_bucket_dies_in_the_decoder():
    """An out-of-range index used to decode, and then crash the collector's
    ``buckets[index] += delta`` fold with IndexError inside its handler."""

    def hostile(index, le=None):
        delta = HistogramDelta(
            name="h", labels=(), count_delta=1, sum_total=1.0,
            min_total=1.0, max_total=1.0, bucket_deltas=((index, 1),), le=le,
        )
        return make_batch([delta]).to_bytes()

    for data in (hostile(60000), hostile(34), hostile(3, le=(0.1, 0.2))):
        with pytest.raises(ProtocolError):
            TelemetryBatch.from_bytes(data)
    # The +Inf overflow bucket itself (index == len(bounds)) is legal.
    for data in (hostile(33), hostile(2, le=(0.1, 0.2))):
        state: dict[str, dict] = {}
        fold_delta(state, TelemetryBatch.from_bytes(data).metrics[0])
        assert state["h"]["buckets"][-1] == 1


@pytest.mark.parametrize(
    "le",
    [(5.0, 1.0), (0.1, float("inf")), (float("-inf"), 0.1), (float("nan"),), (0.1, 0.3, 0.2)],
    ids=["descending", "inf", "minus-inf", "nan", "unsorted"],
)
def test_histogram_bounds_no_registry_can_hold_die_in_the_decoder(le):
    """Explicit ``le=(5.0, 1.0)`` used to decode, fold into the collector's
    state and answer garbage quantiles; a ``Histogram`` only ever holds
    sorted, finite bounds."""
    delta = HistogramDelta(
        name="h", labels=(), count_delta=1, sum_total=1.0,
        min_total=1.0, max_total=1.0, bucket_deltas=((0, 1),), le=le,
    )
    with pytest.raises(ProtocolError):
        TelemetryBatch.from_bytes(make_batch([delta]).to_bytes())
    with pytest.raises(ProtocolError):
        HistogramDelta.from_bytes(delta.to_bytes())
    # Equal neighbours are non-decreasing: still a legal layout.
    legal = HistogramDelta("h", (), 1, 1.0, 1.0, 1.0, ((0, 1),), le=(0.5, 0.5, 2.0))
    assert HistogramDelta.from_bytes(legal.to_bytes()) == legal


def test_export_envelope_round_trips():
    request = ExportRequest(request_id=42, batch=make_batch())
    assert ExportRequest.from_bytes(request.to_bytes()) == request
    ack = ExportAck(request_id=42, seq=7, accepted=False)
    assert ExportAck.from_bytes(ack.to_bytes()) == ack
    with pytest.raises(ProtocolError):
        ExportAck.from_bytes(ack.to_bytes() + b"\x00")


# -- delta temporality --------------------------------------------------------


def test_compute_deltas_first_sight_exports_zero():
    registry = Telemetry().registry
    registry.counter("events_total")
    registry.gauge("depth")
    registry.histogram("wait_seconds")
    deltas = compute_deltas(registry.collect(), {})
    assert {d.key for d in deltas} == {"events_total", "depth", "wait_seconds"}
    assert next(d for d in deltas if d.key == "events_total").delta == 0


def test_compute_deltas_skips_unchanged_and_diffs_counters():
    registry = Telemetry().registry
    counter = registry.counter("events_total")
    gauge = registry.gauge("depth")
    counter.inc(3)
    previous = registry.collect()
    counter.inc(2)
    deltas = compute_deltas(registry.collect(), previous)
    assert [d.key for d in deltas] == ["events_total"]  # gauge unchanged
    assert deltas[0].delta == 2
    gauge.set(9.0)
    deltas = compute_deltas(registry.collect(), registry.collect())
    assert deltas == ()


def test_histogram_delta_is_sparse_with_cumulative_absolutes():
    registry = Telemetry().registry
    histogram = registry.histogram("wait_seconds")
    histogram.observe(0.5)
    previous = registry.collect()
    histogram.observe(0.5)
    histogram.observe(200.0)  # overflow bucket
    (delta,) = compute_deltas(registry.collect(), previous)
    assert delta.count_delta == 2
    assert len(delta.bucket_deltas) == 2  # only the buckets that moved
    assert delta.sum_total == pytest.approx(201.0)  # absolute, not delta
    assert delta.min_total == 0.5
    assert delta.max_total == 200.0


def test_delta_tracker_skips_idle_series_and_sends_moved_buckets_only():
    registry = Telemetry().registry
    histogram = registry.histogram("wait_seconds")
    registry.counter("events_total")
    tracker = DeltaTracker()
    first = tracker.deltas(registry.metrics())
    assert {d.key for d in first} == {"wait_seconds", "events_total"}
    assert tracker.deltas(registry.metrics()) == ()  # an idle tick sends nothing
    histogram.observe(0.5)
    histogram.observe(0.5)
    (delta,) = tracker.deltas(registry.metrics())
    assert delta.count_delta == 2 and len(delta.bucket_deltas) == 1
    assert (delta.min_total, delta.max_total) == (0.5, 0.5)


def test_fold_reconstructs_collect_state_exactly():
    registry = Telemetry().registry
    state: dict[str, dict] = {}
    previous: dict[str, dict] = {}
    rng = random.Random(5)
    for _ in range(10):
        registry.counter("events_total", peer="a").inc(rng.randrange(5))
        registry.gauge("depth").set(rng.random())
        registry.histogram("wait_seconds").observe(rng.random())
        current = registry.collect()
        for delta in compute_deltas(current, previous):
            fold_delta(state, delta)
        previous = current
    assert state == registry.collect()


# -- exporter / collector over the simulated network --------------------------


def build(*, collectors=("collector-0",), queue_limit=16, interval=1.0, rounds=2):
    sim = Simulator()
    graph = full_mesh(2 + len(collectors))
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01),
        rng=random.Random(7),
    )
    names = sorted(graph.nodes)
    telemetry = Telemetry()
    exporter = TelemetryExporter(
        names[0], telemetry, network, sim,
        collectors=[names[int(c.split("-")[1]) + 2] for c in collectors],
        interval=interval, queue_limit=queue_limit, rounds=rounds, start=False,
    )
    collector_peers = [
        CollectorPeer(names[i + 2], network, sim) for i in range(len(collectors))
    ]
    return sim, network, telemetry, exporter, collector_peers


def test_exporter_requires_enabled_telemetry_and_a_collector():
    sim = Simulator()
    network = Network(simulator=sim, graph=full_mesh(2), rng=random.Random(0))
    from repro.telemetry import NULL_TELEMETRY

    with pytest.raises(ProtocolError):
        TelemetryExporter("peer-000", NULL_TELEMETRY, network, sim, collectors=["peer-001"])
    with pytest.raises(ProtocolError):
        TelemetryExporter("peer-000", Telemetry(), network, sim, collectors=[])


def test_export_tick_pushes_delta_and_collector_acks():
    sim, _, telemetry, exporter, (collector,) = build()
    telemetry.registry.counter("events_total").inc(4)
    exporter.export()
    sim.run_until_idle()
    assert not exporter.pending
    assert exporter.stats.batches_sent == 1
    assert collector.stats.batches == 1
    peer = collector.peers()[0]
    assert collector.peer_snapshot(peer).value("events_total") == 4
    # Nothing changed: the next tick builds nothing, sends nothing.
    assert exporter.export() is None
    sim.run_until_idle()
    assert exporter.stats.batches_built == 1


def test_collector_dedups_retransmitted_seq():
    sim, network, telemetry, exporter, (collector,) = build()
    telemetry.registry.counter("events_total").inc(4)
    batch = exporter.export()
    sim.run_until_idle()
    # Replay the same seq (a retransmission whose ack was lost).
    network.send(
        exporter.peer_id, collector.peer_id,
        ExportRequest(request_id=999, batch=batch), protocol="telemetry",
    )
    sim.run_until_idle()
    assert collector.stats.duplicates == 1
    assert collector.stats.acks_sent == 2
    assert collector.peer_snapshot(exporter.peer_id).value("events_total") == 4


def test_collector_counts_sequence_gaps_as_lost_batches():
    sim, network, _, exporter, (collector,) = build()
    network.send(
        exporter.peer_id, collector.peer_id,
        ExportRequest(request_id=1, batch=make_batch(seq=1)), protocol="telemetry",
    )
    network.send(
        exporter.peer_id, collector.peer_id,
        ExportRequest(request_id=2, batch=make_batch(seq=4)), protocol="telemetry",
    )
    sim.run_until_idle()
    assert collector.stats.gaps == 1
    assert collector.stats.lost_batches == 2
    assert collector.stats.malformed == 0


def test_queue_drop_oldest_self_reports_into_registry():
    sim, network, telemetry, exporter, (collector,) = build(queue_limit=2, rounds=1)
    # Kill the collector's inbound channel so every push times out.
    network.remove_peer(collector.peer_id)
    for i in range(5):
        telemetry.registry.counter("events_total").inc()
        exporter.export()
        sim.run(sim.now + 2.0)
    assert exporter.stats.batches_dropped > 0
    dropped = telemetry.registry.counter(
        "telemetry_dropped_batches_total", peer=exporter.peer_id
    )
    assert dropped.value == exporter.stats.batches_dropped
    assert exporter.stats.push_failures > 0
    # Bounded: at most queue_limit batches retained plus one in flight.
    assert len(exporter._queue) <= 2


def test_push_fails_over_to_backup_collector():
    sim, network, telemetry, exporter, collectors = build(
        collectors=("collector-0", "collector-1")
    )
    primary, backup = collectors
    network.remove_peer(primary.peer_id)
    telemetry.registry.counter("events_total").inc(2)
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.batches_sent == 1
    assert backup.stats.batches == 1
    assert backup.peer_snapshot(exporter.peer_id).value("events_total") == 2


def test_exporter_drains_traces_once_each():
    sim, _, telemetry, exporter, (collector,) = build()
    tracer = telemetry.disttracer("peer-000", clock=lambda: sim.now)
    trace = tracer.begin("bundle")
    trace.mark("verdict")
    tracer.finish(trace)
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 1
    assert len(collector.recent_traces("bundle")) == 1
    # A local root is an exemplar only: it belongs to no propagation tree.
    assert collector.stats.traces == 1 and collector.stats.spans == 0
    # The same finished trace is not re-exported next tick.
    telemetry.registry.counter("events_total").inc()
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 1


def test_collector_waterfall_reports_fleet_stages():
    sim, _, telemetry, exporter, (collector,) = build()
    tracer = telemetry.disttracer("peer-000", clock=lambda: sim.now)
    trace = tracer.begin("bundle")
    sim.run(sim.now + 0.002)
    trace.mark("verdict")
    tracer.finish(trace)
    exporter.export()
    sim.run_until_idle()
    rows = collector.waterfall("bundle", stages=("verdict",))
    assert rows and rows[0]["stage"] == "verdict" and rows[0]["count"] == 1
