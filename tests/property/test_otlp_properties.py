"""Property-based tests for the fleet-telemetry wire path.

Three claims the collector architecture rests on (the fourth — every
decoder survives truncated, mutated and extended bytes — is held for all
wire types at once by the matrix in ``test_wire_properties.py``):

* **Wire identity** — every :class:`TelemetryBatch` built from valid
  metric deltas and span records survives ``to_bytes``/``from_bytes``
  exactly, number types included (int deltas must stay ints or the
  collector's folds stop being exact integer arithmetic) — and so does
  every span a live tracer mints, local roots included.
* **Fold exactness** — cutting one peer's event stream at arbitrary
  points, diffing consecutive ``collect()`` passes
  (:func:`compute_deltas`) and folding the deltas
  (:func:`fold_delta`) reconstructs the final ``collect()`` state
  *exactly* — delta temporality loses nothing, at any batching.
* **Order independence** — replaying any interleaving of per-peer delta
  streams into a collector (each peer's own stream in order, streams
  arbitrarily merged — exactly what concurrent exporters produce)
  yields the same fleet snapshot.
* **The live export path is the oracle's** — an exporter diffs the live
  metric objects against what it last sent; tick for tick its deltas
  equal :func:`compute_deltas` over two whole ``collect()`` passes,
  whatever mix of counters, gauges, bound readers, default- and
  custom-bucket histograms, idle ticks and first-sight zero series ran.
"""

import random
import weakref
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry import Telemetry, TelemetrySnapshot
from repro.telemetry.collector import CollectorPeer, fold_delta
from repro.telemetry.disttrace import NO_PARENT, DistTracer, SpanRecord
from repro.telemetry.export import TelemetrySnapshot as Snapshot
from repro.telemetry.exporter import TelemetryExporter
from repro.telemetry.otlp import TelemetryBatch
from repro.telemetry.registry import MetricsRegistry, metric_key
from tests.delta_oracle import compute_deltas
from tests.property.wire_strategies import batches, finite, label_text, span_records


@settings(max_examples=200)
@given(batches)
def test_batch_wire_round_trip_identity(batch):
    decoded = TelemetryBatch.from_bytes(batch.to_bytes())
    assert decoded == batch
    for sent, received in zip(batch.metrics, decoded.metrics):
        for field in ("delta", "value", "count_delta"):
            a, b = getattr(sent, field, None), getattr(received, field, None)
            assert type(a) is type(b)


@settings(max_examples=200)
@given(span_records)
def test_span_record_wire_round_trip_identity(record):
    decoded = SpanRecord.from_bytes(record.to_bytes())
    assert decoded == record
    # Float timestamps must survive bit-exactly (>d is IEEE-754 binary64,
    # the same representation Python floats use).
    assert decoded.start == record.start and decoded.end == record.end
    assert decoded.byte_size() == record.byte_size()


@settings(max_examples=100)
@given(
    label_text,
    st.sampled_from(("bundle", "revocation", "revocation-network")),
    st.lists(
        st.tuples(st.sampled_from(("prefilter", "pairing", "resolve")), finite),
        max_size=4,
    ),
)
def test_local_root_span_wire_round_trip_identity(peer, kind, marks):
    # What a live tracer mints for an untraced bundle, not a hand-built
    # span: a clock replaying the generated stamps drives begin → finish.
    stamps = iter([0.0] + [stamp for _, stamp in marks] + [0.0])
    tracer = DistTracer(peer, clock=lambda: next(stamps))
    span = tracer.begin(kind)
    for stage, _ in marks:
        span.mark(stage)
    # Folded and dropped: the tracer archives nothing it could export.
    assert tracer.finish(span) is None and tracer.recent() == ()
    # Should one arrive anyway, it decodes to itself, ids in full, and is
    # recognisably local (the collector assembles no local root).
    record = SpanRecord(
        span.trace_id, span.span_id, span.parent_id, 0, peer, span.origin, kind,
        span.hop, span.start, 0.0, marks=tuple(zip(span.stages, span.stamps)),
    )
    assert record.local and record.parent_id == NO_PARENT
    assert record.peer == record.origin == peer
    assert len(record.marks) == len(marks) + 1
    assert SpanRecord.from_bytes(record.to_bytes()) == record
    assert record.byte_size() == len(record.to_bytes())


# -- fold exactness at arbitrary cut points -----------------------------------

event_streams = st.lists(
    st.tuples(
        st.sampled_from(("counter", "gauge", "histogram")),
        st.sampled_from(("a", "b")),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=40,
)


#: Per registry, the owners its bound gauges read, and their marks.
OWNERS: "weakref.WeakKeyDictionary[MetricsRegistry, dict[str, tuple]]" = (
    weakref.WeakKeyDictionary()
)


def gauge_owner(registry: MetricsRegistry, name: str, **labels: str) -> tuple:
    """The one-slot owner a gauge reads (every gauge is bound) and the
    series' mark: bound the first time a registry asks for the series."""
    owners = OWNERS.setdefault(registry, {})
    key = metric_key(name, labels)
    if key not in owners:
        cell = [0.0]
        owners[key] = cell, registry.marker(registry.bind(name, lambda: cell[0], "gauge", **labels))
    return owners[key]


def set_gauge(registry: MetricsRegistry, value: float, name: str, **labels: str) -> None:
    """Move a bound gauge as its owner does: write the owner, mark the series."""
    cell, mark = gauge_owner(registry, name, **labels)
    cell[0] = value
    mark()


def record(registry: MetricsRegistry, event) -> None:
    kind, label, value = event
    if kind == "counter":
        registry.counter("events_total", peer=label).inc(value)
    elif kind == "gauge":
        set_gauge(registry, float(value), "depth", peer=label)
    else:
        registry.histogram("wait_seconds", peer=label).observe(value / 10.0)


@settings(max_examples=150)
@given(event_streams, st.lists(st.integers(min_value=0, max_value=40), max_size=6))
def test_delta_fold_reconstructs_state_at_any_batching(stream, cuts):
    registry = MetricsRegistry()
    state: dict[str, dict] = {}
    previous: dict[str, dict] = {}
    boundaries = sorted({min(cut, len(stream)) for cut in cuts} | {len(stream)})
    start = 0
    for boundary in boundaries:
        for event in stream[start:boundary]:
            record(registry, event)
        start = boundary
        current = registry.collect()
        for delta in compute_deltas(current, previous):
            fold_delta(state, delta)
        previous = current
    assert state == registry.collect()
    assert Snapshot.from_collected(state) == TelemetrySnapshot.of(registry)


# -- interleaving order-independence ------------------------------------------


@settings(max_examples=100)
@given(
    st.lists(event_streams, min_size=2, max_size=3),
    st.integers(min_value=0, max_value=40),
    st.randoms(use_true_random=False),
)
def test_any_interleaving_of_peer_streams_folds_to_the_same_fleet(
    per_peer_streams, cut, rng
):
    # Build each peer's batch sequence: two windows per peer (cut point
    # shared for simplicity), deltas computed against that peer's own
    # previous collect pass.
    per_peer_deltas: dict[str, list[tuple]] = {}
    for index, stream in enumerate(per_peer_streams):
        peer = f"peer-{index:03d}"
        registry = MetricsRegistry()
        previous: dict[str, dict] = {}
        windows = [stream[: min(cut, len(stream))], stream[min(cut, len(stream)):]]
        per_peer_deltas[peer] = []
        for window in windows:
            for event in window:
                record(registry, event)
            current = registry.collect()
            per_peer_deltas[peer].extend(compute_deltas(current, previous))
            previous = current

    def fold_interleaving(order: list[tuple[str, object]]) -> TelemetrySnapshot:
        states: dict[str, dict[str, dict]] = {}
        for peer, delta in order:
            fold_delta(states.setdefault(peer, {}), delta)
        fleet = TelemetrySnapshot({})
        for peer in sorted(states):
            fleet = fleet.merge(Snapshot.from_collected(states[peer]))
        return fleet

    tagged = [
        (peer, delta)
        for peer, deltas in per_peer_deltas.items()
        for delta in deltas
    ]
    baseline = fold_interleaving(tagged)
    # Random cross-peer interleavings that keep each peer's stream in order.
    for _ in range(3):
        queues = {
            peer: list(deltas) for peer, deltas in per_peer_deltas.items() if deltas
        }
        interleaved: list[tuple[str, object]] = []
        while queues:
            peer = rng.choice(sorted(queues))
            interleaved.append((peer, queues[peer].pop(0)))
            if not queues[peer]:
                del queues[peer]
        assert fold_interleaving(interleaved) == baseline


# -- the exporter's live deltas against the collect()-diff oracle -----------

series_label = st.sampled_from(("a", "b"))
export_steps = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), series_label, st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("set"), series_label, st.integers(-3, 3) | finite),
        # A bound reader whose owner's count moves by 0 (unchanged) or more.
        st.tuples(st.just("bound"), series_label, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("observe"), st.sampled_from(("default", "custom")), finite),
        # A series interned mid-stream and never written: first sight at zero.
        st.tuples(
            st.just("intern"),
            st.sampled_from(("counter", "gauge", "histogram")),
            st.sampled_from(("x", "y")),
        ),
        st.just(("tick",)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(export_steps)
def test_exporter_ticks_equal_the_collect_diff_oracle(steps):
    sim = Simulator()
    graph = full_mesh(2)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(0)
    )
    peer, collector_id = sorted(graph.nodes)
    telemetry = Telemetry()
    registry = telemetry.registry
    exporter = TelemetryExporter(
        peer, telemetry, network, sim, collectors=[collector_id], start=False
    )
    collector = CollectorPeer(collector_id, network, sim)
    owned = {"a": 0, "b": 0}
    marks = {
        label: registry.marker(
            registry.bind("owned_total", lambda label=label: owned[label], peer=label)
        )
        for label in owned
    }
    histograms = {
        "default": registry.histogram("wait_seconds"),
        "custom": registry.histogram("spread", buckets=(-1.0, 0.0, 0.5, 4.0)),
    }
    previous: dict[str, dict] = {}
    ticks = 0
    for step in [*steps, ("tick",)]:
        kind = step[0]
        if kind == "inc":
            registry.counter("events_total", peer=step[1]).inc(step[2])
        elif kind == "set":
            set_gauge(registry, step[2], "depth", peer=step[1])
        elif kind == "bound":
            owned[step[1]] += step[2]
            marks[step[1]]()
        elif kind == "observe":
            histograms[step[1]].observe(step[2])
        elif kind == "intern":
            intern = partial(gauge_owner, registry) if step[1] == "gauge" else getattr(registry, step[1])
            intern(f"idle_{step[1]}", peer=step[2])
        else:
            current = registry.collect()
            expected = compute_deltas(current, previous)
            previous = current
            batch = exporter.export()
            sim.run_until_idle()
            sent = () if batch is None else batch.metrics
            assert sent == expected
            for live, oracle in zip(sent, expected):
                for field in ("delta", "value", "count_delta"):
                    assert type(getattr(live, field, None)) is type(getattr(oracle, field, None))
            ticks += 1
    assert ticks >= 1
    # Every tick's batch landed: the collector holds the registry exactly.
    assert collector.stats.lost_batches == 0
    assert collector.peer_snapshot(peer) == TelemetrySnapshot.of(registry)
