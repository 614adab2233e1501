"""Property-based tests for the fleet-telemetry wire path.

Four claims the collector architecture rests on:

* **Wire identity** — every :class:`TelemetryBatch` built from valid
  metric deltas and span records survives ``to_bytes``/``from_bytes``
  exactly, number types included (int deltas must stay ints or the
  collector's folds stop being exact integer arithmetic) — and so does
  every span a live tracer mints, local roots included.
* **Hostile bytes** — truncating or mutating an encoded
  :class:`SpanContext`, :class:`SpanRecord` or :class:`TelemetryBatch`
  anywhere either decodes or raises :class:`ProtocolError`; no
  ``struct.error`` or ``UnicodeDecodeError`` escapes a decoder.
* **Fold exactness** — cutting one peer's event stream at arbitrary
  points, diffing consecutive ``collect()`` passes
  (:func:`compute_deltas`) and folding the deltas
  (:func:`fold_delta`) reconstructs the final ``collect()`` state
  *exactly* — delta temporality loses nothing, at any batching.
* **Order independence** — replaying any interleaving of per-peer delta
  streams into a collector (each peer's own stream in order, streams
  arbitrarily merged — exactly what concurrent exporters produce)
  yields the same fleet snapshot.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.telemetry import MetricsRegistry, TelemetrySnapshot
from repro.telemetry.collector import fold_delta
from repro.telemetry.disttrace import NO_PARENT, DistTracer, SpanContext, SpanRecord
from repro.telemetry.export import TelemetrySnapshot as Snapshot
from repro.telemetry.otlp import (
    CounterDelta,
    GaugeValue,
    HistogramDelta,
    TelemetryBatch,
    compute_deltas,
)

label_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=0,
    max_size=12,
)
labels = st.lists(
    st.tuples(st.sampled_from(("peer", "stage", "kind", "x")), label_text),
    min_size=0,
    max_size=3,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: tuple(sorted(pairs)))
names = st.sampled_from(("events_total", "wait_seconds", "depth", "weird_name"))
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

counter_deltas = st.builds(
    CounterDelta,
    name=names,
    labels=labels,
    delta=st.integers(min_value=-(2**62), max_value=2**62) | finite,
)
gauge_values = st.builds(GaugeValue, name=names, labels=labels, value=finite)
histogram_deltas = st.builds(
    HistogramDelta,
    name=names,
    labels=labels,
    count_delta=st.integers(min_value=0, max_value=2**40),
    sum_total=finite,
    min_total=finite,
    max_total=finite,
    bucket_deltas=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=33),
            st.integers(min_value=0, max_value=2**40),
        ),
        max_size=5,
    ).map(tuple),
    le=st.none()
    | st.lists(finite, min_size=1, max_size=6, unique=True).map(
        lambda bounds: tuple(sorted(bounds))
    ),
)
span_records = st.builds(
    SpanRecord,
    trace_id=st.integers(min_value=0, max_value=2**128 - 1),
    span_id=st.integers(min_value=0, max_value=2**64 - 1),
    parent_id=st.integers(min_value=0, max_value=2**64 - 1),
    seq=st.integers(min_value=0, max_value=2**50),
    peer=label_text,
    origin=label_text,
    kind=st.sampled_from(
        ("publish", "bundle", "revocation", "witness-fetch", "witness-serve",
         "evidence")
    ),
    hop=st.integers(min_value=0, max_value=2**16 - 1),
    start=finite,
    end=finite,
    marks=st.lists(
        st.tuples(st.sampled_from(("ingress", "verdict", "pairing")), finite),
        max_size=4,
    ).map(tuple),
)
batches = st.builds(
    TelemetryBatch,
    peer=label_text,
    role=st.sampled_from(("full", "light", "witness-provider")),
    shard=st.integers(min_value=-1, max_value=2**31 - 1),
    seq=st.integers(min_value=1, max_value=2**50),
    time=finite,
    dropped_batches=st.integers(min_value=0, max_value=2**50),
    metrics=st.lists(
        counter_deltas | gauge_values | histogram_deltas, max_size=6
    ).map(tuple),
    spans=st.lists(span_records, max_size=3).map(tuple),
)


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
    # record: a clock replaying the generated stamps drives begin → finish.
    stamps = iter([0.0] + [stamp for _, stamp in marks] + [0.0])
    tracer = DistTracer(peer, clock=lambda: next(stamps))
    span = tracer.begin(kind)
    for stage, _ in marks:
        span.mark(stage)
    record = tracer.finish(span)
    assert record.parent_id == NO_PARENT and record.peer == record.origin == peer
    assert len(record.marks) == len(marks) + 1
    assert SpanRecord.from_bytes(record.to_bytes()) == record
    assert record.byte_size() == len(record.to_bytes())


# -- hostile bytes ------------------------------------------------------------

span_contexts = st.builds(
    SpanContext,
    trace_id=st.integers(min_value=0, max_value=2**128 - 1),
    span_id=st.integers(min_value=0, max_value=2**64 - 1),
    hop=st.integers(min_value=0, max_value=2**16 - 1),
    origin=label_text,
)


@settings(max_examples=150)
@given(
    span_contexts | span_records | batches,
    st.data(),
)
def test_truncated_or_mutated_bytes_raise_only_protocol_error(message, data):
    encoded = message.to_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    position = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    flipped = bytearray(encoded)
    flipped[position] ^= data.draw(st.integers(min_value=1, max_value=255))
    with pytest.raises(ProtocolError):
        type(message).from_bytes(encoded[:cut])
    try:
        type(message).from_bytes(bytes(flipped))
    except ProtocolError:
        pass


# -- fold exactness at arbitrary cut points -----------------------------------

event_streams = st.lists(
    st.tuples(
        st.sampled_from(("counter", "gauge", "histogram")),
        st.sampled_from(("a", "b")),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=40,
)


def record(registry: MetricsRegistry, event) -> None:
    kind, label, value = event
    if kind == "counter":
        registry.counter("events_total", peer=label).inc(value)
    elif kind == "gauge":
        registry.gauge("depth", peer=label).set(float(value))
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
