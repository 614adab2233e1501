"""The relay and telemetry records are :class:`repro.codec.Record` tuples.

A relayed copy builds an ``RPC`` envelope and each instant's end builds
IHAVE/IDONTWANT frames; an export tick builds a batch of metric deltas.
As tuples they must still behave as the frozen records they replaced:
each wire record decodes back to its own type, equal fields of two
different kinds never compare equal (a plain tuple would), a record is
immutable and hashable, and every frame bills the bytes it billed before.
"""

import pytest

from repro.codec import Record
from repro.gossipsub.messages import (
    RPC, Graft, IDontWant, IHave, IWant, Prune, PubSubMessage, Subscribe,
)
from repro.telemetry.disttrace import NO_PARENT, SpanRecord
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    Heartbeat,
    HistogramDelta,
    TelemetryBatch,
)

TOPIC = "/waku/2/default-waku/proto"
IDS = (bytes(32), bytes(range(32)))

COUNTER = CounterDelta("events_total", (("peer", "a"),), 7)
GAUGE = GaugeValue("depth", (), 3.5)
HISTOGRAM = HistogramDelta("wait_seconds", (("stage", "pairing"),), 4, 0.25, 0.01, 0.1, ((0, 3),))
BOUNDED = HISTOGRAM._replace(le=(0.1, 1.0), bucket_deltas=((2, 1),))
SPAN = SpanRecord(
    trace_id=9, span_id=9, parent_id=NO_PARENT, seq=0, peer="peer-000", origin="peer-000",
    kind="bundle", hop=0, start=1.0, end=1.5, marks=(("ingress", 1.0), ("verdict", 1.5)),
)
BATCH = TelemetryBatch("peer-000", "full", 3, 1, 12.5, 0, (COUNTER, GAUGE, HISTOGRAM, BOUNDED))
WIRE = {
    "counter": COUNTER,
    "gauge": GAUGE,
    "histogram": HISTOGRAM,
    "histogram-bounds": BOUNDED,
    "batch": BATCH,
    "batch-spans": BATCH._replace(spans=(SPAN,)),
    "request": ExportRequest(42, BATCH),
    "ack": ExportAck(42, 1),
    "refusal": ExportAck(42, 1, accepted=False),
    "heartbeat": Heartbeat("peer-000"),
}


@pytest.mark.parametrize("record", WIRE.values(), ids=WIRE.keys())
def test_each_wire_record_round_trips_to_its_own_type(record):
    data = record.to_bytes()
    decoded = type(record).from_bytes(data)
    assert type(decoded) is type(record) and decoded == record
    assert record.byte_size() == len(data)
    if isinstance(record, TelemetryBatch):
        assert list(map(type, decoded.metrics)) == list(map(type, record.metrics))


def test_a_metric_read_as_any_instrument_keeps_its_kind():
    batch = TelemetryBatch.from_bytes(BATCH.to_bytes())
    assert [m.kind for m in batch.metrics] == ["counter", "gauge", "histogram", "histogram"]
    assert type(CounterDelta.from_bytes(COUNTER.to_bytes())) is CounterDelta


@pytest.mark.parametrize(
    "one, other",
    [
        (IWant(IDS), IDontWant(IDS)),
        (CounterDelta("x", (), 1), GaugeValue("x", (), 1)),
        (Graft(TOPIC), Prune(TOPIC)),
        (Heartbeat("peer-000"), Graft("peer-000")),
    ],
    ids=["iwant-idontwant", "counter-gauge", "graft-prune", "heartbeat-graft"],
)
def test_records_of_different_kinds_never_compare_equal(one, other):
    assert tuple(one) == tuple(other)  # the same field values ...
    assert one != other and not one == other  # ... of two kinds
    assert one != tuple(one) and tuple(one) != one  # nor equal to a bare tuple
    assert len({one, other}) == 2
    assert one == type(one)(*one) and hash(one) == hash(type(one)(*one))


@pytest.mark.parametrize("record", [RPC(), IHave(TOPIC, IDS), COUNTER, BATCH])
def test_a_record_is_immutable(record):
    assert isinstance(record, Record)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_gossip_frames_bill_their_envelope_and_ids():
    message = PubSubMessage(TOPIC, b"x" * 100)
    assert IHave(TOPIC, IDS).byte_size() == 16 + len(TOPIC) + 64
    assert IWant(IDS).byte_size() == IDontWant(IDS).byte_size() == 16 + 64
    assert Graft(TOPIC).byte_size() == Prune(TOPIC).byte_size() == 16 + len(TOPIC)
    assert Subscribe(TOPIC, True).byte_size() == 16 + len(TOPIC) + 1
    assert RPC().byte_size() == 16 and not any(RPC())
    relayed = RPC(messages=(message,))
    assert relayed.byte_size() == 16 + message.byte_size() == 16 + 48 + len(TOPIC) + 100
    assert any(relayed)
    control = RPC(ihave=(IHave(TOPIC, IDS),), iwant=(IWant(IDS),), graft=(Graft(TOPIC),))
    assert control.byte_size() == 16 + sum(f.byte_size() for g in control for f in g)
    assert control == RPC((), (IHave(TOPIC, IDS),), (IWant(IDS),), (), (Graft(TOPIC),))
