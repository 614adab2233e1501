"""Property tests for the wire formats: roundtrip fidelity and fuzz safety.

The first three properties are the §III-E bundle's own; the matrix below
them holds *every* type that has a byte encoding to one standard of
behaviour under hostile input.
"""

from dataclasses import dataclass, replace
from typing import Any, Callable

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.codec import Wire, varint
from repro.core.wire import PROOF_SECTION_SIZE, decode_message, encode_message
from repro.crypto.field import FIELD_BYTES
from repro.errors import ProtocolError, ReproError
from repro.treesync.messages import ShardRootDigest, ShardUpdate
from repro.waku.message import WakuMessage
from repro.witness.messages import WitnessRequest
from tests.property import wire_strategies as ws


@given(
    payload=st.binary(max_size=2048),
    topic=st.text(min_size=1, max_size=64),
    timestamp=st.floats(min_value=0, max_value=2**40, allow_nan=False),
    ephemeral=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_preserves_every_field(payload, topic, timestamp, ephemeral):
    message = WakuMessage(
        payload=payload, content_topic=topic, timestamp=timestamp, ephemeral=ephemeral
    )
    decoded = decode_message(encode_message(message))
    assert decoded.payload == payload
    assert decoded.content_topic == topic
    assert decoded.ephemeral == ephemeral
    assert abs(decoded.timestamp - timestamp) <= 0.001  # millisecond precision


@given(data=st.binary(max_size=512))
@settings(max_examples=100, deadline=None)
def test_decoding_random_bytes_never_crashes(data):
    """Fuzz: arbitrary input either parses or raises the library error —
    never an uncontrolled exception."""
    try:
        decode_message(data)
    except ReproError:
        pass  # the contract: malformed input -> ProtocolError family


@given(
    payload=st.binary(max_size=256),
    topic=st.text(min_size=1, max_size=16),
    cut=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=50, deadline=None)
def test_truncation_always_detected(payload, topic, cut):
    encoded = encode_message(WakuMessage(payload=payload, content_topic=topic))
    if cut == 0:
        decode_message(encoded)  # uncut parses
        return
    truncated = encoded[:-cut] if cut <= len(encoded) else b""
    if truncated == encoded:
        return
    with pytest.raises(ProtocolError):
        decode_message(truncated)


# -- the hostile-input matrix: seventeen codecs, one standard -------------------


@dataclass(frozen=True)
class Row:
    """One wire type: how to draw it, and its encoder / strict decoder."""

    strategy: Any
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]


def wire(cls: type[Wire], strategy) -> Row:
    return Row(strategy, cls.to_bytes, cls.from_bytes)


MATRIX = {
    "ShardRootDigest": wire(ShardRootDigest, ws.digests),
    "ShardUpdate": wire(ShardUpdate, ws.updates),
    "TreeCheckpoint": wire(ws.TreeCheckpoint, ws.checkpoints),
    "WitnessRequest": wire(WitnessRequest, ws.witness_requests),
    "WitnessResponse": wire(ws.WitnessResponse, ws.witness_responses),
    "SnapshotRequest": wire(ws.SnapshotRequest, ws.snapshot_requests),
    "SnapshotResponse": wire(ws.SnapshotResponse, ws.snapshot_responses),
    "SpanContext": wire(ws.SpanContext, ws.span_contexts),
    "SpanRecord": wire(ws.SpanRecord, ws.span_records),
    "CounterDelta": wire(ws.CounterDelta, ws.counter_deltas),
    "GaugeValue": wire(ws.GaugeValue, ws.gauge_values),
    "HistogramDelta": wire(ws.HistogramDelta, ws.histogram_deltas),
    "TelemetryBatch": wire(ws.TelemetryBatch, ws.batches),
    "ExportRequest": wire(ws.ExportRequest, ws.export_requests),
    "ExportAck": wire(ws.ExportAck, ws.export_acks),
    "Heartbeat": wire(ws.Heartbeat, ws.heartbeats),
    "WakuMessage": Row(ws.waku_messages, encode_message, decode_message),
}


def refused(row: Row, data: bytes) -> bool:
    """True when ``data`` is refused — with ProtocolError and nothing else.

    When it decodes instead, the decoding must be canonical: the value's
    encoding is exactly ``data``, so no two byte strings are one value.
    """
    try:
        decoded = row.decode(data)
    except ProtocolError:
        return True
    again = row.encode(decoded)
    if isinstance(decoded, WakuMessage):
        # The timestamp leaves the wire as float seconds and returns as
        # truncated milliseconds: eight bytes that need not survive.
        stamp = len(data) - 9 - (PROOF_SECTION_SIZE if decoded.rate_limit_proof else 0)
        data, again = data[:stamp] + data[stamp + 8 :], again[:stamp] + again[stamp + 8 :]
    assert again == data
    return False


@pytest.mark.parametrize("name", MATRIX)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_codec_holds_under_hostile_input(name, data):
    row = MATRIX[name]
    value = data.draw(row.strategy)
    encoded = row.encode(value)
    assert row.decode(encoded) == value
    if isinstance(value, Wire):
        assert value.byte_size() == len(encoded)
        # Embedded in a longer buffer, a value knows where it ends.
        assert type(value).decode(b"\x00" + encoded, 1) == (value, 1 + len(encoded))
    else:
        # WakuMessage.byte_size() is the simulator's billing estimate (no
        # version / length prefixes), deliberately not the encoded length.
        assert len(encoded) >= value.byte_size()

    # A request's trace extension is *optional trailing bytes*: cut back
    # to its 16-byte head a traced request is the untraced one, and an
    # untraced one followed by a well-formed span context is a traced
    # one.  Everywhere else a prefix or an extension is refused outright.
    open_ended = isinstance(value, WitnessRequest)

    for cut in range(len(encoded)):
        assert refused(row, encoded[:cut]) or (
            open_ended and row.decode(encoded[:cut]) == replace(value, trace=None)
        )

    mask = data.draw(st.integers(min_value=1, max_value=255), label="flip mask")
    for position in range(len(encoded)):
        flipped = bytearray(encoded)
        flipped[position] ^= mask
        refused(row, bytes(flipped))

    suffix = data.draw(st.binary(min_size=1, max_size=64), label="suffix")
    assert refused(row, encoded + suffix) or (open_ended and value.trace is None)


#: One write on the wire: a removal flag byte, the u64 slot and its
#: non-zero leaf.
WRITE_SIZE = 1 + 8 + FIELD_BYTES


@given(update=ws.updates, extra=st.integers(min_value=1, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_a_write_count_past_the_bytes_that_follow_is_refused(update, extra):
    """A block's write count is read before its writes: a count larger
    than what the bytes hold is a ProtocolError, never a short read.

    "What the bytes hold" is the count's writes plus the root-list count
    and global root that must follow them.  A raised count the bytes *can*
    hold re-slices them (shard roots and writes are both runs of fixed
    fields), so it may decode; what decodes then has that many writes and
    is canonical.
    """
    encoded = update.to_bytes()
    count = min(len(update.writes) + extra, 2**32 - 1)
    rest = encoded[8 + len(varint(len(update.writes))) :]
    forged = encoded[:8] + varint(count) + rest
    holds = count * WRITE_SIZE + 1 + FIELD_BYTES <= len(rest)
    if not holds:
        with pytest.raises(ProtocolError):
            ShardUpdate.from_bytes(forged)
        return
    try:
        decoded = ShardUpdate.from_bytes(forged)
    except ProtocolError:
        return
    assert decoded.events == count
    assert decoded.to_bytes() == forged
