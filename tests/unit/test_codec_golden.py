"""Golden byte layouts: one fixed value per wire type, pinned as hex.

The vectors were captured from the commit *before* the seventeen
hand-rolled codecs moved onto :mod:`repro.codec` (PR 20), so "the port
is bit-identical" is a test, not a claim: any change to a layout — a
reordered field, a widened count, a different string prefix — fails
here with the type's name.  ``byte_size()`` is pinned through the same
vectors (it must equal the encoded length for every ``Wire`` type).

The six telemetry vectors (``SpanRecord`` to ``ExportRequest``) were
re-pinned when their layout moved to per-frame symbol tables, varints,
id-free local roots and one-bit repeated stamps; the local-root span and
the production-shaped batch were added then.
"""

import pytest

from repro.core.messages import RateLimitProof
from repro.core.wire import decode_message, encode_message
from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleProof
from repro.crypto.optimized_merkle import TreeUpdate
from repro.telemetry.disttrace import SpanContext, SpanRecord, local_prefix
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    HistogramDelta,
    TelemetryBatch,
)
from repro.treesync.messages import (
    ShardRemoval,
    ShardRootDigest,
    ShardUpdate,
    TreeCheckpoint,
)
from repro.waku.message import WakuMessage
from repro.witness.messages import (
    SnapshotRequest,
    SnapshotResponse,
    WitnessRequest,
    WitnessResponse,
)
from repro.zksnark.groth16 import Proof

F = FieldElement

PATH = MerkleProof(
    leaf=F(0xAA), index=5, siblings=(F(1), F(2), F(3)), path_bits=(1, 0, 1)
)
CONTEXT = SpanContext(trace_id=0x0123456789ABCDEF0011223344556677, span_id=99, hop=3,
                      origin="peer-007")
SPAN = SpanRecord(
    trace_id=2**127 + 5, span_id=11, parent_id=0, seq=7, peer="peer-001",
    origin="peer-000", kind="bundle", hop=2, start=1.5, end=2.25,
    marks=(("ingress", 1.5), ("verdict", 2.25)),
)
COUNTER = CounterDelta("events_total", (("kind", "é"), ("peer", "p")), 7)
GAUGE = GaugeValue("depth", (), -2.5)
HISTOGRAM = HistogramDelta(
    name="wait_seconds", labels=(("peer", "p"),), count_delta=3, sum_total=0.75,
    min_total=0.125, max_total=0.5, bucket_deltas=((0, 1), (2, 2)), le=(0.25, 0.5),
)
BATCH = TelemetryBatch(
    peer="peer-001", role="full", shard=-1, seq=4, time=12.5, dropped_batches=1,
    metrics=(
        COUNTER, GAUGE, HISTOGRAM,
        HistogramDelta("h", (), 1, 1.0, 1.0, 1.0, ((33, 1),)),
        CounterDelta("float_total", (), 0.5),
    ),
    spans=(SPAN,),
)
#: What a production batch mostly carries: a local root (its ids implied
#: by its peer, two of three stamps repeats, the end a repeat too), a
#: sampled relay span, a stage histogram and an integer counter, sharing
#: one symbol table.
LOCAL_ROOT = SpanRecord(
    trace_id=local_prefix("peer-001") | 300, span_id=300, parent_id=0, seq=8,
    peer="peer-001", origin="peer-001", kind="bundle", hop=0, start=3.0, end=3.25,
    marks=(("ingress", 3.0), ("prefilter", 3.0), ("verdict", 3.25)),
)
SAMPLED = SpanRecord(
    trace_id=0x0123456789ABCDEF0011223344556677, span_id=2**63 + 1,
    parent_id=0x1122334455667788, seq=9, peer="peer-001", origin="peer-000",
    kind="bundle", hop=1, start=3.5, end=4.0,
    marks=(("ingress", 3.5), ("verdict", 3.75)),
)
PRODUCTION_BATCH = TelemetryBatch(
    peer="peer-001", role="full", shard=-1, seq=200, time=13.0, dropped_batches=0,
    metrics=(
        CounterDelta("traces_finished_total", (("kind", "bundle"), ("peer", "peer-001")), -3),
        HistogramDelta(
            "trace_stage_seconds", (("kind", "bundle"), ("stage", "verdict")), 2,
            0.5, 0.25, 0.25, ((10, 2),),
        ),
    ),
    spans=(LOCAL_ROOT, SAMPLED),
)
BUNDLE = RateLimitProof(
    share_x=F(10), share_y=F(11), internal_nullifier=F(12), epoch=54321, root=F(13),
    proof=Proof(a=bytes(range(32)), b=bytes(range(32, 96)), c=bytes(range(96, 128))),
)

VALUES = {
    "ShardRootDigest": ShardRootDigest(
        seq=9, shard_id=2, new_shard_root=F(100), new_global_root=F(200)
    ),
    "ShardRemoval": ShardRemoval(
        seq=10, shard_id=1, index=70, removed_leaf=F(7), new_shard_root=F(8),
        new_global_root=F(9),
    ),
    "ShardUpdate": ShardUpdate(
        seq=11, shard_id=0, new_shard_root=F(300), new_global_root=F(400),
        update=TreeUpdate(index=5, new_leaf=F(0xBB), path=PATH, new_root=F(400)),
    ),
    "TreeCheckpoint": TreeCheckpoint(
        seq=12, depth=20, shard_depth=10, leaf_count=1025,
        shard_roots=((0, F(1000)), (1, F(1001))), global_root=F(1002),
    ),
    "WitnessRequest": WitnessRequest(request_id=1, index=2),
    "WitnessRequest-traced": WitnessRequest(request_id=1, index=2, trace=CONTEXT),
    "WitnessResponse": WitnessResponse(request_id=3, found=True, seq=44, proof=PATH),
    "WitnessResponse-miss": WitnessResponse(request_id=3, found=False),
    "SnapshotRequest": SnapshotRequest(request_id=5, shard_id=6),
    "SnapshotResponse": SnapshotResponse(
        request_id=5, found=True, shard_id=6, shard_depth=10, seq=77,
        leaves=((0, F(21)), (9, F(22))),
    ),
    "SpanContext": CONTEXT,
    "SpanRecord": SPAN,
    "CounterDelta": COUNTER,
    "GaugeValue": GAUGE,
    "HistogramDelta": HISTOGRAM,
    "SpanRecord-local-root": LOCAL_ROOT,
    "TelemetryBatch": BATCH,
    "TelemetryBatch-production": PRODUCTION_BATCH,
    "ExportRequest": ExportRequest(request_id=2**40, batch=BATCH),
    "ExportAck": ExportAck(request_id=2**40, seq=4, accepted=True),
    "WakuMessage": WakuMessage(
        payload=b"hello", content_topic="/rln/1/chat/proto", timestamp=123.456,
        ephemeral=True,
    ),
    "WakuMessage-proved": WakuMessage(
        payload=b"\x00\xff", content_topic="/комната/1", timestamp=1.0,
        rate_limit_proof=BUNDLE,
    ),
}

GOLDEN: dict[str, str] = {
    "ShardRootDigest": "000000000000000900000002000000000000000000000000000000000000000000000000000000000000006400000000000000000000000000000000000000000000000000000000000000c8",
    "ShardRemoval": "000000000000000a000000010000000000000046000000000000000000000000000000000000000000000000000000000000000700000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000000000000000000009",
    "ShardUpdate": "000000000000000b00000000000000000000000500000000000000000000000000000000000000000000000000000000000000bb000000000000000000000000000000000000000000000000000000000000012c00000000000000000000000000000000000000000000000000000000000001900000000000000005000300000000000000000000000000000000000000000000000000000000000000aa000000000000000000000000000000000000000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000003",
    "TreeCheckpoint": "000000000000000c140a0000000000000401000000020000000000000000000000000000000000000000000000000000000000000000000003e80000000100000000000000000000000000000000000000000000000000000000000003e900000000000000000000000000000000000000000000000000000000000003ea",
    "WitnessRequest": "00000000000000010000000000000002",
    "WitnessRequest-traced": "000000000000000100000000000000020123456789abcdef0011223344556677000000000000006300030008706565722d303037",
    "WitnessResponse": "000000000000000301000000000000002c010000000000000005000300000000000000000000000000000000000000000000000000000000000000aa000000000000000000000000000000000000000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000003",
    "WitnessResponse-miss": "000000000000000300000000000000000000",
    "SnapshotRequest": "000000000000000500000006",
    "SnapshotResponse": "000000000000000501000000060a000000000000004d00000002000000000000000000000000000000000000000000000000000000000000000000000015000000090000000000000000000000000000000000000000000000000000000000000016",
    "SpanContext": "0123456789abcdef0011223344556677000000000000006300030008706565722d303037",
    "SpanRecord": "0508706565722d3030310662756e646c6508706565722d30303007696e6772657373077665726469637402070b000180000000000000000000000000000005000000000000000002023ff8000000000000020304014002000000000000",
    "CounterDelta": "050c6576656e74735f746f74616c046b696e6402c3a90470656572017043000201020304000e",
    "GaugeValue": "0105646570746847000001c004000000000000",
    "HistogramDelta": "030c776169745f7365636f6e647304706565720170480001010201023fd00000000000003fe0000000000000033fe80000000000003fc00000000000003fe00000000000000200010202",
    "SpanRecord-local-root": "0508706565722d3030310662756e646c6507696e67726573730970726566696c74657207766572646963740308ac02000140080000000000000302030403400a000000000000",
    "TelemetryBatch": "0f08706565722d3030310466756c6c0c6576656e74735f746f74616c046b696e6402c3a9047065657201700564657074680c776169745f7365636f6e647301680b666c6f61745f746f74616c0662756e646c6508706565722d30303007696e67726573730776657264696374000101044029000000000000010543020203040506000e47070001c004000000000000480801050601023fd00000000000003fe0000000000000033fe80000000000003fc00000000000003fe0000000000000020001020248090000013ff00000000000003ff00000000000003ff0000000000000012101430a00013fe00000000000000102070b000b800000000000000000000000000000050000000000000000020c3ff8000000000000020d0e014002000000000000",
    "TelemetryBatch-production": "0c08706565722d3030310466756c6c157472616365735f66696e69736865645f746f74616c046b696e640662756e646c6504706565721374726163655f73746167655f7365636f6e6473057374616765077665726469637407696e67726573730970726566696c74657208706565722d303030000101c801402a00000000000000024302020304050000054806020304070800023fe00000000000003fd00000000000003fd0000000000000010a02020308ac020004400800000000000003090a0803400a00000000000000098180808080808080800100040123456789abcdef00112233445566771122334455667788010b400c00000000000002090801400e0000000000004010000000000000",
    "ExportRequest": "8080808080200f08706565722d3030310466756c6c0c6576656e74735f746f74616c046b696e6402c3a9047065657201700564657074680c776169745f7365636f6e647301680b666c6f61745f746f74616c0662756e646c6508706565722d30303007696e67726573730776657264696374000101044029000000000000010543020203040506000e47070001c004000000000000480801050601023fd00000000000003fe0000000000000033fe80000000000003fc00000000000003fe0000000000000020001020248090000013ff00000000000003ff00000000000003ff0000000000000012101430a00013fe00000000000000102070b000b800000000000000000000000000000050000000000000000020c3ff8000000000000020d0e014002000000000000",
    "ExportAck": "0000010000000000000000000000000401",
    "WakuMessage": "00010000000568656c6c6f00112f726c6e2f312f636861742f70726f746f000000000001e24001",
    "WakuMessage-proved": "00010000000200ff00112fd0bad0bed0bcd0bdd0b0d182d0b02f3100000000000003e802000000000000000000000000000000000000000000000000000000000000000a000000000000000000000000000000000000000000000000000000000000000b000000000000000000000000000000000000000000000000000000000000000c000000000000d431000000000000000000000000000000000000000000000000000000000000000d000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f",
}


def encode(value) -> bytes:
    return encode_message(value) if isinstance(value, WakuMessage) else value.to_bytes()


@pytest.mark.parametrize("name", VALUES)
def test_layout_is_the_parent_commits(name):
    value = VALUES[name]
    encoded = encode(value)
    assert encoded.hex() == GOLDEN[name]
    if isinstance(value, WakuMessage):
        assert encode_message(decode_message(encoded)) == encoded
    else:
        assert type(value).from_bytes(encoded) == value
        assert value.byte_size() == len(encoded)


if __name__ == "__main__":  # pragma: no cover - regenerates the table
    for key, item in VALUES.items():
        print(f'    "{key}": "{encode(item).hex()}",')
