"""Hypothesis strategies for every type that has a byte encoding.

One strategy per wire type, shared by the hostile-input matrix
(``test_wire_properties.py``) and the telemetry fold/round-trip
properties (``test_otlp_properties.py``).  Every strategy draws only
*valid* values — what an honest encoder can be handed — so a property
that fails on one of them is a codec bug, not a strategy artefact.
"""

from hypothesis import strategies as st

from repro.core.messages import RateLimitProof
from repro.crypto.field import FIELD_MODULUS, FieldElement, ZERO
from repro.crypto.merkle import MerkleProof
from repro.telemetry.disttrace import SpanContext, SpanRecord
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    Heartbeat,
    HistogramDelta,
    TelemetryBatch,
)
from repro.telemetry.registry import DEFAULT_BUCKETS
from repro.treesync.messages import ShardRootDigest, ShardUpdate, TreeCheckpoint
from repro.waku.message import WakuMessage
from repro.witness.messages import (
    SnapshotRequest,
    SnapshotResponse,
    WitnessRequest,
    WitnessResponse,
)
from repro.zksnark.groth16 import Proof

# -- tree-sync and witness artefacts --------------------------------------------

fields = st.integers(min_value=0, max_value=FIELD_MODULUS - 1).map(FieldElement)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
u8 = st.integers(min_value=0, max_value=255)


@st.composite
def proofs(draw):
    depth = draw(st.integers(min_value=0, max_value=4))
    index = draw(u64)
    return MerkleProof(
        leaf=draw(fields),
        index=index,
        siblings=tuple(draw(fields) for _ in range(depth)),
        path_bits=tuple((index >> level) & 1 for level in range(depth)),
    )


sparse = st.lists(st.tuples(u32, fields), max_size=4).map(tuple)
digests = st.builds(
    ShardRootDigest,
    seq=u64,
    events=u32,
    removed=st.booleans(),
    shard_roots=sparse,
    new_global_root=fields,
)
#: One ``(index, old_leaf, new_leaf)`` write: it fills a zero slot or
#: zeroes a full one.
writes = st.builds(
    lambda index, leaf, removal: (index, leaf, ZERO) if removal else (index, ZERO, leaf),
    u64,
    fields.filter(lambda leaf: leaf != ZERO),
    st.booleans(),
)
#: A block: one or more writes.
updates = st.builds(
    ShardUpdate,
    seq=u64,
    writes=st.lists(writes, min_size=1, max_size=4).map(tuple),
    shard_roots=sparse,
    new_global_root=fields,
)
checkpoints = st.builds(
    TreeCheckpoint,
    seq=u64,
    depth=u8,
    shard_depth=u8,
    leaf_count=u64,
    shard_roots=sparse,
    global_root=fields,
)
witness_responses = st.builds(
    WitnessResponse,
    request_id=u64,
    found=st.booleans(),
    seq=u64,
    proof=st.none() | proofs(),
)
snapshot_requests = st.builds(SnapshotRequest, request_id=u64, shard_id=u32)
snapshot_responses = st.builds(
    SnapshotResponse,
    request_id=u64,
    found=st.booleans(),
    shard_id=u32,
    shard_depth=u8,
    seq=u64,
    leaves=sparse,
)

# -- telemetry ------------------------------------------------------------------

label_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=0,
    max_size=12,
)


def _labels(text):
    return st.lists(
        st.tuples(st.sampled_from(("peer", "stage", "kind", "x")), text),
        min_size=0,
        max_size=3,
        unique_by=lambda pair: pair[0],
    ).map(lambda pairs: tuple(sorted(pairs)))


labels = _labels(label_text)
names = st.sampled_from(("events_total", "wait_seconds", "depth", "weird_name"))
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

span_contexts = st.builds(
    SpanContext,
    trace_id=st.integers(min_value=0, max_value=2**128 - 1),
    span_id=u64,
    hop=st.integers(min_value=0, max_value=2**16 - 1),
    origin=label_text,
)
witness_requests = st.builds(
    WitnessRequest, request_id=u64, index=u64, trace=st.none() | span_contexts
)

def _counter_deltas(text=label_text):
    return st.builds(
        CounterDelta,
        name=names | text,
        labels=_labels(text),
        delta=st.integers(min_value=-(2**63), max_value=2**63 - 1) | finite,
    )


def _gauge_values(text=label_text):
    return st.builds(GaugeValue, name=names | text, labels=_labels(text), value=finite)


counter_deltas = _counter_deltas()
gauge_values = _gauge_values()


@st.composite
def _histogram_deltas(draw, text=label_text):
    le = draw(
        st.none()
        | st.lists(finite, min_size=1, max_size=6, unique=True).map(
            lambda bounds: tuple(sorted(bounds))
        )
    )
    # Index ``len(bounds)`` is the +Inf overflow bucket, the last there is.
    overflow = len(DEFAULT_BUCKETS if le is None else le)
    return HistogramDelta(
        name=draw(names | text),
        labels=draw(_labels(text)),
        count_delta=draw(u64),
        sum_total=draw(finite),
        min_total=draw(finite),
        max_total=draw(finite),
        bucket_deltas=tuple(
            draw(
                st.lists(
                    st.tuples(st.integers(min_value=0, max_value=overflow), u64),
                    max_size=5,
                )
            )
        ),
        le=le,
    )


histogram_deltas = _histogram_deltas()
span_kinds = st.sampled_from(
    ("publish", "bundle", "revocation", "witness-fetch", "witness-serve", "evidence")
)


@st.composite
def _span_records(draw, text=label_text):
    """Any span — and, drawn on purpose rather than by chance, the shapes
    the wire writes short: runs of repeated stamps with 0.0 beside -0.0
    (equal, but not the same bytes), and an end that repeats the last
    stamp."""
    peer, span_id, kind = draw(text), draw(u64), draw(span_kinds)
    trace_id = draw(st.integers(min_value=0, max_value=2**128 - 1))
    parent_id, origin = draw(u64), draw(text)
    hop = draw(st.integers(min_value=0, max_value=2**16 - 1))
    start = draw(finite)
    stamp = st.sampled_from((start, 0.0, -0.0, draw(finite))) | finite
    marks = draw(
        st.lists(
            st.tuples(st.sampled_from(("ingress", "verdict", "pairing")) | text, stamp),
            max_size=9,
        )
    )
    end = draw(st.just(marks[-1][1] if marks else start) | finite)
    return SpanRecord(
        trace_id=trace_id, span_id=span_id, parent_id=parent_id, seq=draw(u64),
        peer=peer, origin=origin, kind=kind, hop=hop, start=start, end=end,
        marks=tuple(marks),
    )


span_records = _span_records()


@st.composite
def _batches(draw):
    """A batch whose spans and metrics draw their strings from one small
    vocabulary (the batch's peer, label values, metric and stage names),
    the way a real batch repeats itself, so its symbol table is shared."""
    vocabulary = draw(st.lists(label_text, min_size=1, max_size=4))
    text = st.sampled_from(vocabulary) | label_text
    metric = _counter_deltas(text) | _gauge_values(text) | _histogram_deltas(text)
    return TelemetryBatch(
        peer=draw(text),
        role=draw(st.sampled_from(("full", "light", "witness-provider")) | text),
        shard=draw(st.integers(min_value=-(2**63), max_value=2**63 - 1)),
        seq=draw(u64),
        time=draw(finite),
        dropped_batches=draw(u64),
        metrics=tuple(draw(st.lists(metric, max_size=6))),
        spans=tuple(draw(st.lists(_span_records(text), max_size=3))),
    )


batches = _batches()
export_requests = st.builds(ExportRequest, request_id=u64, batch=batches)
export_acks = st.builds(ExportAck, request_id=u64, seq=u64, accepted=st.booleans())
heartbeats = st.builds(Heartbeat, peer=label_text)

# -- the §III-E bundle ----------------------------------------------------------

bundles = st.builds(
    RateLimitProof,
    share_x=fields,
    share_y=fields,
    internal_nullifier=fields,
    epoch=u64,
    root=fields,
    proof=st.builds(
        Proof,
        a=st.binary(min_size=32, max_size=32),
        b=st.binary(min_size=64, max_size=64),
        c=st.binary(min_size=32, max_size=32),
    ),
)
#: Timestamps are whole seconds: values the wire's unsigned millisecond
#: field returns exactly.
waku_messages = st.builds(
    WakuMessage,
    payload=st.binary(max_size=64),
    content_topic=label_text,
    timestamp=st.integers(min_value=0, max_value=2**32).map(float),
    ephemeral=st.booleans(),
    rate_limit_proof=st.none() | bundles,
)
