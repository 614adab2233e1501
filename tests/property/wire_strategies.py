"""Hypothesis strategies for every type that has a byte encoding.

One strategy per wire type, shared by the hostile-input matrix
(``test_wire_properties.py``) and the telemetry fold/round-trip
properties (``test_otlp_properties.py``).  Every strategy draws only
*valid* values — what an honest encoder can be handed — so a property
that fails on one of them is a codec bug, not a strategy artefact.
"""

from hypothesis import strategies as st

from repro.core.messages import RateLimitProof
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.crypto.optimized_merkle import TreeUpdate
from repro.telemetry.disttrace import SpanContext, SpanRecord
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    HistogramDelta,
    TelemetryBatch,
)
from repro.telemetry.registry import DEFAULT_BUCKETS
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


digests = st.builds(
    ShardRootDigest, seq=u64, shard_id=u32, new_shard_root=fields, new_global_root=fields
)
removals = st.builds(
    ShardRemoval,
    seq=u64,
    shard_id=u32,
    index=u64,
    removed_leaf=fields,
    new_shard_root=fields,
    new_global_root=fields,
)


@st.composite
def updates(draw):
    path, root = draw(proofs()), draw(fields)
    return ShardUpdate(
        seq=draw(u64),
        shard_id=draw(u32),
        update=TreeUpdate(
            index=path.index, new_leaf=draw(fields), path=path, new_root=root
        ),
        new_shard_root=draw(fields),
        new_global_root=root,
    )


sparse = st.lists(st.tuples(u32, fields), max_size=4).map(tuple)
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
labels = st.lists(
    st.tuples(st.sampled_from(("peer", "stage", "kind", "x")), label_text),
    min_size=0,
    max_size=3,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: tuple(sorted(pairs)))
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

counter_deltas = st.builds(
    CounterDelta,
    name=names,
    labels=labels,
    delta=st.integers(min_value=-(2**62), max_value=2**62) | finite,
)
gauge_values = st.builds(GaugeValue, name=names, labels=labels, value=finite)


@st.composite
def _histogram_deltas(draw):
    le = draw(
        st.none()
        | st.lists(finite, min_size=1, max_size=6, unique=True).map(
            lambda bounds: tuple(sorted(bounds))
        )
    )
    # Index ``len(bounds)`` is the +Inf overflow bucket, the last there is.
    overflow = len(DEFAULT_BUCKETS if le is None else le)
    return HistogramDelta(
        name=draw(names),
        labels=draw(labels),
        count_delta=draw(st.integers(min_value=0, max_value=2**40)),
        sum_total=draw(finite),
        min_total=draw(finite),
        max_total=draw(finite),
        bucket_deltas=tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=overflow),
                        st.integers(min_value=0, max_value=2**40),
                    ),
                    max_size=5,
                )
            )
        ),
        le=le,
    )


histogram_deltas = _histogram_deltas()
span_records = st.builds(
    SpanRecord,
    trace_id=st.integers(min_value=0, max_value=2**128 - 1),
    span_id=u64,
    parent_id=u64,
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
export_requests = st.builds(ExportRequest, request_id=u64, batch=batches)
export_acks = st.builds(ExportAck, request_id=u64, seq=u64, accepted=st.booleans())

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
