"""Property tests for the wire format: roundtrip fidelity and fuzz safety."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.wire import decode_message, encode_message
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.crypto.optimized_merkle import TreeUpdate
from repro.errors import ProtocolError, ReproError
from repro.treesync.messages import (
    ShardRemoval,
    ShardRootDigest,
    ShardUpdate,
    TreeCheckpoint,
)
from repro.waku.message import WakuMessage
from repro.witness.messages import SnapshotRequest, SnapshotResponse, WitnessResponse


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


# -- tree-sync and witness artefacts: strict about where a value ends --------

fields = st.integers(min_value=0, max_value=FIELD_MODULUS - 1).map(FieldElement)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)


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
    depth=st.integers(min_value=0, max_value=255),
    shard_depth=st.integers(min_value=0, max_value=255),
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
    shard_depth=st.integers(min_value=0, max_value=255),
    seq=u64,
    leaves=sparse,
)

artefacts = st.one_of(
    digests,
    removals,
    updates(),
    checkpoints,
    witness_responses,
    snapshot_requests,
    snapshot_responses,
)


@given(value=artefacts, suffix=st.binary(min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_bytes_past_the_end_of_a_value_are_rejected(value, suffix):
    encoded = value.to_bytes()
    assert len(encoded) == value.byte_size()
    assert type(value).from_bytes(encoded) == value
    with pytest.raises(ProtocolError):
        type(value).from_bytes(encoded + suffix)


def _decodes(cls, data: bytes) -> bool:
    try:
        cls.from_bytes(data)
    except ProtocolError:
        return False
    return True


@given(
    data=st.one_of(digests, removals, updates()).map(lambda v: v.to_bytes())
    | st.binary(max_size=400),
    suffix=st.binary(max_size=200),
)
@settings(max_examples=200, deadline=None)
def test_no_payload_decodes_as_two_types_sharing_a_topic(data, suffix):
    payload = data + suffix
    # Shard topics carry updates and removals; the digest topic carries
    # digests and removals.
    assert not (_decodes(ShardUpdate, payload) and _decodes(ShardRemoval, payload))
    assert not (_decodes(ShardRootDigest, payload) and _decodes(ShardRemoval, payload))
