"""Property tests: witness fetch/verify equivalence and tamper rejection.

The witness subsystem's two tentpole invariants, over random forests:

* a served-and-verified witness is node-identical to the flat tree's
  authentication path (the client cannot tell sharded serving happened);
* any tampering with a :class:`WitnessResponse` — a perturbed sibling, a
  substituted index, a stale root — is rejected by the client's
  verify-against-accepted-root decision.  The server is never trusted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.treesync import ShardedMerkleForest, splice
from repro.witness import verify_witness

DEPTH = 6
SHARD_DEPTH = 2

leaves_strategy = st.lists(
    st.integers(min_value=1, max_value=2**64),
    min_size=1,
    max_size=40,
    unique=True,
)


class OneRootWindow:
    """An acceptor recognising exactly the current root (window of 1)."""

    def __init__(self, root: FieldElement) -> None:
        self.root = root

    def is_acceptable_root(self, root: FieldElement) -> bool:
        return root == self.root


def spliced_witness(forest, index):
    """What a peer holding only a shard and the top tree assembles."""
    return splice(
        forest.shard_proof(index),
        forest.top_proof(forest.shard_of(index)),
        hasher=forest.node_hasher,
    )


def build(values):
    leaves = [FieldElement(v) for v in values]
    flat = MerkleTree.from_leaves(leaves, depth=DEPTH)
    forest = ShardedMerkleForest.from_leaves(
        leaves, depth=DEPTH, shard_depth=SHARD_DEPTH
    )
    return flat, forest


@settings(max_examples=60, deadline=None)
@given(values=leaves_strategy, data=st.data())
def test_served_witness_is_node_identical_to_flat_proof(values, data):
    flat, forest = build(values)
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    served = spliced_witness(forest, index)
    assert served == flat.proof(index)
    assert verify_witness(
        served,
        index=index,
        depth=DEPTH,
        accepted=OneRootWindow(flat.root),
    )


@settings(max_examples=60, deadline=None)
@given(values=leaves_strategy, data=st.data())
def test_tampered_sibling_is_always_rejected(values, data):
    flat, forest = build(values)
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    served = spliced_witness(forest, index)
    level = data.draw(st.integers(min_value=0, max_value=DEPTH - 1))
    delta = data.draw(st.integers(min_value=1, max_value=2**32))
    siblings = list(served.siblings)
    siblings[level] = FieldElement(siblings[level].value + delta)
    assert siblings[level] != served.siblings[level]
    forged = MerkleProof(
        leaf=served.leaf,
        index=served.index,
        siblings=tuple(siblings),
        path_bits=served.path_bits,
    )
    assert not verify_witness(
        forged,
        index=index,
        depth=DEPTH,
        accepted=OneRootWindow(flat.root),
    )


@settings(max_examples=60, deadline=None)
@given(values=leaves_strategy, data=st.data())
def test_substituted_index_is_always_rejected(values, data):
    """A server answering with *another member's* perfectly valid witness
    must still be rejected: the path is bound to the requested slot."""
    flat, forest = build(values)
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    other = data.draw(
        st.integers(min_value=0, max_value=len(values) - 1).filter(
            lambda value: value != index
        )
        if len(values) > 1
        else st.just(None)
    )
    if other is None:
        return  # single-member tree has no other slot to substitute
    substituted = spliced_witness(forest, other)
    assert not verify_witness(
        substituted,
        index=index,
        depth=DEPTH,
        accepted=OneRootWindow(flat.root),
    )


@settings(max_examples=60, deadline=None)
@given(values=leaves_strategy, extra=st.integers(min_value=1, max_value=2**64), data=st.data())
def test_stale_root_is_always_rejected(values, extra, data):
    """A witness cut before the tree moved folds to a root outside the
    accepted window and must be refused."""
    if extra in values:
        extra += 2**64
    flat, forest = build(values)
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    stale = spliced_witness(forest, index)
    # The tree moves on: a registration lands after the witness was cut.
    flat.append(FieldElement(extra))
    forest.append(FieldElement(extra))
    assert forest.root == flat.root
    assert not verify_witness(
        stale,
        index=index,
        depth=DEPTH,
        accepted=OneRootWindow(flat.root),
    )


@settings(max_examples=60, deadline=None)
@given(values=leaves_strategy, data=st.data())
def test_snapshot_leaves_fold_to_shard_root_and_tampering_breaks_it(values, data):
    """The late-joiner acceptance rule: a genuine sparse leaf snapshot
    rebuilds to exactly the shard root; perturbing any leaf breaks it."""
    _, forest = build(values)
    shard_id = data.draw(
        st.integers(min_value=0, max_value=(len(values) - 1) >> SHARD_DEPTH)
    )
    capacity = 1 << SHARD_DEPTH
    start = shard_id * capacity
    sparse = [
        (i - start, forest.leaf(i))
        for i in range(start, min(forest.leaf_count, start + capacity))
        if forest.leaf(i) != FieldElement(0)
    ]
    full = [FieldElement(0)] * capacity
    for local, leaf in sparse:
        full[local] = leaf
    rebuilt = MerkleTree.from_leaves(full, depth=SHARD_DEPTH)
    assert rebuilt.root == forest.shard_root(shard_id)
    if not sparse:
        return
    victim = data.draw(st.integers(min_value=0, max_value=len(sparse) - 1))
    local, leaf = sparse[victim]
    full[local] = FieldElement(leaf.value + 1)
    tampered = MerkleTree.from_leaves(full, depth=SHARD_DEPTH)
    assert tampered.root != forest.shard_root(shard_id)
