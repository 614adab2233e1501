"""Property tests for the revocation subsystem's tree invariants.

Removal equivalence: deleting *any* subset of leaves leaves the flat tree
and the sharded forest bit-identical at every step, and the append
frontier never reuses a freed slot — the §III-A invariant that keeps
every surviving member's index (and witness) stable across removals.
A removal wire round trip and the window-collapse invariant ride along.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import FIELD_MODULUS, FieldElement, ZERO
from repro.crypto.merkle import MerkleTree
from repro.treesync import ShardRootDigest, ShardUpdate, ShardedMerkleForest

DEPTH = 6
SHARD_DEPTH = 2

leaf_values = st.integers(min_value=1, max_value=2**64)


@settings(max_examples=60, deadline=None)
@given(
    leaves=st.lists(leaf_values, min_size=1, max_size=48, unique=True),
    removal_mask=st.integers(min_value=0, max_value=2**48 - 1),
)
def test_deleting_any_subset_keeps_backends_identical(leaves, removal_mask):
    flat = MerkleTree(depth=DEPTH)
    forest = ShardedMerkleForest(depth=DEPTH, shard_depth=SHARD_DEPTH)
    for value in leaves:
        assert flat.append(FieldElement(value)) == forest.append(
            FieldElement(value)
        )
    doomed = [i for i in range(len(leaves)) if (removal_mask >> i) & 1]
    for index in doomed:
        flat.delete(index)
        forest.delete(index)
        # Bit-identical after *every* removal, not just at the end.
        assert forest.root == flat.root
        assert forest.shard_root(index >> SHARD_DEPTH) == flat.subtree_root(
            SHARD_DEPTH, index >> SHARD_DEPTH
        )
    assert forest.member_count == flat.member_count == len(leaves) - len(doomed)
    # Survivors' proofs are node-identical and verify under the shared root.
    for index in range(len(leaves)):
        if index in doomed:
            assert flat.leaf(index) == ZERO and forest.leaf(index) == ZERO
            continue
        proof_flat = flat.proof(index)
        assert forest.proof(index) == proof_flat
        assert proof_flat.verify(forest.root)


@settings(max_examples=60, deadline=None)
@given(
    leaves=st.lists(leaf_values, min_size=2, max_size=32, unique=True),
    removal_hints=st.lists(st.integers(min_value=0, max_value=2**32), max_size=8),
    appended=st.lists(leaf_values, min_size=1, max_size=8, unique=True),
)
def test_append_frontier_never_reuses_freed_slots(leaves, removal_hints, appended):
    flat = MerkleTree(depth=DEPTH)
    forest = ShardedMerkleForest(depth=DEPTH, shard_depth=SHARD_DEPTH)
    for value in leaves:
        flat.append(FieldElement(value))
        forest.append(FieldElement(value))
    live = list(range(len(leaves)))
    freed = []
    for hint in removal_hints:
        if not live:
            break
        index = live.pop(hint % len(live))
        flat.delete(index)
        forest.delete(index)
        freed.append(index)
    appended = [v for v in appended if v not in leaves]
    for value in appended:
        if flat.leaf_count >= flat.capacity:
            break
        index_flat = flat.append(FieldElement(value))
        index_forest = forest.append(FieldElement(value))
        # The frontier is monotone: a freed slot is never re-handed out,
        # so a removed member's index can never point at someone else.
        assert index_flat == index_forest
        assert index_flat not in freed
        assert index_flat >= len(leaves)
    for index in freed:
        assert flat.leaf(index) == ZERO and forest.leaf(index) == ZERO
    assert forest.root == flat.root


field_values = st.integers(min_value=0, max_value=FIELD_MODULUS - 1).map(FieldElement)


@settings(max_examples=100, deadline=None)
@given(
    seq=st.integers(min_value=1, max_value=2**64 - 1),
    shard_id=st.integers(min_value=0, max_value=2**32 - 1),
    index=st.integers(min_value=0, max_value=2**64 - 1),
    removed_leaf=field_values.filter(lambda leaf: leaf != ZERO),
    shard_root=field_values,
    global_root=field_values,
)
def test_shard_removal_wire_round_trip(
    seq, shard_id, index, removed_leaf, shard_root, global_root
):
    """A removal is a zero write; the block and its digest both say so."""
    removal = ShardUpdate(
        seq=seq,
        writes=((index, removed_leaf, ZERO),),
        shard_roots=((shard_id, shard_root),),
        new_global_root=global_root,
    )
    encoded = removal.to_bytes()
    assert len(encoded) == removal.byte_size()
    assert ShardUpdate.from_bytes(encoded) == removal
    digest = ShardRootDigest.from_bytes(removal.digest().to_bytes())
    assert digest.removed and digest.events == 1
