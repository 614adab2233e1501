"""Property tests: the shard view against an independent two-level rebuild.

The forest is a ``MerkleTree`` read at a level boundary, so flat-vs-forest
alone would be a tautology.  The reference here shares nothing with the
tree under test: per-shard trees bulk-built from each shard's leaves and a
top tree over their roots (``two_level_reference``).  For any interleaving
of inserts, appends and deletes the shard roots, the global root and both
path halves must agree with it, and a shard-scoped peer fed the
announcements must commit to the same root.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import FieldElement, ZERO
from repro.crypto.merkle import MerkleTree
from repro.treesync import (
    ShardSyncManager,
    ShardUpdate,
    ShardedMerkleForest,
    splice,
)
from tests.conftest import two_level_reference

DEPTH = 6
SHARD_DEPTH = 2

#: An op is ("insert", value), ("append", value), or ("delete", hint);
#: delete hints index into the currently-live set modulo its size.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(min_value=1, max_value=2**64)),
        st.tuples(st.just("append"), st.integers(min_value=1, max_value=2**64)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=2**32)),
    ),
    max_size=48,
)


def apply_ops(ops, tree_a, tree_b):
    """Apply one op stream to both backends; yields after every op."""
    live: list[int] = []
    for op, value in ops:
        if op in ("insert", "append"):
            if tree_a.leaf_count >= tree_a.capacity and op == "append":
                continue
            if op == "insert":
                if tree_a.member_count >= tree_a.capacity:
                    continue
                index_a = tree_a.insert(FieldElement(value))
                index_b = tree_b.insert(FieldElement(value))
            else:
                if tree_a.leaf_count >= tree_a.capacity:
                    continue
                index_a = tree_a.append(FieldElement(value))
                index_b = tree_b.append(FieldElement(value))
            assert index_a == index_b
            if index_a not in live:
                live.append(index_a)
        elif live:
            index = live.pop(value % len(live))
            tree_a.delete(index)
            tree_b.delete(index)
        yield live


def reference_of(forest):
    return two_level_reference(
        list(forest.leaves()), forest.depth, forest.shard_depth
    )


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_roots_equal_under_any_interleaving(ops):
    flat = MerkleTree(depth=DEPTH)
    forest = ShardedMerkleForest(depth=DEPTH, shard_depth=SHARD_DEPTH)
    for _ in apply_ops(ops, flat, forest):
        shards, top = reference_of(forest)
        assert forest.shard_roots() == {
            shard_id: shard.root for shard_id, shard in enumerate(shards)
        }
        assert forest.root == top.root == flat.root
    assert forest.member_count == flat.member_count
    assert forest.leaf_count == flat.leaf_count
    assert forest.hash_ops == flat.hash_ops


@settings(max_examples=30, deadline=None)
@given(ops=ops_strategy)
def test_proofs_identical_and_verify_under_both(ops):
    flat = MerkleTree(depth=DEPTH)
    forest = ShardedMerkleForest(depth=DEPTH, shard_depth=SHARD_DEPTH)
    live: list[int] = []
    for live in apply_ops(ops, flat, forest):
        pass
    shards, top = reference_of(forest)
    for index in live:
        shard_id, local = divmod(index, forest.shard_capacity)
        shard_half = forest.shard_proof(index)
        top_half = forest.top_proof(shard_id)
        assert shard_half == shards[shard_id].proof(local)
        assert top_half == top.proof(shard_id)
        assert splice(shard_half, top_half) == forest.proof(index) == flat.proof(index)
        assert forest.proof(index).verify(top.root)


@settings(max_examples=30, deadline=None)
@given(
    leaves=st.lists(st.integers(min_value=0, max_value=2**64), max_size=40),
    shard_depth=st.integers(min_value=1, max_value=DEPTH - 1),
)
def test_bulk_build_matches_flat_for_any_geometry(leaves, shard_depth):
    field_leaves = [FieldElement(value) for value in leaves]
    flat = MerkleTree.from_leaves(field_leaves, depth=DEPTH)
    forest = ShardedMerkleForest.from_leaves(
        field_leaves, depth=DEPTH, shard_depth=shard_depth
    )
    shards, top = two_level_reference(field_leaves, DEPTH, shard_depth)
    assert forest.root == top.root == flat.root
    assert forest.shard_roots() == {
        shard_id: shard.root for shard_id, shard in enumerate(shards)
    }
    assert forest.member_count == flat.member_count
    assert forest.hash_ops == flat.hash_ops


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy, home=st.sampled_from([None, 0, 1, 3]))
def test_sync_manager_fed_the_announcements_commits_to_the_same_root(ops, home):
    """A home-shard peer replays its shard's writes, everyone else's
    arrive as O(1) digests; its two small trees must land on the root of
    the full tree — and its witnesses on the full tree's paths."""
    forest = ShardedMerkleForest(depth=DEPTH, shard_depth=SHARD_DEPTH)
    view = ShardSyncManager(home, depth=DEPTH, shard_depth=SHARD_DEPTH)
    before = [ZERO] * forest.capacity
    live: list[int] = []
    seq = 0
    for live in apply_ops(ops, forest, MerkleTree(depth=DEPTH)):
        after = list(forest.leaves())
        after += [ZERO] * (forest.capacity - len(after))
        changed = [i for i in range(forest.capacity) if after[i] != before[i]]
        if not changed:
            continue  # op skipped (tree full)
        (index,) = changed
        seq += 1
        shard_id = forest.shard_of(index)
        item = ShardUpdate(
            seq=seq,
            writes=((index, before[index], after[index]),),
            shard_roots=((shard_id, forest.shard_root(shard_id)),),
            new_global_root=forest.root,
        )
        view.apply(item if shard_id == home else item.digest())
        before = after
        assert view.root == forest.root
    if home is not None:
        for index in live:
            if forest.shard_of(index) == home:
                assert view.witness(index) == forest.proof(index)
