"""Property-based tests for the Merkle tree and the optimized view."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import merkle
from repro.crypto.field import FIELD_MODULUS, FieldElement, ZERO
from repro.crypto.merkle import MemoHasher, MerkleTree
from repro.crypto.optimized_merkle import OptimizedMerkleView, TreeUpdate

DEPTH = 6
CAPACITY = 1 << DEPTH

leaf_values = st.integers(min_value=1, max_value=FIELD_MODULUS - 1).map(FieldElement)
leaf_lists = st.lists(leaf_values, min_size=1, max_size=CAPACITY, unique_by=lambda e: e.value)


@given(leaf_lists)
@settings(max_examples=30, deadline=None)
def test_all_proofs_verify(leaves):
    tree = MerkleTree(depth=DEPTH)
    for leaf in leaves:
        tree.insert(leaf)
    for index in range(len(leaves)):
        assert tree.proof(index).verify(tree.root)


@given(leaf_lists)
@settings(max_examples=30, deadline=None)
def test_root_independent_of_construction_path(leaves):
    incremental = MerkleTree(depth=DEPTH)
    for leaf in leaves:
        incremental.insert(leaf)
    assert MerkleTree.from_leaves(leaves, depth=DEPTH).root == incremental.root


@given(leaf_lists, st.data())
@settings(max_examples=30, deadline=None)
def test_insert_delete_roundtrip_restores_root(leaves, data):
    tree = MerkleTree(depth=DEPTH)
    for leaf in leaves:
        tree.insert(leaf)
    root_before = tree.root
    extra = data.draw(leaf_values)
    if any(extra == leaf for leaf in leaves):
        return
    index = tree.insert(extra)
    tree.delete(index)
    assert tree.root == root_before


@given(leaf_lists, st.data())
@settings(max_examples=30, deadline=None)
def test_proofs_of_distinct_leaves_bind_their_index(leaves, data):
    tree = MerkleTree(depth=DEPTH)
    for leaf in leaves:
        tree.insert(leaf)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    proof = tree.proof(index)
    assert proof.index == index
    assert int("".join(str(b) for b in reversed(proof.path_bits)), 2) == index


@given(
    st.lists(leaf_values, min_size=3, max_size=20, unique_by=lambda e: e.value),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_optimized_view_tracks_arbitrary_update_sequences(leaves, data):
    tree = MerkleTree(depth=DEPTH)
    for leaf in leaves:
        tree.append(leaf)
    tracked = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    view = OptimizedMerkleView(tree.proof(tracked), tree.root)
    operations = data.draw(
        st.lists(
            st.tuples(st.booleans(), leaf_values), min_size=1, max_size=10
        )
    )
    used = {leaf.value for leaf in leaves}
    for is_append, new_leaf in operations:
        if new_leaf.value in used:
            continue
        used.add(new_leaf.value)
        if is_append and tree.leaf_count < tree.capacity:
            index = tree.leaf_count
        else:
            index = data.draw(
                st.integers(min_value=0, max_value=tree.leaf_count - 1)
            )
            if index == tracked or tree.leaf(index) == ZERO:
                continue
        update = TreeUpdate(index=index, new_leaf=new_leaf, path=tree.proof(index))
        if index >= tree.leaf_count:
            tree.append(new_leaf)
        elif tree.leaf(index) == ZERO:
            continue
        else:
            tree.update(index, new_leaf)
        view.apply_update(update)
        assert view.root == tree.root
        assert view.proof().verify(tree.root)


# One step of a random tree history: (operation, slot choice, leaf).
tree_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "delete", "write", "clear"]),
        st.integers(min_value=0, max_value=CAPACITY - 1),
        leaf_values,
    ),
    min_size=1,
    max_size=24,
)


def _apply(tree: MerkleTree, op: str, slot: int, leaf: FieldElement) -> None:
    if op == "append":
        if tree.leaf_count < tree.capacity:
            tree.append(leaf)
    elif op == "delete":
        if tree.leaf_count and tree.leaf(slot % tree.leaf_count) != ZERO:
            tree.delete(slot % tree.leaf_count)
    else:
        tree.write_leaf(slot, ZERO if op == "clear" else leaf)


@pytest.mark.parametrize("memo_limit", [None, 4])
@given(tree_ops, st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_trees_sharing_a_memo_hasher_equal_independent_trees(
    memo_limit, operations, laggard
):
    """K replicas over one MemoHasher are K independent trees, digest for
    digest — with the bound forced to 4, eviction fires mid-sequence."""
    with pytest.MonkeyPatch.context() as patch:
        if memo_limit is not None:
            patch.setattr(merkle, "_MEMO_LIMIT", memo_limit)
        shared = MemoHasher()
        replicas = [MerkleTree(depth=DEPTH, hasher=shared) for _ in range(3)]
        reference = MerkleTree(depth=DEPTH)
        # Every replica sees the whole history, but replica ``laggard``
        # (if any) applies it one event behind the others, as a peer whose
        # chain events land late does.
        for step, (op, slot, leaf) in enumerate(operations):
            _apply(reference, op, slot, leaf)
            for k, replica in enumerate(replicas):
                if k == laggard:
                    if step:
                        _apply(replica, *operations[step - 1])
                else:
                    _apply(replica, op, slot, leaf)
        if laggard < len(replicas):
            _apply(replicas[laggard], *operations[-1])
        if memo_limit is not None:
            assert len(shared._memo) <= memo_limit
    for replica in replicas:
        assert replica.root == reference.root
        assert replica.hash_ops == reference.hash_ops
        assert replica.storage_bytes() == reference.storage_bytes()
        assert list(replica.leaves()) == list(reference.leaves())
        for index in range(reference.leaf_count):
            assert replica.proof(index) == reference.proof(index)
    bulk = MerkleTree.from_leaves(list(reference.leaves()), depth=DEPTH, hasher=shared)
    assert bulk.root == reference.root
