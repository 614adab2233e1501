"""Unit tests for the O(log N)-storage Merkle view (paper reference [18])."""

import pytest

from repro.crypto.field import FieldElement, ZERO
from repro.crypto.merkle import MerkleTree
from repro.crypto.optimized_merkle import (
    OptimizedMerkleView,
    TreeUpdate,
    divergence_level,
)
from repro.errors import InconsistentTreeUpdate, MerkleError, SyncError


def build_pair(depth: int = 5, members: int = 6, track: int = 2):
    """A full tree plus an optimized view tracking one member."""
    tree = MerkleTree(depth=depth)
    for value in range(1, members + 1):
        tree.append(FieldElement(value * 11))
    view = OptimizedMerkleView(tree.proof(track), tree.root)
    return tree, view


def announce(tree: MerkleTree, index: int, new_leaf: FieldElement) -> TreeUpdate:
    """Capture the pre-change path, then apply the change to the full tree."""
    path = tree.proof(index)
    if new_leaf == ZERO:
        tree.delete(index)
    elif index >= tree.leaf_count:
        assert tree.append(new_leaf) == index
    else:
        tree.update(index, new_leaf)
    return TreeUpdate(index=index, new_leaf=new_leaf, path=path, new_root=tree.root)


class TestDivergenceLevel:
    def test_same_index_is_zero(self):
        assert divergence_level(5, 5, 4) == 0

    def test_adjacent_leaves(self):
        assert divergence_level(0, 1, 4) == 1

    def test_opposite_halves(self):
        assert divergence_level(0, 8, 4) == 4

    def test_symmetry(self):
        assert divergence_level(3, 6, 4) == divergence_level(6, 3, 4)


class TestOptimizedView:
    def test_initial_state_verifies(self):
        tree, view = build_pair()
        assert view.proof().verify(tree.root)
        assert view.root == tree.root

    def test_rejects_bad_initial_proof(self):
        tree, _ = build_pair()
        proof = tree.proof(0)
        with pytest.raises(MerkleError):
            OptimizedMerkleView(proof, FieldElement(12345))

    def test_tracks_inserts(self):
        tree, view = build_pair(members=4, track=1)
        for value in (100, 101, 102):
            view.apply_update(announce(tree, tree.leaf_count, FieldElement(value)))
            assert view.root == tree.root
            assert view.proof().verify(tree.root)

    def test_tracks_deletions(self):
        tree, view = build_pair(members=6, track=2)
        view.apply_update(announce(tree, 5, ZERO))
        assert view.root == tree.root
        assert view.proof().verify(tree.root)

    def test_tracks_adjacent_sibling_change(self):
        tree, view = build_pair(members=6, track=2)
        # Leaf 3 is leaf 2's direct sibling: the level-0 sibling must update.
        view.apply_update(announce(tree, 3, FieldElement(9999)))
        assert view.root == tree.root
        assert view.proof().verify(tree.root)

    def test_tracks_own_leaf_change(self):
        tree, view = build_pair(members=6, track=2)
        view.apply_update(announce(tree, 2, FieldElement(4242)))
        assert view.leaf == FieldElement(4242)
        assert view.root == tree.root
        assert view.proof().verify(tree.root)

    def test_long_update_sequence(self):
        tree, view = build_pair(depth=6, members=8, track=4)
        for value in range(200, 230):
            index = tree.leaf_count if value % 3 else (value % 8)
            if index < tree.leaf_count and tree.leaf(index) == ZERO:
                continue
            new_leaf = ZERO if (index < tree.leaf_count and value % 5 == 0) else FieldElement(value)
            if index == 4 and new_leaf == ZERO:
                continue  # keep the tracked member alive
            if new_leaf == ZERO and tree.leaf(index) == ZERO:
                continue
            view.apply_update(announce(tree, index, new_leaf))
            assert view.root == tree.root, f"diverged at value={value}"
        assert view.proof().verify(tree.root)

    def test_stale_view_detected(self):
        tree, view = build_pair()
        # Apply a change the view never hears about.
        tree.append(FieldElement(777))
        # The next announcement is made against the *new* tree; the view's
        # root is stale and must refuse it.
        update = announce(tree, tree.leaf_count, FieldElement(888))
        with pytest.raises(SyncError):
            view.apply_update(update)

    def test_depth_mismatch_rejected(self):
        tree, view = build_pair(depth=5)
        other = MerkleTree(depth=4)
        other.append(FieldElement(1))
        update = TreeUpdate(index=0, new_leaf=FieldElement(2), path=other.proof(0))
        with pytest.raises(MerkleError):
            view.apply_update(update)

    def test_index_path_mismatch_rejected(self):
        tree, view = build_pair()
        path = tree.proof(1)
        update = TreeUpdate(index=0, new_leaf=FieldElement(2), path=path)
        with pytest.raises(MerkleError):
            view.apply_update(update)

    def test_forged_new_root_rejected(self):
        # The announced root must match the locally recomputed one; a lying
        # announcer previously went undetected (the recomputed value was
        # trusted blindly).
        tree, view = build_pair(members=6, track=2)
        update = TreeUpdate(
            index=5,
            new_leaf=FieldElement(9999),
            path=tree.proof(5),
            new_root=FieldElement(0xBAD),
        )
        old_root = view.root
        with pytest.raises(InconsistentTreeUpdate):
            view.apply_update(update)
        assert view.root == old_root  # the forged update moved nothing

    def test_forged_new_root_rejected_for_own_leaf(self):
        tree, view = build_pair(members=6, track=2)
        update = TreeUpdate(
            index=2,
            new_leaf=FieldElement(4242),
            path=tree.proof(2),
            new_root=FieldElement(0xBAD),
        )
        old_leaf = view.leaf
        with pytest.raises(InconsistentTreeUpdate):
            view.apply_update(update)
        assert view.leaf == old_leaf

    def test_legacy_update_without_new_root_still_applies(self):
        tree, view = build_pair(members=6, track=2)
        path = tree.proof(5)
        tree.update(5, FieldElement(9999))
        legacy = TreeUpdate(index=5, new_leaf=FieldElement(9999), path=path)
        view.apply_update(legacy)
        assert view.root == tree.root


class TestStorageClaim:
    def test_logarithmic_vs_linear(self):
        # §IV: 67 MB full tree vs O(log N) optimized view at depth 20.
        tree = MerkleTree.from_leaves([FieldElement(v) for v in range(1, 1001)], depth=20)
        view = OptimizedMerkleView(tree.proof(0), tree.root)
        assert view.storage_bytes() < 1024  # well under a KiB
        assert tree.storage_bytes() > 100 * view.storage_bytes()
        assert MerkleTree.dense_storage_bytes(20) > 60_000_000
