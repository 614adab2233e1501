"""Unit tests for the O(log N)-storage Merkle view (paper reference [18])."""

from dataclasses import replace

import pytest

from repro.crypto.field import FieldElement, ZERO
from repro.crypto.merkle import MerkleTree
from repro.crypto.optimized_merkle import OptimizedMerkleView, TreeUpdate
from repro.errors import InconsistentTreeUpdate, MerkleError, SyncError


def build_pair(depth: int = 5, members: int = 6, track: int = 2):
    """A full tree plus an optimized view tracking one member."""
    tree = MerkleTree(depth=depth)
    for value in range(1, members + 1):
        tree.append(FieldElement(value * 11))
    view = OptimizedMerkleView(tree.proof(track), tree.root)
    return tree, view


def announce(tree: MerkleTree, index: int, new_leaf: FieldElement, *more) -> TreeUpdate:
    """Capture the pre-block paths, then apply the block to the full tree.

    ``more`` continues the block: further ``index, new_leaf`` pairs."""
    writes = [(index, new_leaf), *zip(more[::2], more[1::2])]
    paths = [tree.proof(slot) for slot, _leaf in writes]
    tree.apply(writes)
    return TreeUpdate(
        writes=tuple(zip(paths, (leaf for _slot, leaf in writes))), new_root=tree.root
    )


def moved_levels(view: OptimizedMerkleView, update: TreeUpdate) -> list[int]:
    """Apply ``update``; the levels whose sibling it changed."""
    before = view.proof().siblings
    view.apply_update(update)
    return [level for level, (old, new) in
            enumerate(zip(before, view.proof().siblings)) if old != new]


class TestDivergenceLevel:
    """Where a written leaf's path meets the tracked one decides which of
    the view's siblings moves: the one just below the merge level."""

    def test_same_index_is_zero(self):
        tree, view = build_pair(depth=4, members=6, track=5)
        assert moved_levels(view, announce(tree, 5, FieldElement(77))) == []
        assert view.leaf == FieldElement(77)

    def test_adjacent_leaves(self):
        tree, view = build_pair(depth=4, members=6, track=0)
        assert moved_levels(view, announce(tree, 1, FieldElement(77))) == [0]

    def test_opposite_halves(self):
        tree, view = build_pair(depth=4, members=6, track=0)
        assert moved_levels(view, announce(tree, 8, FieldElement(77))) == [3]

    def test_symmetry(self):
        """A block's writes to 3 and 6 fold to the same view in either order."""
        results = []
        for order in ((3, 6), (6, 3)):
            tree, view = build_pair(depth=4, members=8, track=1)
            a, b = order
            view.apply_update(announce(tree, a, FieldElement(a + 90), b, FieldElement(b + 90)))
            results.append((view.root, view.proof()))
            assert view.root == tree.root
        assert results[0] == results[1]


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
        update = TreeUpdate(writes=((other.proof(0), FieldElement(2)),), new_root=other.root)
        with pytest.raises(MerkleError):
            view.apply_update(update)

    def test_index_path_mismatch_rejected(self):
        tree, view = build_pair()
        path = replace(tree.proof(1), index=0)  # slot 1's path, claimed for slot 0
        update = TreeUpdate(writes=((path, FieldElement(2)),), new_root=tree.root)
        with pytest.raises(MerkleError):
            view.apply_update(update)

    def test_forged_new_root_rejected(self):
        # The announced root must match the locally recomputed one; a lying
        # announcer previously went undetected (the recomputed value was
        # trusted blindly).
        tree, view = build_pair(members=6, track=2)
        update = TreeUpdate(
            writes=((tree.proof(5), FieldElement(9999)),), new_root=FieldElement(0xBAD)
        )
        old_root = view.root
        with pytest.raises(InconsistentTreeUpdate):
            view.apply_update(update)
        assert view.root == old_root  # the forged update moved nothing

    def test_forged_new_root_rejected_for_own_leaf(self):
        tree, view = build_pair(members=6, track=2)
        update = TreeUpdate(
            writes=((tree.proof(2), FieldElement(4242)),), new_root=FieldElement(0xBAD)
        )
        old_leaf = view.leaf
        with pytest.raises(InconsistentTreeUpdate):
            view.apply_update(update)
        assert view.leaf == old_leaf

    def test_tracks_a_block_of_writes(self):
        """One announcement per block: registrations, a deletion, the
        tracked leaf's sibling and a slot written twice, folded at once."""
        tree, view = build_pair(depth=5, members=6, track=2)
        update = announce(
            tree, 6, FieldElement(600), 7, FieldElement(700), 3, ZERO,
            6, ZERO, 20, FieldElement(2000),
        )
        view.apply_update(update)
        assert view.root == tree.root
        assert view.proof() == tree.proof(2)

    def test_a_stale_path_in_a_block_moves_nothing(self):
        tree, view = build_pair(depth=5, members=6, track=2)
        good = announce(tree, 6, FieldElement(600))
        stale = replace(good, writes=good.writes + ((tree.proof(7), FieldElement(1)),))
        with pytest.raises(SyncError):
            view.apply_update(stale)
        view.apply_update(good)
        assert view.root == tree.root


class TestStorageClaim:
    def test_logarithmic_vs_linear(self):
        # §IV: 67 MB full tree vs O(log N) optimized view at depth 20.
        tree = MerkleTree.from_leaves([FieldElement(v) for v in range(1, 1001)], depth=20)
        view = OptimizedMerkleView(tree.proof(0), tree.root)
        assert view.storage_bytes() < 1024  # well under a KiB
        assert tree.storage_bytes() > 100 * view.storage_bytes()
        assert MerkleTree.dense_storage_bytes(20) > 60_000_000
