"""Unit tests for the shard view of the identity tree (repro.treesync.forest).

The forest *is* a ``MerkleTree``, so comparing it to a flat tree alone
would be a tautology: every equivalence case is also pinned against
``two_level_reference`` — per-shard trees built from scratch plus a top
tree over their roots, sharing no node with the tree under test.
"""

import pytest

from repro.crypto.field import FIELD_BYTES, FieldElement, ZERO
from repro.crypto.merkle import MerkleTree
from repro.errors import MerkleError, TreeFullError
from repro.treesync import ShardedMerkleForest, splice
from tests.conftest import two_level_reference

DEPTH = 6
SHARD_DEPTH = 2


def build_pair(depth=DEPTH, shard_depth=SHARD_DEPTH):
    return MerkleTree(depth=depth), ShardedMerkleForest(
        depth=depth, shard_depth=shard_depth
    )


def assert_matches_reference(forest):
    """Every shard root, the shard-root listing and the global root agree
    with the independent two-level rebuild; returns it."""
    shards, top = two_level_reference(
        list(forest.leaves()), forest.depth, forest.shard_depth
    )
    assert forest.shard_roots() == {
        shard_id: shard.root for shard_id, shard in enumerate(shards)
    }
    for shard_id, shard in enumerate(shards):
        assert forest.shard_root(shard_id) == shard.root
    assert forest.root == top.root
    return shards, top


class TestRootEquivalence:
    def test_empty_roots_equal(self):
        flat, forest = build_pair()
        assert forest.root == flat.root
        assert_matches_reference(forest)

    def test_append_sequence(self):
        flat, forest = build_pair()
        for value in range(1, 20):
            assert flat.append(FieldElement(value)) == forest.append(
                FieldElement(value)
            )
            assert forest.root == flat.root
            assert_matches_reference(forest)

    def test_delete_and_reuse(self):
        flat, forest = build_pair()
        for value in range(1, 10):
            flat.append(FieldElement(value))
            forest.append(FieldElement(value))
        for index in (2, 5, 7):
            flat.delete(index)
            forest.delete(index)
            assert forest.root == flat.root
            assert_matches_reference(forest)
        # insert() reuses the lowest freed slot.
        assert flat.insert(FieldElement(99)) == forest.insert(FieldElement(99)) == 2
        assert forest.root == flat.root
        assert_matches_reference(forest)

    def test_update_in_place(self):
        flat, forest = build_pair()
        for value in range(1, 6):
            flat.append(FieldElement(value))
            forest.append(FieldElement(value))
        flat.update(3, FieldElement(1234))
        forest.update(3, FieldElement(1234))
        assert forest.root == flat.root
        assert_matches_reference(forest)

    def test_from_leaves_matches_flat(self):
        leaves = [FieldElement(v) if v % 4 else ZERO for v in range(1, 40)]
        flat = MerkleTree.from_leaves(leaves, depth=DEPTH)
        forest = ShardedMerkleForest.from_leaves(
            leaves, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        assert forest.root == flat.root
        assert forest.member_count == flat.member_count
        assert forest.leaf_count == flat.leaf_count
        assert forest.hash_ops == flat.hash_ops
        assert_matches_reference(forest)

    def test_member_and_leaf_counts_track_flat(self):
        flat, forest = build_pair()
        for value in range(1, 12):
            flat.append(FieldElement(value))
            forest.append(FieldElement(value))
        flat.delete(4)
        forest.delete(4)
        assert forest.member_count == flat.member_count == 10
        assert forest.leaf_count == flat.leaf_count == 11
        assert list(forest.leaves()) == list(flat.leaves())
        assert forest.hash_ops == flat.hash_ops

    def test_emptied_shard_stays_listed_with_the_empty_root(self):
        """What ShardSyncManager.restore relies on to overwrite a stale root."""
        _, forest = build_pair()
        for value in range(1, 7):  # shard 0 full, shard 1 half
            forest.append(FieldElement(value))
        for index in (4, 5):
            forest.delete(index)
        assert forest.shard_roots()[1] == forest.empty_shard_root
        assert_matches_reference(forest)


class TestProofs:
    def test_proof_identical_to_flat(self):
        flat, forest = build_pair()
        for value in range(1, 25):
            flat.append(FieldElement(value))
            forest.append(FieldElement(value))
        shards, top = assert_matches_reference(forest)
        for index in range(flat.leaf_count):
            assert forest.proof(index) == flat.proof(index)
            shard_id, local = divmod(index, forest.shard_capacity)
            # The halves are the reference trees' own paths, node for node.
            assert forest.shard_proof(index) == shards[shard_id].proof(local)
            assert forest.top_proof(shard_id) == top.proof(shard_id)

    def test_proof_verifies_in_absent_shard(self):
        _, forest = build_pair()
        forest.append(FieldElement(7))
        # Highest leaf lives in a shard nothing was ever written to.
        proof = forest.proof(forest.capacity - 1)
        assert proof.leaf == ZERO
        assert proof.verify(forest.root)
        assert forest.shard_proof(forest.capacity - 1).compute_root() == (
            forest.empty_shard_root
        )

    def test_splice_equals_direct_proof(self):
        _, forest = build_pair()
        for value in range(1, 25):
            forest.append(FieldElement(value))
        for index in (0, 3, 4, 17, 24):
            spliced = splice(
                forest.shard_proof(index), forest.top_proof(forest.shard_of(index))
            )
            assert spliced == forest.proof(index)
            assert spliced.verify(forest.root)

    def test_splice_rejects_mismatched_halves(self):
        _, forest = build_pair()
        for value in range(1, 25):
            forest.append(FieldElement(value))
        with pytest.raises(MerkleError):
            # Shard 0's local proof against shard 2's top slot: roots differ.
            splice(forest.shard_proof(0), forest.top_proof(2))

    def test_witness_provider(self):
        _, forest = build_pair()
        for value in range(1, 10):
            forest.append(FieldElement(value))
        index = forest.find(FieldElement(5))
        witness = splice(
            forest.shard_proof(index),
            forest.top_proof(forest.shard_of(index)),
            hasher=forest.node_hasher,
        )
        assert witness.verify(forest.root)

    def test_splice_folds_with_the_forest_hasher(self):
        def cheap(left, right):
            return FieldElement(left.value * 3 + right.value * 5 + 1)

        forest = ShardedMerkleForest(depth=6, shard_depth=2, hasher=cheap)
        for value in range(1, 10):
            forest.append(FieldElement(value))
        halves = forest.shard_proof(6), forest.top_proof(forest.shard_of(6))
        assert splice(*halves, hasher=forest.node_hasher) == forest.proof(6)
        with pytest.raises(MerkleError):
            splice(*halves)  # the default fold reaches another shard root


class TestLazyMaterialization:
    def test_empty_forest_allocates_nothing(self):
        _, forest = build_pair()
        assert forest.shard_roots() == {}
        assert forest.storage_bytes() == 0

    def test_only_touched_shards_materialize(self):
        _, forest = build_pair()
        for value in range(1, 5):  # fills shard 0 exactly (capacity 4)
            forest.append(FieldElement(value))
        assert list(forest.shard_roots()) == [0]
        forest.append(FieldElement(5))
        assert list(forest.shard_roots()) == [0, 1]

    def test_empty_shard_root_is_constant(self):
        _, forest = build_pair()
        assert forest.shard_root(7) == forest.empty_shard_root

    def test_peer_storage_excludes_foreign_shards(self):
        _, forest = build_pair(depth=10, shard_depth=5)
        for value in range(1, 200):
            forest.append(FieldElement(value))
        assert forest.peer_storage_bytes(0) < forest.storage_bytes()
        # One shard plus the top tree, the shard root counted once.
        shards, top = assert_matches_reference(forest)
        per_node = FIELD_BYTES + 8
        assert forest.peer_storage_bytes(0) == (
            shards[0].storage_bytes() + top.storage_bytes() - per_node
        )


class TestValidation:
    def test_bad_geometry_rejected(self):
        with pytest.raises(MerkleError):
            ShardedMerkleForest(depth=5, shard_depth=5)
        with pytest.raises(MerkleError):
            ShardedMerkleForest(depth=5, shard_depth=0)
        with pytest.raises(MerkleError):
            ShardedMerkleForest(depth=1, shard_depth=1)

    def test_full_forest_raises(self):
        forest = ShardedMerkleForest(depth=2, shard_depth=1)
        for value in range(1, 5):
            forest.append(FieldElement(value))
        with pytest.raises(TreeFullError):
            forest.append(FieldElement(9))

    def test_zero_leaf_rejected(self):
        _, forest = build_pair()
        with pytest.raises(MerkleError):
            forest.append(ZERO)

    def test_delete_empty_rejected(self):
        _, forest = build_pair()
        forest.append(FieldElement(1))
        with pytest.raises(MerkleError):
            forest.delete(1)

    def test_find(self):
        _, forest = build_pair()
        forest.append(FieldElement(11))
        forest.append(FieldElement(22))
        assert forest.find(FieldElement(22)) == 1
        with pytest.raises(MerkleError):
            forest.find(FieldElement(33))


class TestWriteLeaf:
    """One-slot ``MerkleTree.apply``: the write shard-scoped peers replay."""

    def test_skip_allocation_marks_intermediates_free(self):
        tree = MerkleTree(depth=4)
        tree.apply(((5, FieldElement(42)),))
        assert tree.leaf_count == 6
        assert tree.member_count == 1
        # The skipped slots are reusable by insert().
        assert tree.insert(FieldElement(7)) == 0

    def test_write_zero_clears(self):
        tree = MerkleTree(depth=4)
        tree.apply(((0, FieldElement(1)),))
        tree.apply(((0, ZERO),))
        assert tree.member_count == 0
        assert tree.root == MerkleTree(depth=4).root

    def test_equivalent_to_append_delete_sequence(self):
        via_ops = MerkleTree(depth=4)
        via_ops.append(FieldElement(1))
        via_ops.append(FieldElement(2))
        via_ops.delete(0)
        via_writes = MerkleTree(depth=4)
        via_writes.apply(((0, FieldElement(1)),))
        via_writes.apply(((1, FieldElement(2)),))
        via_writes.apply(((0, ZERO),))
        assert via_writes.root == via_ops.root
        assert via_writes.member_count == via_ops.member_count
