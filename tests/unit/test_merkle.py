"""Unit tests for the incremental Merkle tree."""

import pytest

from repro.crypto import merkle
from repro.crypto.engine import default_engine
from repro.crypto.field import FIELD_BYTES, FieldElement, ZERO
from repro.crypto.merkle import (
    DEFAULT_DEPTH,
    MemoHasher,
    MerkleProof,
    MerkleTree,
    verify_proof,
    zero_hashes,
)
from repro.crypto.poseidon import poseidon_hash
from repro.errors import InvalidAuthPath, MerkleError, TreeFullError


def leaves(*values: int) -> list[FieldElement]:
    return [FieldElement(v) for v in values]


class TestZeroHashes:
    def test_level_zero_is_zero_leaf(self):
        assert zero_hashes(4)[0] == ZERO

    def test_levels_chain(self):
        zh = zero_hashes(4)
        for level in range(4):
            assert zh[level + 1] == poseidon_hash([zh[level], zh[level]])


    def test_a_memo_hasher_shares_the_canonical_ladder(self):
        # It *is* Poseidon: no private ladder, and no strong reference to
        # it (and the memo behind it) left in the module's ladder table.
        shared = MemoHasher()
        tree = MerkleTree(depth=4, hasher=shared)
        assert tree.root == zero_hashes(4)[4]
        assert zero_hashes(4, shared) == zero_hashes(4)
        assert shared not in merkle._ZERO_LADDERS


class TestMemoHasher:
    def test_computes_each_pair_once(self):
        shared = MemoHasher()
        stats = default_engine().stats
        before = stats.hashes
        first = shared(FieldElement(3), FieldElement(4))
        assert shared(FieldElement(3), FieldElement(4)) is first
        assert first == poseidon_hash([FieldElement(3), FieldElement(4)])
        assert shared(FieldElement(4), FieldElement(3)) != first
        assert stats.hashes - before == 2

    def test_is_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(merkle, "_MEMO_LIMIT", 2)
        shared = MemoHasher()
        for value in range(1, 6):
            assert shared(FieldElement(value), ZERO) == poseidon_hash([FieldElement(value), ZERO])
            assert len(shared._memo) <= 2


class TestEmptyTree:
    def test_empty_root_matches_zero_hash(self):
        tree = MerkleTree(depth=5)
        assert tree.root == zero_hashes(5)[5]

    def test_counts(self):
        tree = MerkleTree(depth=5)
        assert tree.leaf_count == 0
        assert tree.member_count == 0

    def test_depth_bounds(self):
        with pytest.raises(MerkleError):
            MerkleTree(depth=0)
        with pytest.raises(MerkleError):
            MerkleTree(depth=33)


class TestInsert:
    def test_sequential_indices(self):
        tree = MerkleTree(depth=4)
        assert [tree.insert(l) for l in leaves(1, 2, 3)] == [0, 1, 2]

    def test_root_changes_per_insert(self):
        tree = MerkleTree(depth=4)
        roots = {tree.root.value}
        for leaf in leaves(10, 20, 30):
            tree.insert(leaf)
            roots.add(tree.root.value)
        assert len(roots) == 4

    def test_zero_leaf_rejected(self):
        tree = MerkleTree(depth=4)
        with pytest.raises(MerkleError):
            tree.insert(ZERO)

    def test_full_tree_raises(self):
        tree = MerkleTree(depth=2)
        for value in range(1, 5):
            tree.insert(FieldElement(value))
        with pytest.raises(TreeFullError):
            tree.insert(FieldElement(99))

    def test_insert_reuses_freed_slot(self):
        tree = MerkleTree(depth=3)
        for value in (1, 2, 3):
            tree.insert(FieldElement(value))
        tree.delete(1)
        assert tree.insert(FieldElement(7)) == 1

    def test_append_never_reuses_freed_slot(self):
        tree = MerkleTree(depth=3)
        for value in (1, 2, 3):
            tree.append(FieldElement(value))
        tree.delete(1)
        assert tree.append(FieldElement(7)) == 3
        assert tree.leaf(1) == ZERO

    def test_order_independence_of_content(self):
        a = MerkleTree.from_leaves(leaves(5, 6, 7), depth=4)
        b = MerkleTree(depth=4)
        for leaf in leaves(5, 6, 7):
            b.insert(leaf)
        assert a.root == b.root


class TestDeleteUpdate:
    def test_delete_zeroes_leaf(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(9))
        tree.delete(0)
        assert tree.leaf(0) == ZERO
        assert tree.member_count == 0

    def test_delete_empty_raises(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(9))
        tree.delete(0)
        with pytest.raises(MerkleError):
            tree.delete(0)

    def test_delete_restores_empty_root(self):
        tree = MerkleTree(depth=4)
        empty_root = tree.root
        tree.insert(FieldElement(11))
        tree.delete(0)
        assert tree.root == empty_root

    def test_update_changes_root(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(1))
        before = tree.root
        tree.update(0, FieldElement(2))
        assert tree.root != before
        assert tree.leaf(0) == FieldElement(2)

    def test_update_empty_slot_raises(self):
        tree = MerkleTree(depth=4)
        with pytest.raises(MerkleError):
            tree.update(0, FieldElement(5))

    def test_update_to_zero_raises(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(5))
        with pytest.raises(MerkleError):
            tree.update(0, ZERO)

    def test_out_of_range_index(self):
        tree = MerkleTree(depth=2)
        with pytest.raises(MerkleError):
            tree.leaf(4)


class TestProofs:
    def test_proof_verifies(self):
        tree = MerkleTree(depth=6)
        for value in range(1, 20):
            tree.insert(FieldElement(value))
        for index in (0, 7, 18):
            proof = tree.proof(index)
            assert proof.verify(tree.root)
            assert proof.leaf == tree.leaf(index)

    def test_proof_fails_against_other_root(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(1))
        proof = tree.proof(0)
        tree.insert(FieldElement(2))
        assert not proof.verify(tree.root)

    def test_path_bits_are_index_binary(self):
        tree = MerkleTree(depth=4)
        for value in range(1, 11):
            tree.insert(FieldElement(value))
        proof = tree.proof(6)
        assert proof.path_bits == (0, 1, 1, 0)

    def test_proof_of_empty_slot(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(1))
        proof = tree.proof(3)  # untouched slot
        assert proof.leaf == ZERO
        assert proof.verify(tree.root)

    def test_verify_proof_helper_raises(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(1))
        proof = tree.proof(0)
        bad = MerkleProof(
            leaf=FieldElement(2),
            index=proof.index,
            siblings=proof.siblings,
            path_bits=proof.path_bits,
        )
        with pytest.raises(InvalidAuthPath):
            verify_proof(tree.root, bad)

    def test_proof_byte_size(self):
        tree = MerkleTree(depth=20)
        tree.insert(FieldElement(1))
        proof = tree.proof(0)
        assert proof.byte_size() == 32 + 8 + 20 * 32

    def test_find(self):
        tree = MerkleTree(depth=4)
        tree.insert(FieldElement(42))
        tree.insert(FieldElement(43))
        assert tree.find(FieldElement(43)) == 1
        with pytest.raises(MerkleError):
            tree.find(FieldElement(44))


class TestRememberedRoot:
    def test_compute_root_folds_once_and_verify_always_folds(self):
        tree = MerkleTree.from_leaves(leaves(1, 2, 3), depth=5)
        proof = tree.proof(1)
        stats = default_engine().stats
        before = stats.hashes
        assert proof.compute_root() == tree.root
        assert proof.compute_root() == tree.root
        assert stats.hashes - before == 5
        assert proof.verify(tree.root)
        assert stats.hashes - before == 10
        assert proof == tree.proof(1)  # the remembered root is not a field

    def test_a_custom_hasher_is_never_remembered(self):
        def cheap(left, right):
            return left + right + FieldElement(1)

        tree = MerkleTree.from_leaves(leaves(1, 2, 3), depth=5, hasher=cheap)
        proof = tree.proof(2)
        assert proof.compute_root(cheap) == tree.root
        assert proof.compute_root() != tree.root
        assert proof.compute_root(cheap) == tree.root


class TestLevels:
    """``path`` and the injectable zero ladder: a tree's upper levels are
    themselves a tree."""

    def build(self):
        tree = MerkleTree(depth=5)
        for value in range(1, 20):
            tree.append(FieldElement(value))
        tree.delete(9)
        return tree

    def test_path_halves_concatenate_to_the_proof(self):
        tree = self.build()
        for index in (0, 9, 18, 31):
            low = tree.path(0, index, 2)
            high = tree.path(2, index >> 2, 3)
            whole = tree.proof(index)
            assert low.siblings + high.siblings == whole.siblings
            assert low.path_bits + high.path_bits == whole.path_bits
            assert (high.index << 2) | low.index == index
            assert low.compute_root() == high.leaf == tree.subtree_root(2, index >> 2)
            assert high.verify(tree.root)

    def test_path_range_checked(self):
        tree = self.build()
        with pytest.raises(MerkleError):
            tree.path(2, 8, 3)  # only 8 nodes at level 2
        with pytest.raises(MerkleError):
            tree.path(2, 0, 4)  # walks past the root
        assert tree.path(5, 0, 0).leaf == tree.root

    def test_zero_ladder_tree_is_the_upper_levels(self):
        tree = self.build()
        top = MerkleTree(depth=3, zeros=zero_hashes(5)[2:])
        assert top.root == MerkleTree(depth=5).root  # empty = all-empty shards
        for node in range(5):  # the five allocated level-2 nodes
            top.write_leaf(node, tree.subtree_root(2, node))
        assert top.root == tree.root
        assert top.proof(4) == tree.path(2, 4, 3)
        # Writing the empty leaf (an emptied subtree) frees the slot again.
        top.write_leaf(4, zero_hashes(5)[2])
        assert top.member_count == 4
        trimmed = MerkleTree.from_leaves(list(tree.leaves())[:16], depth=5)
        assert top.root == trimmed.root
        with pytest.raises(MerkleError):
            top.append(zero_hashes(5)[2])

    def test_zero_ladder_length_checked(self):
        with pytest.raises(MerkleError):
            MerkleTree(depth=3, zeros=zero_hashes(5)[1:])

    def test_compute_root_folds_with_an_injected_hasher(self):
        def cheap(left, right):
            return FieldElement(left.value * 3 + right.value * 5 + 7)

        tree = MerkleTree(depth=4, hasher=cheap)
        for value in range(1, 8):
            tree.append(FieldElement(value))
        proof = tree.proof(5)
        assert proof.compute_root(cheap) == tree.root
        assert proof.compute_root() != tree.root


class TestStorageAccounting:
    def test_empty_tree_stores_nothing(self):
        assert MerkleTree(depth=20).storage_bytes() == 0

    def test_sparse_growth(self):
        tree = MerkleTree(depth=20)
        tree.insert(FieldElement(1))
        # One leaf materialises at most depth+1 nodes.
        assert 1 <= tree.storage_bytes() // (FIELD_BYTES + 8) <= 21

    def test_dense_storage_formula(self):
        # §IV: a dense depth-20 tree is ~67 MB.
        size = MerkleTree.dense_storage_bytes(20)
        assert 60e6 < size < 70e6

    def test_from_leaves_preserves_deleted_alignment(self):
        original = MerkleTree(depth=4)
        for value in (1, 2, 3):
            original.insert(FieldElement(value))
        original.delete(1)
        rebuilt = MerkleTree.from_leaves(list(original.leaves()), depth=4)
        assert rebuilt.root == original.root

    def test_from_leaves_capacity_check(self):
        with pytest.raises(TreeFullError):
            MerkleTree.from_leaves(leaves(*range(1, 6)), depth=2)


class TestDefaultDepth:
    def test_default_is_paper_depth(self):
        assert DEFAULT_DEPTH == 20
        assert MerkleTree().depth == 20
