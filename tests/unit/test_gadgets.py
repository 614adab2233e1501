"""Unit tests for R1CS gadgets — each cross-checked against native crypto."""

import pytest

from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleTree
from repro.crypto.poseidon import poseidon_hash, poseidon_params, poseidon_permutation
from repro.zksnark.gadgets import (
    conditional_swap_gadget,
    merkle_path_gadget,
    poseidon_hash_gadget,
    poseidon_permutation_gadget,
    rln_share_gadget,
    sbox_gadget,
)
from repro.zksnark.r1cs import ConstraintSystem, LinearCombination

LC = LinearCombination


def alloc(cs: ConstraintSystem, value: int) -> LC:
    return LC.variable(cs.allocate(FieldElement(value)))


class TestSbox:
    def test_computes_fifth_power(self):
        cs = ConstraintSystem()
        x = alloc(cs, 3)
        out = sbox_gadget(cs, x, "t")
        assert cs.value_of(out) == FieldElement(3**5)
        cs.check_satisfied()

    def test_costs_three_constraints(self):
        cs = ConstraintSystem()
        sbox_gadget(cs, alloc(cs, 2), "t")
        assert len(cs.constraints) == 3


class TestPoseidonGadget:
    @pytest.mark.parametrize("t", [2, 3])
    def test_permutation_matches_native(self, t):
        params = poseidon_params(t)
        values = [FieldElement(i + 1) for i in range(t)]
        native = poseidon_permutation(values, params)
        cs = ConstraintSystem()
        state = [alloc(cs, v.value) for v in values]
        out = poseidon_permutation_gadget(cs, state, params, "p")
        for lane, expected in zip(out, native):
            assert cs.value_of(lane) == expected
        cs.check_satisfied()

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_hash_matches_native(self, arity):
        values = [FieldElement(7 * (i + 1)) for i in range(arity)]
        cs = ConstraintSystem()
        inputs = [alloc(cs, v.value) for v in values]
        digest = poseidon_hash_gadget(cs, inputs, "h")
        assert cs.value_of(digest) == poseidon_hash(values)
        cs.check_satisfied()

    def test_tampered_witness_fails(self):
        cs = ConstraintSystem()
        x = cs.allocate(FieldElement(5))
        poseidon_hash_gadget(cs, [LC.variable(x)], "h")
        witness = cs.full_witness()
        witness[-1] = witness[-1] + 1  # corrupt the final digest variable
        assert not cs.is_satisfied(witness)


class TestConditionalSwap:
    def test_bit_zero_keeps_order(self):
        cs = ConstraintSystem()
        left, right, bit = alloc(cs, 10), alloc(cs, 20), alloc(cs, 0)
        l2, r2 = conditional_swap_gadget(cs, left, right, bit, "s")
        assert cs.value_of(l2) == FieldElement(10)
        assert cs.value_of(r2) == FieldElement(20)
        cs.check_satisfied()

    def test_bit_one_swaps(self):
        cs = ConstraintSystem()
        left, right, bit = alloc(cs, 10), alloc(cs, 20), alloc(cs, 1)
        l2, r2 = conditional_swap_gadget(cs, left, right, bit, "s")
        assert cs.value_of(l2) == FieldElement(20)
        assert cs.value_of(r2) == FieldElement(10)
        cs.check_satisfied()


class TestMerkleGadget:
    def test_matches_native_tree(self):
        tree = MerkleTree(depth=4)
        for value in range(1, 9):
            tree.insert(FieldElement(value * 3))
        proof = tree.proof(5)
        cs = ConstraintSystem()
        leaf = alloc(cs, proof.leaf.value)
        bits = [alloc(cs, b) for b in proof.path_bits]
        siblings = [alloc(cs, s.value) for s in proof.siblings]
        root = merkle_path_gadget(cs, leaf, bits, siblings, "m")
        assert cs.value_of(root) == tree.root
        cs.check_satisfied()

    def test_non_boolean_bit_rejected(self):
        tree = MerkleTree(depth=3)
        tree.insert(FieldElement(5))
        proof = tree.proof(0)
        cs = ConstraintSystem()
        leaf = alloc(cs, proof.leaf.value)
        bits = [alloc(cs, 2)] + [alloc(cs, b) for b in proof.path_bits[1:]]
        siblings = [alloc(cs, s.value) for s in proof.siblings]
        merkle_path_gadget(cs, leaf, bits, siblings, "m")
        assert not cs.is_satisfied()

    def test_length_mismatch_raises(self):
        cs = ConstraintSystem()
        from repro.errors import SnarkError

        with pytest.raises(SnarkError):
            merkle_path_gadget(cs, alloc(cs, 1), [alloc(cs, 0)], [], "m")


class TestShareGadget:
    def test_computes_line(self):
        cs = ConstraintSystem()
        sk, a1, x = alloc(cs, 7), alloc(cs, 11), alloc(cs, 13)
        y = rln_share_gadget(cs, sk, a1, x, "share")
        assert cs.value_of(y) == FieldElement(7 + 11 * 13)
        cs.check_satisfied()
