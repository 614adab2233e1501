"""Unit tests for the R1CS constraint system."""

import pytest

from repro.crypto.field import FieldElement
from repro.errors import ConstraintViolation, SnarkError
from repro.zksnark.r1cs import ConstraintSystem, LinearCombination

LC = LinearCombination


class TestLinearCombination:
    def test_constant(self):
        assert ConstraintSystem().value_of(LC.constant(5)) == FieldElement(5)

    def test_zero_constant_has_no_terms(self):
        assert len(LC.constant(0)) == 0

    def test_addition_merges_terms(self):
        lc = LC.variable(1) + LC.variable(1)
        assert lc.terms[1] == FieldElement(2)

    def test_cancellation_removes_term(self):
        lc = LC.variable(1) - LC.variable(1)
        assert len(lc) == 0

    def test_scalar_multiplication(self):
        lc = LC.variable(2, coeff=3) * 4
        assert lc.terms[2] == FieldElement(12)

    def test_multiply_by_zero_empties(self):
        assert len(LC.variable(1) * 0) == 0

    def test_subtraction_with_constant(self):
        cs = ConstraintSystem()
        lc = 10 - LC.variable(cs.allocate(FieldElement(4)))
        assert cs.value_of(lc) == FieldElement(6)

    def test_evaluate(self):
        cs = ConstraintSystem()
        a, b = cs.allocate(FieldElement(10)), cs.allocate(FieldElement(100))
        lc = LC.variable(a, 2) + LC.variable(b, 3) + 7
        assert cs.value_of(lc) == FieldElement(2 * 10 + 3 * 100 + 7)


class TestConstraintSystem:
    def test_variable_zero_is_one(self):
        cs = ConstraintSystem()
        assert cs.full_witness()[0] == FieldElement(1)

    def test_allocate_assigns(self):
        cs = ConstraintSystem()
        v = cs.allocate(FieldElement(9))
        assert cs.full_witness()[v] == FieldElement(9)

    def test_public_inputs_must_come_first(self):
        cs = ConstraintSystem()
        cs.allocate(FieldElement(1))
        with pytest.raises(SnarkError):
            cs.allocate_public(FieldElement(2))

    def test_public_inputs_listed(self):
        cs = ConstraintSystem()
        cs.allocate_public(FieldElement(3))
        cs.allocate_public(FieldElement(4))
        cs.allocate(FieldElement(5))
        # The public block is w1..w_num_public, right after the constant.
        assert cs.num_public == 2
        assert cs.full_witness()[1 : cs.num_public + 1] == [FieldElement(3), FieldElement(4)]

    def test_multiplication_gate(self):
        cs = ConstraintSystem()
        a = LC.variable(cs.allocate(FieldElement(3)))
        b = LC.variable(cs.allocate(FieldElement(4)))
        out = cs.multiply(a, b)
        assert cs.value_of(out) == FieldElement(12)
        cs.check_satisfied()

    def test_multiply_with_unassigned_defers(self):
        cs = ConstraintSystem()
        a = LC.variable(cs.allocate())
        b = LC.variable(cs.allocate())
        out = cs.multiply(a, b)
        with pytest.raises(SnarkError):
            cs.value_of(out)

    def test_enforce_equal(self):
        cs = ConstraintSystem()
        v = cs.allocate(FieldElement(5))
        cs.enforce_equal(LC.variable(v), LC.constant(5))
        cs.check_satisfied()

    def test_violation_detected_with_annotation(self):
        cs = ConstraintSystem()
        v = cs.allocate(FieldElement(5))
        cs.enforce_equal(LC.variable(v), LC.constant(6), "must-be-six")
        with pytest.raises(ConstraintViolation, match="must-be-six"):
            cs.check_satisfied()

    def test_boolean_constraint(self):
        cs = ConstraintSystem()
        good = cs.allocate(FieldElement(1))
        cs.enforce_boolean(LC.variable(good))
        cs.check_satisfied()

    def test_boolean_constraint_rejects_two(self):
        cs = ConstraintSystem()
        bad = cs.allocate(FieldElement(2))
        cs.enforce_boolean(LC.variable(bad))
        assert not cs.is_satisfied()

    def test_unassigned_variable_blocks_witness(self):
        cs = ConstraintSystem()
        cs.allocate()
        with pytest.raises(SnarkError):
            cs.full_witness()

    def test_witness_length_checked(self):
        cs = ConstraintSystem()
        cs.allocate(FieldElement(1))
        with pytest.raises(SnarkError):
            cs.check_satisfied([FieldElement(1)])

    def test_witness_constant_checked(self):
        cs = ConstraintSystem()
        cs.allocate(FieldElement(1))
        with pytest.raises(ConstraintViolation):
            cs.check_satisfied([FieldElement(2), FieldElement(1)])

    def test_counts(self):
        cs = ConstraintSystem()
        a = LC.variable(cs.allocate(FieldElement(2)))
        cs.multiply(a, a)
        assert len(cs.constraints) == 1
        assert cs.num_variables == 3  # ONE, a, product
