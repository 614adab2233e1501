"""Rank-1 Constraint System (R1CS) over the BN254 scalar field.

Groth16 — the proof system the paper adopts (§II-B) — proves satisfiability
of an R1CS: a list of constraints ``<A_i, w> * <B_i, w> = <C_i, w>`` over a
witness vector ``w`` whose first entry is the constant 1.  This module
implements the constraint system, symbolic linear combinations, witness
assignment, and the satisfaction check that anchors the simulated prover in
:mod:`repro.zksnark.groth16`.

The representation follows the usual circuit-compiler layout:

* variable 0 is the constant ONE,
* public inputs occupy the next contiguous block (their values are part of
  the proof statement),
* auxiliary (private) variables follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Union

from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.errors import ConstraintViolation, SnarkError

Coefficient = Union[int, FieldElement]


class LinearCombination:
    """A sparse linear combination of R1CS variables.

    Stored as ``{variable_index: coefficient}``, coefficients plain ints
    reduced mod p (never 0).  Supports addition, subtraction, and scaling;
    multiplying two combinations requires a constraint, which is the
    circuit builder's job.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Coefficient] | None = None) -> None:
        self.terms: dict[int, int] = {}
        for var, coeff in (terms or {}).items():
            if coeff := int(coeff) % FIELD_MODULUS:
                self.terms[var] = coeff

    @classmethod
    def constant(cls, value: Coefficient) -> "LinearCombination":
        return cls({0: value})

    @classmethod
    def variable(cls, index: int, coeff: Coefficient = 1) -> "LinearCombination":
        return cls({index: coeff})

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "LinearCombination | Coefficient") -> "LinearCombination":
        terms = dict(self.terms)
        for var, coeff in _as_lc(other).terms.items():
            if total := (terms.get(var, 0) + coeff) % FIELD_MODULUS:
                terms[var] = total
            else:
                terms.pop(var, None)
        result = LinearCombination()
        result.terms = terms
        return result

    __radd__ = __add__

    def __sub__(self, other: "LinearCombination | Coefficient") -> "LinearCombination":
        return self + _as_lc(other) * -1

    def __rsub__(self, other: "LinearCombination | Coefficient") -> "LinearCombination":
        return _as_lc(other) + self * -1

    def __mul__(self, scalar: Coefficient) -> "LinearCombination":
        scalar = int(scalar) % FIELD_MODULUS
        result = LinearCombination()
        if scalar:
            result.terms = {v: c * scalar % FIELD_MODULUS for v, c in self.terms.items()}
        return result

    __rmul__ = __mul__

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        parts = [f"{c}*w{v}" for v, c in sorted(self.terms.items())]
        return "LC(" + " + ".join(parts or ["0"]) + ")"


def _as_lc(value: "LinearCombination | Coefficient") -> LinearCombination:
    if isinstance(value, LinearCombination):
        return value
    return LinearCombination.constant(value)


@dataclass(frozen=True)
class Constraint:
    """One rank-1 constraint: a * b = c."""

    a: LinearCombination
    b: LinearCombination
    c: LinearCombination
    annotation: str = ""


@dataclass
class ConstraintSystem:
    """A mutable R1CS plus its witness assignment.

    The circuit builder allocates variables, emits constraints, and (when
    given concrete inputs) assigns witness values as it goes, so a single
    pass both compiles and executes the circuit.
    """

    num_public: int = 0
    constraints: list[Constraint] = dataclass_field(default_factory=list)
    _num_vars: int = 1  # variable 0 is the constant ONE
    _assignment: dict[int, FieldElement] = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        self._assignment[0] = FieldElement(1)

    # -- allocation -------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._num_vars

    def allocate(self, value: FieldElement | None = None) -> int:
        """Allocate a new auxiliary variable, optionally assigning a value."""
        index = self._num_vars
        self._num_vars += 1
        if value is not None:
            self._assignment[index] = FieldElement(value)
        return index

    def allocate_public(self, value: FieldElement | None = None) -> int:
        """Allocate a public-input variable.

        Public inputs must be allocated before any auxiliary variable so
        they form a contiguous block after the constant.
        """
        if self._num_vars != self.num_public + 1:
            raise SnarkError("public inputs must be allocated first")
        index = self.allocate(value)
        self.num_public += 1
        return index

    def value_of(self, lc: LinearCombination) -> FieldElement:
        """Evaluate an LC against the current (possibly partial) assignment."""
        acc = 0
        for var, coeff in lc.terms.items():
            if var not in self._assignment:
                raise SnarkError(f"variable w{var} is unassigned")
            acc += coeff * self._assignment[var].value
        return FieldElement(acc)

    # -- constraint emission -------------------------------------------------------

    def enforce(
        self,
        a: LinearCombination | Coefficient,
        b: LinearCombination | Coefficient,
        c: LinearCombination | Coefficient,
        annotation: str = "",
    ) -> None:
        """Add the constraint a * b = c."""
        self.constraints.append(
            Constraint(a=_as_lc(a), b=_as_lc(b), c=_as_lc(c), annotation=annotation)
        )

    def enforce_equal(
        self,
        left: LinearCombination | Coefficient,
        right: LinearCombination | Coefficient,
        annotation: str = "",
    ) -> None:
        """Add the constraint left * 1 = right."""
        self.enforce(left, LinearCombination.constant(1), right, annotation)

    def multiply(
        self,
        a: LinearCombination,
        b: LinearCombination,
        annotation: str = "",
        *,
        value: FieldElement | None = None,
    ) -> LinearCombination:
        """Allocate ``out = a * b`` with its defining constraint.

        Assigns the product eagerly when both operands are assigned.  A
        caller that already knows the product (the Poseidon gadget computes
        whole permutations natively) passes it via ``value`` to skip the
        two symbolic evaluations.
        """
        if value is None:
            try:
                value = self.value_of(a) * self.value_of(b)
            except SnarkError:
                value = None
        out = self.allocate(value)
        out_lc = LinearCombination.variable(out)
        self.enforce(a, b, out_lc, annotation)
        return out_lc

    def enforce_boolean(self, lc: LinearCombination, annotation: str = "bool") -> None:
        """Constrain lc ∈ {0, 1} via lc * (1 - lc) = 0."""
        self.enforce(lc, LinearCombination.constant(1) - lc, 0, annotation)

    # -- witness --------------------------------------------------------------------

    def full_witness(self) -> list[FieldElement]:
        """The complete witness vector; raises if any variable is unassigned."""
        witness = []
        for index in range(self._num_vars):
            if index not in self._assignment:
                raise SnarkError(f"variable w{index} is unassigned")
            witness.append(self._assignment[index])
        return witness

    # -- satisfaction -----------------------------------------------------------------

    def check_satisfied(self, witness: list[FieldElement] | None = None) -> None:
        """Raise :class:`ConstraintViolation` on the first failing constraint."""
        if witness is None:
            witness = self.full_witness()
        if len(witness) != self._num_vars:
            raise SnarkError(
                f"witness length {len(witness)} != variable count {self._num_vars}"
            )
        if witness[0] != FieldElement(1):
            raise ConstraintViolation("witness[0] must be the constant 1")
        # Plain-int evaluation: one .value unwrap per witness entry up
        # front, then pure integer dot products.
        values = [w.value for w in witness]
        modulus = FIELD_MODULUS
        for i, constraint in enumerate(self.constraints):
            lhs_a = sum(c * values[v] for v, c in constraint.a.terms.items())
            lhs_b = sum(c * values[v] for v, c in constraint.b.terms.items())
            rhs = sum(c * values[v] for v, c in constraint.c.terms.items())
            if (lhs_a * lhs_b - rhs) % modulus:
                label = constraint.annotation or f"constraint {i}"
                lhs = lhs_a * lhs_b % modulus
                raise ConstraintViolation(
                    f"{label}: {lhs} != {rhs % modulus} (index {i})"
                )

    def is_satisfied(self, witness: list[FieldElement] | None = None) -> bool:
        try:
            self.check_satisfied(witness)
        except (ConstraintViolation, SnarkError):
            return False
        return True


class ConstraintCounter(ConstraintSystem):
    """A sink that counts each ``enforce`` and stores nothing: a builder run
    over it yields the system's shape without holding the system."""

    num_constraints = 0

    def enforce(self, a, b, c, annotation: str = "") -> None:
        self.num_constraints += 1
