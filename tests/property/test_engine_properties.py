"""Property-based equivalence suite: the Poseidon engine against the reference.

The engine must be *bit-identical* to :func:`repro.crypto.poseidon.poseidon_hash`
on random inputs: same sponge digests, same Merkle roots, and a zkSNARK
witness that satisfies the circuit and hashes to the reference digest.  A
divergence anywhere would fork a deployed network's view of the membership
tree, so the property is the strongest form of the golden-vector guarantee.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.engine import default_engine
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleTree
from repro.crypto.poseidon import poseidon_hash
from repro.zksnark.gadgets import poseidon_hash_gadget
from repro.zksnark.r1cs import ConstraintSystem, LinearCombination

ENGINE = default_engine()

field_ints = st.integers(min_value=0, max_value=FIELD_MODULUS - 1)
arities = st.integers(min_value=1, max_value=8)


@given(arities, st.data())
@settings(max_examples=40, deadline=None)
def test_hash_equivalence(n, data):
    inputs = [
        FieldElement(data.draw(field_ints, label=f"in{i}")) for i in range(n)
    ]
    assert ENGINE.hash(inputs) == poseidon_hash(inputs)


@given(st.lists(st.tuples(field_ints, field_ints), max_size=20))
@settings(max_examples=25, deadline=None)
def test_hash_many_equivalence(raw_pairs):
    pairs = [(FieldElement(l), FieldElement(r)) for l, r in raw_pairs]
    assert ENGINE.hash_many(pairs) == [poseidon_hash([l, r]) for l, r in pairs]


@given(st.lists(st.integers(min_value=1, max_value=FIELD_MODULUS - 1), min_size=1, max_size=16))
@settings(max_examples=20, deadline=None)
def test_from_leaves_root_matches_reference_hasher(raw_leaves):
    leaves = [FieldElement(v) for v in raw_leaves]
    reference = MerkleTree.from_leaves(
        leaves, depth=5, hasher=lambda l, r: poseidon_hash([l, r])
    )
    assert MerkleTree.from_leaves(leaves, depth=5).root == reference.root


@given(field_ints, field_ints)
@settings(max_examples=15, deadline=None)
def test_gadget_witness_is_satisfied_and_hashes_to_reference(a, b):
    """The gadget's concrete path assigns a witness the R1CS accepts, and its
    output is the reference digest.  Each multiplication constraint fixes its
    output variable, so the satisfied witness is the only one."""
    cs = ConstraintSystem()
    lc_a = LinearCombination.variable(cs.allocate(FieldElement(a)))
    lc_b = LinearCombination.variable(cs.allocate(FieldElement(b)))
    digest = poseidon_hash_gadget(cs, [lc_a, lc_b], "h")
    cs.check_satisfied()
    assert cs.value_of(digest) == poseidon_hash([FieldElement(a), FieldElement(b)])
