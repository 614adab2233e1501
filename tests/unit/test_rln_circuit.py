"""Unit tests for the RLN circuit (statement of §II-B)."""

import tracemalloc

import pytest

from repro.crypto.engine import default_engine
from repro.crypto.field import FieldElement
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.errors import ProvingError
from repro.zksnark.rln_circuit import (
    PUBLIC_INPUT_ORDER,
    RLNPublicInputs,
    RLNWitness,
    circuit_shape,
    synthesize,
)

DEPTH = 4


@pytest.fixture()
def setup():
    identity = Identity.from_secret(777)
    tree = MerkleTree(depth=DEPTH)
    tree.insert(FieldElement(1))
    index = tree.insert(identity.pk)
    tree.insert(FieldElement(2))
    witness = RLNWitness(identity=identity, merkle_proof=tree.proof(index))
    ext = FieldElement(54827003)
    public = RLNPublicInputs.for_message(identity, b"payload", ext, tree.root)
    return identity, tree, witness, public


class TestPublicInputs:
    def test_order_fixed(self):
        assert PUBLIC_INPUT_ORDER == (
            "x",
            "external_nullifier",
            "y",
            "internal_nullifier",
            "root",
        )

    def test_serialize_length(self, setup):
        _, _, _, public = setup
        assert len(public.serialize()) == 5 * 32

    def test_for_message_consistent(self, setup):
        identity, tree, _, public = setup
        share = identity.share_for(public.external_nullifier, public.x)
        assert public.y == share.y
        assert public.root == tree.root


    @pytest.mark.parametrize(
        "secret, payload, epoch",
        [(777, b"payload", 54827003), (1, b"", 0), (2**200 + 9, b"\x00" * 300, 2**63)],
        ids=["typical", "empty-payload-epoch-0", "large"],
    )
    def test_for_message_derives_the_slope_once(self, secret, payload, epoch):
        # Two Poseidon calls — slope, nullifier (x is SHA-256) — and the
        # same public inputs the two separate derivations produce.
        identity = Identity.from_secret(secret)
        ext, root = FieldElement(epoch), FieldElement(12345)
        stats = default_engine().stats
        before = stats.hashes
        public = RLNPublicInputs.for_message(identity, payload, ext, root)
        assert stats.hashes - before == 2
        x = hash_message_to_field(payload)
        assert public == RLNPublicInputs(
            x=x,
            external_nullifier=ext,
            y=identity.share_for(ext, x).y,
            internal_nullifier=identity.epoch_secrets(ext).internal_nullifier,
            root=root,
        )


class TestWitness:
    def test_leaf_must_match_identity(self, setup):
        identity, tree, _, _ = setup
        with pytest.raises(ProvingError):
            RLNWitness(identity=identity, merkle_proof=tree.proof(0))


class TestSynthesize:
    def test_honest_witness_satisfies(self, setup):
        _, _, witness, public = setup
        cs = synthesize(DEPTH, public=public, witness=witness)
        cs.check_satisfied()

    def test_symbolic_compile_has_no_assignment(self):
        cs = synthesize(DEPTH)
        assert len(cs.constraints) > 0

    def test_shape_matches_synthesis(self, setup):
        # The counted shape equals a system that stores every constraint.
        _, _, witness, public = setup
        shape = circuit_shape(DEPTH)
        cs = synthesize(DEPTH, public=public, witness=witness)
        assert shape.num_constraints == len(cs.constraints)
        assert shape.num_variables == cs.num_variables
        assert shape.num_public == cs.num_public == 5

    def test_shape_is_counted_without_storing_the_circuit(self):
        # Storing depth 20's 5 579 constraints peaks at ~9.4 MiB.
        tracemalloc.start()
        try:
            shape = circuit_shape.__wrapped__(20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shape.num_constraints == 5579
        assert peak < 1 << 20

    def test_constraints_grow_with_depth(self):
        assert circuit_shape(6).num_constraints > circuit_shape(4).num_constraints

    def test_depth_mismatch_rejected(self, setup):
        _, _, witness, public = setup
        with pytest.raises(ProvingError):
            synthesize(DEPTH + 1, public=public, witness=witness)

    @pytest.mark.parametrize(
        "field,delta",
        [("x", 1), ("external_nullifier", 1), ("y", 1), ("internal_nullifier", 1), ("root", 1)],
    )
    def test_any_tampered_public_input_violates(self, setup, field, delta):
        # The zero-knowledge statement binds every public input.
        _, _, witness, public = setup
        tampered = RLNPublicInputs(
            **{
                name: (getattr(public, name) + delta if name == field else getattr(public, name))
                for name in PUBLIC_INPUT_ORDER
            }
        )
        cs = synthesize(DEPTH, public=tampered, witness=witness)
        assert not cs.is_satisfied()

    def test_wrong_secret_key_violates(self, setup):
        _, tree, witness, public = setup
        other = Identity.from_secret(888)
        index = tree.insert(other.pk)
        wrong = RLNWitness(identity=other, merkle_proof=tree.proof(index))
        # public inputs still speak about the original identity's shares,
        # but against the *old* root; recompute against new root to isolate
        # the share/nullifier mismatch.
        fresh_public = RLNPublicInputs(
            x=public.x,
            external_nullifier=public.external_nullifier,
            y=public.y,
            internal_nullifier=public.internal_nullifier,
            root=tree.root,
        )
        cs = synthesize(DEPTH, public=fresh_public, witness=wrong)
        assert not cs.is_satisfied()

    def test_non_member_cannot_satisfy(self):
        identity = Identity.from_secret(31337)
        member_tree = MerkleTree(depth=DEPTH)
        member_tree.insert(FieldElement(1))
        # Build a proof against a *different* tree that does contain us.
        own_tree = MerkleTree(depth=DEPTH)
        index = own_tree.insert(identity.pk)
        witness = RLNWitness(identity=identity, merkle_proof=own_tree.proof(index))
        ext = FieldElement(1)
        public = RLNPublicInputs.for_message(identity, b"m", ext, member_tree.root)
        cs = synthesize(DEPTH, public=public, witness=witness)
        assert not cs.is_satisfied()
