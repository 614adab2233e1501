"""Unit tests for RLN-v2 multi-message rate limiting."""

import pytest

from repro.core.nullifier_log import NullifierLog, NullifierOutcome
from repro.crypto.field import FieldElement
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.identity import Identity, derive_internal_nullifier, derive_slope
from repro.crypto.merkle import MerkleTree
from repro.crypto.shamir import Share, recover_secret
from repro.errors import ProvingError, SnarkError
from repro.zksnark.groth16 import Groth16
from repro.zksnark.prover import NativeProver
from repro.zksnark.rln_circuit import (
    RLNPublicInputs,
    RLNWitness,
    circuit_shape,
    synthesize,
)

DEPTH = 4
LIMIT = 3
EPOCH = FieldElement(54_827_003)


@pytest.fixture(scope="module")
def member():
    identity = Identity.from_secret(0x1234)
    tree = MerkleTree(depth=DEPTH)
    index = tree.insert(identity.pk)
    return identity, tree, tree.proof(index)


def publics_for(identity, tree, payload, message_id, limit=LIMIT):
    return RLNPublicInputs.for_message(
        identity, payload, EPOCH, tree.root, message_id=message_id, message_limit=limit
    )


class TestDerivations:
    def test_distinct_ids_give_distinct_slopes(self):
        sk = FieldElement(5)
        slopes = {derive_slope(sk, EPOCH, i).value for i in range(4)}
        assert len(slopes) == 4

    def test_slope_depends_on_epoch(self):
        sk = FieldElement(5)
        assert derive_slope(sk, EPOCH, 0) != derive_slope(sk, EPOCH + 1, 0)

    def test_message_id_out_of_range_rejected(self, member):
        identity, tree, _ = member
        with pytest.raises(ProvingError):
            publics_for(identity, tree, b"m", message_id=LIMIT)


class TestCircuit:
    def test_honest_witness_satisfies(self, member):
        identity, tree, proof = member
        public = publics_for(identity, tree, b"hello", message_id=1)
        witness = RLNWitness(identity=identity, merkle_proof=proof, message_id=1)
        cs = synthesize(DEPTH, public, witness, message_limit=LIMIT)
        cs.check_satisfied()

    def test_message_id_at_limit_violates(self, member):
        identity, tree, proof = member
        # Build publics as if the id were legal, witness uses id = LIMIT.
        slope = derive_slope(identity.sk, EPOCH, LIMIT)
        x = hash_message_to_field(b"m")
        public = RLNPublicInputs(
            x=x,
            external_nullifier=EPOCH,
            y=identity.sk + slope * x,
            internal_nullifier=derive_internal_nullifier(slope),
            root=tree.root,
            message_limit=LIMIT,
        )
        witness = RLNWitness(identity=identity, merkle_proof=proof, message_id=LIMIT)
        cs = synthesize(DEPTH, public, witness, message_limit=LIMIT)
        assert not cs.is_satisfied()

    def test_wrong_limit_public_input_violates(self, member):
        identity, tree, proof = member
        public = publics_for(identity, tree, b"m", message_id=0)
        lax = RLNPublicInputs(
            x=public.x,
            external_nullifier=public.external_nullifier,
            y=public.y,
            internal_nullifier=public.internal_nullifier,
            root=public.root,
            message_limit=LIMIT + 5,
        )
        witness = RLNWitness(identity=identity, merkle_proof=proof, message_id=0)
        with pytest.raises(ProvingError):
            synthesize(DEPTH, lax, witness, message_limit=LIMIT)

    def test_shape_larger_than_v1(self):
        # Range check + 3-input Poseidon cost extra constraints.
        assert (
            circuit_shape(DEPTH, LIMIT).num_constraints
            > circuit_shape(DEPTH).num_constraints
        )

    def test_invalid_limit_rejected(self):
        with pytest.raises(SnarkError):
            synthesize(DEPTH, message_limit=0)
        with pytest.raises(SnarkError):
            synthesize(DEPTH, message_limit=1 << 20)


# Explicit ids: the bare class names are test_prover_backends' ids for the
# paper's statement; these name the same two backends *under a limit*.
@pytest.mark.parametrize(
    "backend", [NativeProver, Groth16], ids=["NativeProverV2", "Groth16ProverV2"]
)
class TestProvers:
    @pytest.fixture(scope="class")
    def provers(self):
        return {
            NativeProver: NativeProver(DEPTH, LIMIT),
            Groth16: Groth16(DEPTH, LIMIT),
        }

    def test_n_messages_per_epoch_all_verify(self, backend, provers, member):
        identity, tree, proof = member
        prover = provers[backend]
        nullifiers = set()
        for message_id in range(LIMIT):
            payload = b"msg-%d" % message_id
            public = publics_for(identity, tree, payload, message_id)
            witness = RLNWitness(
                identity=identity, merkle_proof=proof, message_id=message_id
            )
            zkp = prover.prove(public, witness)
            assert prover.verify(public, zkp)
            nullifiers.add(public.internal_nullifier.value)
        # All N messages carry unlinkable (distinct) nullifiers.
        assert len(nullifiers) == LIMIT

    def test_overspending_id_unprovable(self, backend, provers, member):
        identity, tree, proof = member
        prover = provers[backend]
        slope = derive_slope(identity.sk, EPOCH, LIMIT + 1)
        x = hash_message_to_field(b"over")
        public = RLNPublicInputs(
            x=x,
            external_nullifier=EPOCH,
            y=identity.sk + slope * x,
            internal_nullifier=derive_internal_nullifier(slope),
            root=tree.root,
            message_limit=LIMIT,
        )
        witness = RLNWitness(
            identity=identity, merkle_proof=proof, message_id=LIMIT + 1
        )
        with pytest.raises(ProvingError):
            prover.prove(public, witness)

    def test_id_reuse_recovers_secret_key(self, backend, provers, member):
        identity, tree, proof = member
        prover = provers[backend]
        log = NullifierLog()
        epoch_number = 54_827_003
        for payload in (b"first", b"second"):
            public = publics_for(identity, tree, payload, message_id=1)
            witness = RLNWitness(identity=identity, merkle_proof=proof, message_id=1)
            assert prover.verify(public, prover.prove(public, witness))
            outcome, evidence = log.observe(
                epoch_number,
                public.internal_nullifier,
                Share(x=public.x, y=public.y),
                payload,
            )
        assert outcome is NullifierOutcome.SPAM
        assert recover_secret(evidence.share_a, evidence.share_b) == identity.sk

    def test_verification_binds_limit(self, backend, provers, member):
        identity, tree, proof = member
        prover = provers[backend]
        public = publics_for(identity, tree, b"m", message_id=0)
        witness = RLNWitness(identity=identity, merkle_proof=proof, message_id=0)
        zkp = prover.prove(public, witness)
        forged = RLNPublicInputs(
            x=public.x,
            external_nullifier=public.external_nullifier,
            y=public.y,
            internal_nullifier=public.internal_nullifier,
            root=public.root,
            message_limit=LIMIT + 1,
        )
        assert not prover.verify(forged, zkp)
