"""Unit tests for the simulated Groth16 prover/verifier."""

import pytest

from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.errors import ProvingError, SetupError, SnarkError, VerificationError
from repro.zksnark.groth16 import PROOF_SIZE, Groth16, Proof, setup
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

DEPTH = 4


@pytest.fixture(scope="module")
def system():
    return Groth16(DEPTH)


@pytest.fixture(scope="module")
def statement(system):
    identity = Identity.from_secret(999)
    tree = MerkleTree(depth=DEPTH)
    index = tree.insert(identity.pk)
    witness = RLNWitness(identity=identity, merkle_proof=tree.proof(index))
    public = RLNPublicInputs.for_message(
        identity, b"hello", FieldElement(12345), tree.root
    )
    return public, witness


@pytest.fixture(scope="module")
def batch(system, statement):
    """Groth16 proofs are randomised: 32 distinct proofs of the statement."""
    public, witness = statement
    return [(public, system.prove(public, witness)) for _ in range(32)]


class TestSetup:
    def test_keys_share_circuit_shape(self):
        pk, vk = setup(DEPTH)
        assert pk.shape == vk.shape

    def test_proving_key_much_larger_than_verifying_key(self):
        # §IV: the prover key is megabytes, the verifier key is tiny.
        pk, vk = setup(DEPTH)
        assert pk.serialized_size() > 100 * vk.serialized_size()

    def test_proving_key_serialization_matches_declared_size(self):
        pk, _ = setup(DEPTH)
        assert len(pk.serialize()) == pk.serialized_size()

    def test_mismatched_keys_rejected(self):
        pk1, _ = setup(DEPTH)
        _, vk2 = setup(DEPTH)
        with pytest.raises(SetupError):
            Groth16(DEPTH, proving_key=pk1, verifying_key=vk2)

    def test_keys_of_another_circuit_rejected(self):
        pk, vk = setup(DEPTH)
        for depth, limit in ((DEPTH + 1, None), (DEPTH, 4)):
            with pytest.raises(SetupError):
                Groth16(depth, limit, proving_key=pk, verifying_key=vk)
        assert Groth16(DEPTH, proving_key=pk, verifying_key=vk).depth == DEPTH

    def test_partial_keys_rejected(self):
        pk, _ = setup(DEPTH)
        with pytest.raises(SetupError):
            Groth16(DEPTH, proving_key=pk, verifying_key=None)


class TestProve:
    def test_honest_proof_verifies(self, system, statement):
        public, witness = statement
        proof = system.prove(public, witness)
        assert system.verify(public, proof)
        system.verify_or_raise(public, proof)

    def test_proofs_are_randomised(self, system, statement):
        public, witness = statement
        p1 = system.prove(public, witness)
        p2 = system.prove(public, witness)
        assert p1.serialize() != p2.serialize()
        assert system.verify(public, p1) and system.verify(public, p2)

    def test_false_statement_unprovable(self, system, statement):
        public, witness = statement
        lying = RLNPublicInputs(
            x=public.x,
            external_nullifier=public.external_nullifier,
            y=public.y + 1,
            internal_nullifier=public.internal_nullifier,
            root=public.root,
        )
        with pytest.raises(ProvingError):
            system.prove(lying, witness)

    def test_timing_counters_update(self, system, statement):
        public, witness = statement
        system.prove(public, witness)
        assert system.last_prove_seconds > 0
        system.verify(public, system.prove(public, witness))
        assert system.last_verify_seconds > 0


class TestVerify:
    def test_rejects_wrong_statement(self, system, statement):
        public, witness = statement
        proof = system.prove(public, witness)
        other = RLNPublicInputs(
            x=public.x + 1,
            external_nullifier=public.external_nullifier,
            y=public.y,
            internal_nullifier=public.internal_nullifier,
            root=public.root,
        )
        assert not system.verify(other, proof)

    def test_rejects_tampered_proof(self, system, statement):
        public, witness = statement
        proof = system.prove(public, witness)
        tampered = Proof(a=proof.a, b=proof.b, c=bytes(32))
        assert not system.verify(public, tampered)

    def test_verify_or_raise(self, system, statement):
        public, _ = statement
        with pytest.raises(VerificationError):
            system.verify_or_raise(public, Proof(a=bytes(32), b=bytes(64), c=bytes(32)))

    def test_cross_setup_proofs_rejected(self, statement):
        # A proof made under one trusted setup fails under another — peers
        # must share the ceremony output.
        public, witness = statement
        system_a = Groth16(DEPTH)
        system_b = Groth16(DEPTH)
        proof = system_a.prove(public, witness)
        assert not system_b.verify(public, proof)


class TestProofFormat:
    def test_serialized_size_is_groth16_compressed(self, system, statement):
        public, witness = statement
        proof = system.prove(public, witness)
        assert len(proof.serialize()) == PROOF_SIZE == 128

    def test_roundtrip(self, system, statement):
        public, witness = statement
        proof = system.prove(public, witness)
        restored = Proof.deserialize(proof.serialize())
        assert restored == proof
        assert system.verify(public, restored)

    def test_deserialize_length_checked(self):
        with pytest.raises(SnarkError):
            Proof.deserialize(b"\x00" * 64)

    def test_malformed_elements_rejected(self):
        with pytest.raises(SnarkError):
            Proof(a=b"\x00" * 31, b=b"\x00" * 64, c=b"\x00" * 32)


class TestBatchVerify:
    def test_batched_32_fewer_pairings_than_32_individual_verifies(
        self, system, batch
    ):
        from repro.zksnark.groth16 import BATCH_FIXED_PAIRINGS, PAIRINGS_PER_VERIFY

        jobs = batch
        counter = system.pairing_counter

        counter.reset()
        for job_public, job_proof in jobs:
            assert system.verify(job_public, job_proof)
        individual = counter.evaluations
        assert individual == 32 * PAIRINGS_PER_VERIFY

        counter.reset()
        assert system.verify_batch(jobs)
        batched = counter.evaluations
        assert batched == 32 + BATCH_FIXED_PAIRINGS
        assert batched < individual

    def test_batch_rejects_if_any_member_forged(self, system, statement, batch):
        public, _ = statement
        jobs = batch[:7] + [(public, Proof(a=bytes(32), b=bytes(64), c=bytes(32)))]
        assert not system.verify_batch(jobs)

    def test_empty_batch_accepts(self, system):
        assert system.verify_batch([])

    @pytest.mark.parametrize("size", range(1, 9))
    def test_one_forged_proof_at_any_position_fails_the_batch(self, system, batch, size):
        from repro.zksnark.groth16 import BATCH_FIXED_PAIRINGS

        counter = system.pairing_counter
        counter.reset()
        assert system.verify_batch(batch[:size])
        assert counter.evaluations == size + BATCH_FIXED_PAIRINGS
        for position in range(size):
            public, proof = batch[position]
            # The smallest forgery: c off by one in its last bit.
            forged = Proof(a=proof.a, b=proof.b, c=proof.c[:-1] + bytes([proof.c[-1] ^ 1]))
            jobs = batch[:position] + [(public, forged)] + batch[position + 1 : size]
            assert not system.verify_batch(jobs)

    def test_two_proofs_trading_c_fail_the_batch(self, system, batch):
        (public, first), (_, second) = batch[0], batch[1]
        jobs = [
            (public, Proof(a=first.a, b=first.b, c=second.c)),
            (public, Proof(a=second.a, b=second.b, c=first.c)),
        ]
        assert not system.verify_batch(jobs)
