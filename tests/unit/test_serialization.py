"""Unit tests for artefact size accounting (experiment E3 surface)."""

import pytest

from repro.core.messages import RateLimitProof
from repro.crypto.field import FIELD_BYTES, FieldElement
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.serialization import measure_sizes
from repro.zksnark.groth16 import setup
from repro.zksnark.prover import NativeProver
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

DEPTH = 6


@pytest.fixture(scope="module")
def sizes():
    prover = NativeProver(DEPTH)
    proving_key, verifying_key = setup(DEPTH)
    identity = Identity.from_secret(808)
    tree = MerkleTree(depth=DEPTH)
    index = tree.insert(identity.pk)
    public = RLNPublicInputs.for_message(identity, b"m", FieldElement(1), tree.root)
    witness = RLNWitness(identity=identity, merkle_proof=tree.proof(index))
    proof = prover.prove(public, witness)
    bundle = RateLimitProof(
        share_x=public.x,
        share_y=public.y,
        internal_nullifier=public.internal_nullifier,
        epoch=1,
        root=tree.root,
        proof=proof,
    )
    return measure_sizes(identity, proving_key, verifying_key, bundle)


class TestArtifactSizes:
    def test_keys_are_32_bytes(self, sizes):
        assert sizes.secret_key == FIELD_BYTES == 32
        assert sizes.identity_commitment == FIELD_BYTES

    def test_proof_is_128_bytes(self, sizes):
        assert sizes.proof == 128

    def test_prover_key_dwarfs_verifier_key(self, sizes):
        assert sizes.proving_key > 100 * sizes.verifying_key

    def test_metadata_is_constant_overhead(self, sizes):
        assert sizes.message_metadata == 4 * 32 + 8 + 128

    def test_rows_cover_all_artifacts(self, sizes):
        assert len(sizes.as_rows()) == 6
