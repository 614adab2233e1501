"""Cryptographic substrate: field, Poseidon, Merkle trees, Shamir, identities.

Everything in this package is implemented from scratch in pure Python; see
DESIGN.md §2 for how the simulated pieces map to the paper's artefacts.
"""

from repro.crypto.field import FIELD_BYTES, FIELD_MODULUS, FieldElement, ZERO, ONE
from repro.crypto.poseidon import poseidon_hash
from repro.crypto.engine import PoseidonEngine, default_engine, publish_engine_telemetry
from repro.crypto.merkle import DEFAULT_DEPTH, MerkleProof, MerkleTree, verify_proof
from repro.crypto.optimized_merkle import OptimizedMerkleView, TreeUpdate
from repro.crypto.shamir import (
    Share,
    recover_secret,
    recover_slope,
    reconstruct_secret,
    rln_share,
    split_secret,
)
from repro.crypto.identity import (
    EpochSecrets,
    Identity,
    derive_commitment,
    derive_internal_nullifier,
    derive_slope,
)
from repro.crypto.commitments import Commitment, Opening, commit, open_or_raise, verify_opening
from repro.crypto.hashing import hash_message_to_field, message_id, tagged_sha256

__all__ = [
    "FIELD_BYTES",
    "FIELD_MODULUS",
    "FieldElement",
    "ZERO",
    "ONE",
    "poseidon_hash",
    "PoseidonEngine",
    "default_engine",
    "publish_engine_telemetry",
    "DEFAULT_DEPTH",
    "MerkleProof",
    "MerkleTree",
    "verify_proof",
    "OptimizedMerkleView",
    "TreeUpdate",
    "Share",
    "recover_secret",
    "recover_slope",
    "reconstruct_secret",
    "rln_share",
    "split_secret",
    "EpochSecrets",
    "Identity",
    "derive_commitment",
    "derive_internal_nullifier",
    "derive_slope",
    "Commitment",
    "Opening",
    "commit",
    "open_or_raise",
    "verify_opening",
    "hash_message_to_field",
    "message_id",
    "tagged_sha256",
]
