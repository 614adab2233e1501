"""Artefact serialization sizes — experiment E3's measurement surface.

§IV of the paper reports: 32 B public and secret keys, a ~3.89 MB prover
key, 128 B Groth16 proofs, and per-message metadata.  This module collects
the size accessors in one place so the benchmark and the tests agree on
what "serialized size" means for every artefact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import RateLimitProof
from repro.crypto.identity import Identity
from repro.zksnark.groth16 import ProvingKey, VerifyingKey


@dataclass(frozen=True)
class ArtifactSizes:
    """Byte sizes of every persistent/wire artefact."""

    secret_key: int
    identity_commitment: int
    proof: int
    proving_key: int
    verifying_key: int
    message_metadata: int

    def as_rows(self) -> list[tuple[str, int]]:
        return [
            ("identity secret key sk", self.secret_key),
            ("identity commitment pk", self.identity_commitment),
            ("zkSNARK proof pi", self.proof),
            ("prover key", self.proving_key),
            ("verifier key", self.verifying_key),
            ("per-message metadata bundle", self.message_metadata),
        ]


def measure_sizes(
    identity: Identity,
    proving_key: ProvingKey,
    verifying_key: VerifyingKey,
    bundle: RateLimitProof,
) -> ArtifactSizes:
    """Measure every artefact size from live objects."""
    return ArtifactSizes(
        secret_key=len(identity.export_secret()),
        identity_commitment=len(identity.export_commitment()),
        proof=len(bundle.proof.serialize()),
        proving_key=proving_key.serialized_size(),
        verifying_key=verifying_key.serialized_size(),
        message_metadata=bundle.byte_size(),
    )

