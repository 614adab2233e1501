"""Prover backends and the shared proof-system registry.

Two interchangeable backends fill in the one
:class:`~repro.zksnark.groth16.RLNProver` skeleton:

* :class:`~repro.zksnark.groth16.Groth16` — the full pipeline: compile the
  R1CS, generate the witness, check satisfaction, emit the proof.  This is
  what the cryptographic benchmarks (experiments E1/E2) measure; its cost
  scales with circuit size exactly as the paper's prover does.
* :class:`NativeProver` — checks the identical statement (membership, share
  validity, nullifier correctness, and under a message limit the limit
  binding and id range) by direct field arithmetic instead of through the
  constraint system, then emits the same MAC-bound proof object.  Accepts
  and rejects *exactly* the same (statement, witness) pairs as the circuit
  — the tests cross-validate this — but runs three orders of magnitude
  faster, which makes the 100-peer network simulations (experiments
  E7–E10) tractable in pure Python.

All peers in one deployment must share a trusted setup, otherwise proofs
produced by one peer would not verify at another; :func:`shared_prover`
provides a per-(depth, backend) singleton for that purpose.
"""

from __future__ import annotations

from repro.errors import ProvingError
from repro.zksnark.groth16 import Groth16, RLNProver
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness, message_id_in_range


class NativeProver(RLNProver):
    """Statement-equivalent fast prover for large-scale simulations."""

    def _check_statement(self, public: RLNPublicInputs, witness: RLNWitness) -> None:
        """Native re-derivation of the circuit's constraints.

        Everything is derived from the *witness's* key and the *statement's*
        nullifier and compared with the statement; what the identity holds
        from that key already — ``H(sk)``, the epoch secrets of the bundle
        being proved — is asked for, not hashed again.
        """
        identity = witness.identity
        message_id = witness.message_id
        if witness.merkle_proof.depth != self.depth:
            raise ProvingError(
                f"witness path depth {witness.merkle_proof.depth} != {self.depth}"
            )
        if public.message_limit != self.message_limit:
            raise ProvingError("limit binding: public message_limit is not the circuit's")
        if not message_id_in_range(message_id, self.message_limit):
            raise ProvingError(
                f"message-id range: {message_id} not spendable under {self.message_limit}"
            )
        if identity._commitment != witness.merkle_proof.leaf:
            raise ProvingError("membership: leaf is not the commitment of sk")
        if witness.merkle_proof.compute_root() != public.root:
            raise ProvingError("membership: authentication path does not reach root")
        secrets = identity.epoch_secrets(public.external_nullifier, message_id)
        if identity.sk + secrets.slope * public.x != public.y:
            raise ProvingError("share validity: y != sk + a1 * x")
        if secrets.internal_nullifier != public.internal_nullifier:
            raise ProvingError("nullifier correctness: phi mismatch")


_BACKENDS: dict[str, type[RLNProver]] = {"native": NativeProver, "groth16": Groth16}
_SHARED: dict[tuple[int, str], RLNProver] = {}


def shared_prover(depth: int, backend: str = "native") -> RLNProver:
    """Singleton prover per (depth, backend) — one trusted setup per network.

    ``backend`` is ``"native"`` or ``"groth16"``.
    """
    key = (depth, backend)
    if key not in _SHARED:
        if backend not in _BACKENDS:
            raise ProvingError(f"unknown prover backend {backend!r}")
        _SHARED[key] = _BACKENDS[backend](depth)
    return _SHARED[key]

