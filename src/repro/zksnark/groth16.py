"""Simulated Groth16 over the RLN circuit.

The paper uses Groth16 (§II-B) for its constant-size proofs (128 bytes
compressed) and constant-time verification (~30 ms on the authors' rust
stack).  Real Groth16 needs BN254 pairings; this reproduction substitutes a
designated-verifier simulation (DESIGN.md §2, substitution 1) that keeps
every property the protocol exercises:

* **Completeness** — an honest witness always yields an accepting proof.
* **Prover-side soundness** — proving *requires* a witness that satisfies
  the full R1CS; :meth:`Groth16.prove` runs real witness generation over
  the compiled circuit and the satisfaction check, so no proof exists for a
  false statement unless the holder of the verification key forges one.
* **Public-input binding** — the proof authenticates every public input;
  flipping any bit of (x, epoch, y, nullifier, root) fails verification.
* **Constant proof size** — 128 bytes, like compressed Groth16 (G1 + G2 + G1).
* **Constant-time verification** — independent of circuit and message size.
* **Randomised proofs** — two proofs of the same statement differ, as real
  Groth16 proofs do (the prover samples fresh r, s).

What it does *not* provide: soundness against an adversary holding the
verification key (real pairings prevent that; an HMAC cannot), and
information-theoretic zero-knowledge.  Neither is exercised by any code
path in the reproduction, because verification keys live inside honest
routing peers.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.crypto.field import FIELD_BYTES
from repro.errors import ProvingError, SetupError, SnarkError, VerificationError
from repro.zksnark.rln_circuit import (
    CircuitShape,
    RLNPublicInputs,
    RLNWitness,
    circuit_shape,
    synthesize,
)
from repro.zksnark.trusted_setup import SetupParameters, run_default_ceremony

#: Compressed Groth16 proof layout: A in G1 (32 B), B in G2 (64 B), C in G1 (32 B).
PROOF_SIZE = 128

#: Bytes per (variable or constraint) entry in the serialized proving key.
#: Chosen to mimic the density of a bn254 proving key: one G1 point per
#: witness coefficient in A/B/C plus the H-query. The paper reports 3.89 MB
#: for its depth-32 prover key.
_PK_ENTRY_BYTES = 64
_VK_FIXED_BYTES = 296  # alpha/beta/gamma/delta + per-public-input IC points.

#: Pairing evaluations of one classical verification: the check
#: e(A, B) = e(alpha, beta) * e(IC(x), gamma) * e(C, delta) costs four
#: Miller loops (shared final exponentiation folded into the count).
PAIRINGS_PER_VERIFY = 4

#: Fixed pairings a batched check performs *once* regardless of batch size:
#: the combined e(alpha, beta), e(sum r_i IC_i, gamma) and
#: e(sum r_i C_i, delta) terms.  Each proof then adds one Miller loop for
#: its own e(A_i, B_i)^{r_i}, so a batch of N costs N + 3 evaluations
#: instead of 4N.
BATCH_FIXED_PAIRINGS = 3


@dataclass
class PairingCounter:
    """Pairing-evaluation accounting — the cost unit of experiments E2/E11/E13.

    The simulation cannot time real BN254 pairings, so the benchmarks count
    *evaluations* instead: wall-clock on the authors' stack is proportional
    to this counter.  The one evaluations-to-seconds conversion lives in
    :class:`repro.exec.costs.CryptoCostModel` (anchored to the paper's
    ~30 ms per 4-pairing verify), shared by the async executor's
    service-time model and the benchmark reports.
    """

    evaluations: int = 0
    batch_checks: int = 0

    def reset(self) -> None:
        self.evaluations = 0
        self.batch_checks = 0


@dataclass(frozen=True, slots=True)
class Proof:
    """A rate-limit proof: three simulated group elements totalling 128 B."""

    a: bytes  # 32 bytes, G1
    b: bytes  # 64 bytes, G2
    c: bytes  # 32 bytes, G1

    def __post_init__(self) -> None:
        if len(self.a) != 32 or len(self.b) != 64 or len(self.c) != 32:
            raise SnarkError("malformed proof element lengths")

    def serialize(self) -> bytes:
        return self.a + self.b + self.c

    @classmethod
    def deserialize(cls, data: bytes) -> "Proof":
        if len(data) != PROOF_SIZE:
            raise SnarkError(f"proof must be {PROOF_SIZE} bytes, got {len(data)}")
        return cls(a=data[:32], b=data[32:96], c=data[96:])


@dataclass(frozen=True)
class ProvingKey:
    """Per-circuit proving key; large (O(constraints)) like real Groth16."""

    shape: CircuitShape
    params: SetupParameters

    def serialized_size(self) -> int:
        """Size in bytes of the full serialized key (computed, not built)."""
        entries = (
            self.shape.num_variables * 3  # A, B, C query points
            + self.shape.num_constraints  # H query
        )
        return entries * _PK_ENTRY_BYTES + len(self.params.circuit_tag)

    def serialize(self) -> bytes:
        """Materialise the key bytes (counter-mode expansion of the SRS)."""
        out = bytearray(self.params.circuit_tag)
        size = self.serialized_size() - len(self.params.circuit_tag)
        counter = 0
        while len(out) < size:
            out += hashlib.sha256(
                self.params.secret_tau + b"pk" + counter.to_bytes(8, "big")
            ).digest()
            counter += 1
        return bytes(out[: self.serialized_size()])


@dataclass(frozen=True)
class VerifyingKey:
    """Per-circuit verification key; small and constant-size per public input."""

    shape: CircuitShape
    params: SetupParameters

    def serialized_size(self) -> int:
        return _VK_FIXED_BYTES + self.shape.num_public * FIELD_BYTES


def setup(
    depth: int, message_limit: int | None = None, *, ceremony_participants: int = 3
) -> tuple[ProvingKey, VerifyingKey]:
    """Run the (simulated) MPC ceremony and derive the key pair for one circuit."""
    shape = circuit_shape(depth, message_limit)
    params = run_default_ceremony(shape, participants=ceremony_participants)
    return ProvingKey(shape=shape, params=params), VerifyingKey(shape=shape, params=params)


@lru_cache(maxsize=8)
def _pairing_key_schedule(secret_tau: bytes) -> "hmac.HMAC":
    """Keyed HMAC state for one SRS, computed once per ``secret_tau``.

    HMAC's key schedule (two SHA-256 blocks over the padded key) is fixed
    per verification key; precomputing it and ``copy()``-ing per check
    mirrors real verifiers caching the pairing-ready verification-key
    elements across proofs.
    """
    return hmac.new(secret_tau, digestmod=hashlib.sha256)


def _pairing_tag(params: SetupParameters, statement: bytes, a: bytes, b: bytes) -> bytes:
    """The simulated pairing product: an HMAC binding statement and randomness."""
    mac = _pairing_key_schedule(params.secret_tau).copy()
    mac.update(statement + a + b)
    return mac.digest()


def single_pairing_check(
    params: SetupParameters,
    public: RLNPublicInputs,
    proof: Proof,
    counter: PairingCounter | None = None,
) -> bool:
    """One classical verification equation (4 pairing evaluations)."""
    if counter is not None:
        counter.evaluations += PAIRINGS_PER_VERIFY
    expected = _pairing_tag(params, public.serialize(), proof.a, proof.b)
    return hmac.compare_digest(expected, proof.c)


def batch_pairing_check(
    params: SetupParameters,
    jobs: Sequence[tuple[RLNPublicInputs, Proof]],
    counter: PairingCounter | None = None,
) -> bool:
    """Random-linear-combination multi-pairing over a batch of proofs.

    Real Groth16 batching samples verifier-side random coefficients r_i
    *after* seeing the proofs and checks one combined equation

        prod_i e(A_i, B_i)^{r_i} = e(alpha, beta)^{sum r_i}
                                   * e(sum r_i IC_i, gamma)
                                   * e(sum r_i C_i, delta),

    costing N + 3 pairing evaluations instead of 4N.  The simulation keeps
    the soundness structure: 128-bit coefficients ``r_i`` are drawn once
    per batch *after* the proofs are fixed, and the batch holds iff
    ``sum r_i * (tag_i - c_i) == 0`` over the integers, ``tag_i`` being
    the proof's simulated pairing product.  With any wrong proof in the
    batch, that sum vanishes with probability at most 2^-128.

    Accepts iff every proof in the batch is valid (no culprit isolation —
    that is :class:`repro.pipeline.batch_verifier.BatchVerifier`'s job).
    """
    if not jobs:
        return True
    if counter is not None:
        counter.evaluations += len(jobs) + BATCH_FIXED_PAIRINGS
        counter.batch_checks += 1
    coefficients = secrets.token_bytes(16 * len(jobs))
    accumulator = 0
    for i, (public, proof) in enumerate(jobs):
        tag = _pairing_tag(params, public.serialize(), proof.a, proof.b)
        accumulator += int.from_bytes(coefficients[16 * i : 16 * i + 16], "big") * (
            int.from_bytes(tag, "big") - int.from_bytes(proof.c, "big")
        )
    return accumulator == 0


class RLNProver:
    """The one prove/verify skeleton over one trusted set-up.

    A proof system for the depth-``depth`` circuit, with ``message_limit``
    the circuit's RLN-v2 parameter (``None`` = the paper's statement).
    Backends differ only in :meth:`_check_statement` — how they convince
    themselves the witness satisfies the statement before the public
    inputs are bound with the SRS secret.  All peers of one deployment
    must share one instance's set-up, otherwise proofs produced by one
    peer would not verify at another
    (:func:`repro.zksnark.prover.shared_prover`).
    """

    def __init__(
        self,
        depth: int,
        message_limit: int | None = None,
        *,
        params: SetupParameters | None = None,
    ) -> None:
        self.depth = depth
        self.message_limit = message_limit
        self._params = params or setup(depth, message_limit)[0].params
        #: Wall-clock seconds spent in the last prove() / verify() call;
        #: exposed for the performance benchmarks (experiments E1/E2).
        self.last_prove_seconds = 0.0
        self.last_verify_seconds = 0.0
        #: Pairing-evaluation accounting for the batching benchmarks (E11).
        self.pairing_counter = PairingCounter()

    def _check_statement(self, public: RLNPublicInputs, witness: RLNWitness) -> None:
        """Raise :class:`ProvingError` unless the witness satisfies the statement."""
        raise NotImplementedError

    def prove(self, public: RLNPublicInputs, witness: RLNWitness) -> Proof:
        """Generate a proof; raises :class:`ProvingError` on a false statement."""
        start = time.perf_counter()
        self._check_statement(public, witness)
        statement = public.serialize()
        a = secrets.token_bytes(32)  # simulated randomised G1 element (r)
        b = secrets.token_bytes(64)  # simulated randomised G2 element (s)
        c = _pairing_tag(self._params, statement, a, b)
        self.last_prove_seconds = time.perf_counter() - start
        return Proof(a=a, b=b, c=c)

    def _timed_check(self, check, *args) -> bool:
        start = time.perf_counter()
        ok = check(self._params, *args, self.pairing_counter)
        self.last_verify_seconds = time.perf_counter() - start
        return ok

    def verify(self, public: RLNPublicInputs, proof: Proof) -> bool:
        """Constant-time verification of a proof against a statement."""
        return self._timed_check(single_pairing_check, public, proof)

    def verify_batch(self, jobs: Sequence[tuple[RLNPublicInputs, Proof]]) -> bool:
        """Verify N proofs with one RLC multi-pairing (N + 3 evaluations).

        Returns True iff *every* proof in the batch verifies; a False batch
        says nothing about which member is forged (callers fall back to
        per-proof checks to isolate the culprit).
        """
        return self._timed_check(batch_pairing_check, jobs)


class Groth16(RLNProver):
    """The full pipeline: compile the R1CS, generate the witness, check
    satisfaction — the computational core of real proving, whose cost
    scales with circuit size exactly as the paper's prover does
    (experiments E1/E2) — then emit the proof.

    >>> prover = Groth16(depth=4)          # doctest: +SKIP
    >>> proof = prover.prove(public, witness)
    >>> prover.verify(public, proof)
    True
    """

    def __init__(
        self,
        depth: int,
        message_limit: int | None = None,
        *,
        proving_key: ProvingKey | None = None,
        verifying_key: VerifyingKey | None = None,
    ) -> None:
        if (proving_key is None) != (verifying_key is None):
            raise SetupError("provide both keys or neither")
        if proving_key is None:
            proving_key, verifying_key = setup(depth, message_limit)
        shape = circuit_shape(depth, message_limit)
        if proving_key.shape != shape or verifying_key.shape != shape:
            raise SetupError("keys were not generated for the requested circuit")
        if proving_key.params.secret_tau != verifying_key.params.secret_tau:
            raise SetupError("proving and verifying keys come from different setups")
        super().__init__(depth, message_limit, params=verifying_key.params)
        self.proving_key = proving_key
        self.verifying_key = verifying_key

    def _check_statement(self, public: RLNPublicInputs, witness: RLNWitness) -> None:
        cs = synthesize(self.depth, public, witness, message_limit=self.message_limit)
        try:
            cs.check_satisfied()
        except SnarkError as exc:
            raise ProvingError(f"witness does not satisfy the RLN circuit: {exc}") from exc

    def verify_or_raise(self, public: RLNPublicInputs, proof: Proof) -> None:
        if not self.verify(public, proof):
            raise VerificationError("rate-limit proof failed verification")
