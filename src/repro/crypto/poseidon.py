"""Poseidon hash over the BN254 scalar field.

Poseidon is the arithmetic-friendly sponge hash used throughout the RLN
construction: identity commitments ``pk = H(sk)``, the per-epoch share slope
``a1 = H(sk, epoch)``, internal nullifiers ``phi = H(a1)``, and every node of
the identity-commitment Merkle tree (§II-B of the paper).  An
arithmetic-friendly hash is essential because the same computation must also
be expressed as R1CS constraints inside the zkSNARK circuit
(:mod:`repro.zksnark.gadgets`).

This is a full, from-scratch implementation of the Poseidon permutation:

* x^5 S-box (the standard choice for BN254, where gcd(5, p-1) = 1),
* 8 full rounds and a width-dependent number of partial rounds,
* round constants derived from SHA-256 in counter mode (nothing-up-my-sleeve),
* a Cauchy MDS matrix, which is provably maximally distance separating.

The exact constants differ from the circomlib reference vectors (those
derive constants from BLAKE2b); what matters for the reproduction is that
the permutation is a real Poseidon instance whose algebraic structure the
R1CS gadget reproduces *exactly*, constraint for constraint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.crypto.field import FIELD_MODULUS, FieldElement, batch_inverse
from repro.errors import CryptoError

#: Number of full rounds (S-box applied to the whole state).
FULL_ROUNDS = 8

#: Partial rounds per state width t (S-box applied to one lane).  Values
#: follow the Poseidon paper's recommendations for 128-bit security on a
#: ~254-bit field with alpha = 5.
PARTIAL_ROUNDS = {2: 56, 3: 57, 4: 56, 5: 60, 6: 60, 7: 63, 8: 64, 9: 63}

#: S-box exponent.
ALPHA = 5

_DOMAIN = b"repro-poseidon-bn254"


def _derive_constants(tag: bytes, count: int) -> list[FieldElement]:
    """Derive ``count`` field elements from SHA-256 in counter mode.

    Rejection-samples to avoid modular bias: digests >= p are skipped.  With
    p ~ 2^253.6 and digests of 256 bits the rejection rate is ~83%, which is
    fine for one-time parameter generation (results are cached per width).
    """
    out: list[FieldElement] = []
    counter = 0
    while len(out) < count:
        digest = hashlib.sha256(_DOMAIN + b"|" + tag + b"|" + counter.to_bytes(8, "big")).digest()
        value = int.from_bytes(digest, "big")
        counter += 1
        if value < FIELD_MODULUS:
            out.append(FieldElement(value))
    return out


def _cauchy_mds(t: int) -> list[list[FieldElement]]:
    """Build a t x t Cauchy matrix M[i][j] = 1 / (x_i + y_j).

    A Cauchy matrix over a prime field is always MDS provided the x_i are
    distinct, the y_j are distinct, and no x_i + y_j is zero; choosing
    x_i = i and y_j = t + j guarantees all three for small t.

    All t² entries are inverted through one Montgomery batch inversion —
    a single Fermat exponentiation plus 3(t²-1) multiplications instead
    of t² exponentiations.
    """
    xs = [FieldElement(i) for i in range(t)]
    ys = [FieldElement(t + j) for j in range(t)]
    inverses = batch_inverse([x + y for x in xs for y in ys])
    return [inverses[i * t : (i + 1) * t] for i in range(t)]


@dataclass(frozen=True)
class PoseidonParams:
    """All parameters of one Poseidon permutation instance.

    Exposed publicly so the R1CS gadget can replay the identical round
    structure inside the circuit.
    """

    t: int
    full_rounds: int
    partial_rounds: int
    round_constants: tuple[tuple[FieldElement, ...], ...]
    mds: tuple[tuple[FieldElement, ...], ...]

    @property
    def total_rounds(self) -> int:
        return self.full_rounds + self.partial_rounds


@lru_cache(maxsize=16)
def poseidon_params(t: int) -> PoseidonParams:
    """Return (and cache) the parameters for state width ``t``."""
    if t not in PARTIAL_ROUNDS:
        raise CryptoError(f"unsupported Poseidon width t={t}")
    partial = PARTIAL_ROUNDS[t]
    total = FULL_ROUNDS + partial
    flat = _derive_constants(b"rc-t%d" % t, total * t)
    constants = tuple(
        tuple(flat[r * t : (r + 1) * t]) for r in range(total)
    )
    mds = tuple(tuple(row) for row in _cauchy_mds(t))
    return PoseidonParams(
        t=t,
        full_rounds=FULL_ROUNDS,
        partial_rounds=partial,
        round_constants=constants,
        mds=mds,
    )


def _sbox(x: FieldElement) -> FieldElement:
    return x ** ALPHA


def poseidon_permutation(state: Sequence[FieldElement], params: PoseidonParams) -> list[FieldElement]:
    """Apply the Poseidon permutation to ``state`` (length must equal t).

    Round structure: R_F/2 full rounds, R_P partial rounds (S-box on lane 0
    only), R_F/2 full rounds.  Each round adds constants, applies the S-box
    layer, then multiplies by the MDS matrix.
    """
    t = params.t
    if len(state) != t:
        raise CryptoError(f"state width {len(state)} != t={t}")
    cells = [FieldElement(x) for x in state]
    half_full = params.full_rounds // 2
    total = params.total_rounds
    for round_index in range(total):
        constants = params.round_constants[round_index]
        cells = [cells[i] + constants[i] for i in range(t)]
        is_full = round_index < half_full or round_index >= total - half_full
        if is_full:
            cells = [_sbox(c) for c in cells]
        else:
            cells[0] = _sbox(cells[0])
        # MDS mix: matrix-vector product.
        mixed: list[FieldElement] = []
        for row in params.mds:
            acc = 0
            for coeff, cell in zip(row, cells):
                acc += coeff.value * cell.value
            mixed.append(FieldElement(acc))
        cells = mixed
    return cells


def poseidon_hash(inputs: Sequence[FieldElement | int]) -> FieldElement:
    """Hash 1..8 field elements to one field element.

    Uses the fixed-length sponge convention of circomlib: the state is
    ``[capacity, input_1, ..., input_n]`` with the capacity lane initialised
    to the input length (domain separation between arities), one permutation
    call, output is lane 0.
    """
    n = len(inputs)
    if not 1 <= n <= 8:
        raise CryptoError(f"poseidon_hash supports 1..8 inputs, got {n}")
    params = poseidon_params(n + 1)
    state = [FieldElement(n)] + [FieldElement(x) for x in inputs]
    return poseidon_permutation(state, params)[0]

