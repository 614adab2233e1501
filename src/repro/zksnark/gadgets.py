"""R1CS gadgets: Poseidon, Merkle-path verification, and RLN share algebra.

A gadget takes symbolic :class:`LinearCombination` inputs, emits the
constraints that define one sub-computation, and returns symbolic outputs.
When the constraint system carries a witness assignment, gadgets also assign
concrete values as they go, so circuit compilation and witness generation
happen in one pass (the style of bellman/arkworks synthesizers).

The Poseidon gadget replays :func:`repro.crypto.poseidon.poseidon_permutation`
*exactly*: same round constants, same MDS matrix, same round schedule.  Tests
cross-check gadget outputs against the native hash on random inputs, which
pins the circuit to the out-of-circuit cryptography.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.engine import default_engine
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.poseidon import ALPHA, PoseidonParams, poseidon_params
from repro.errors import SnarkError
from repro.zksnark.r1cs import ConstraintSystem, LinearCombination

LC = LinearCombination


def sbox_gadget(cs: ConstraintSystem, x: LC, tag: str, value: int | None = None) -> LC:
    """x^5 via two squarings and a final multiply: 3 constraints.

    ``value`` is the concrete integer value of ``x`` when the caller has
    already evaluated the permutation natively; the three intermediate
    witness values are then assigned directly instead of re-evaluating the
    (wide, post-MDS) linear combinations symbolically.
    """
    if ALPHA != 5:
        raise SnarkError("sbox_gadget is specialised to alpha = 5")
    if value is None:
        x2 = cs.multiply(x, x, f"{tag}:x2")
        x4 = cs.multiply(x2, x2, f"{tag}:x4")
        return cs.multiply(x4, x, f"{tag}:x5")
    v2 = value * value % FIELD_MODULUS
    v4 = v2 * v2 % FIELD_MODULUS
    x2 = cs.multiply(x, x, f"{tag}:x2", value=FieldElement(v2))
    x4 = cs.multiply(x2, x2, f"{tag}:x4", value=FieldElement(v4))
    return cs.multiply(
        x4, x, f"{tag}:x5", value=FieldElement(v4 * value % FIELD_MODULUS)
    )


def _mds_mix(state: list[LC], params: PoseidonParams) -> list[LC]:
    """Linear layer — free in R1CS, folded into the LCs."""
    mixed: list[LC] = []
    for row in params.mds:
        acc = LC()
        for coeff, lane in zip(row, state):
            acc = acc + lane * coeff
        mixed.append(acc)
    return mixed


def _concrete_rounds(
    inputs: list[int], tables: tuple, t: int
) -> list[list[int]]:
    """Post-constant lane values for every round, reference schedule.

    ``result[r][i]`` is the integer value entering round ``r``'s S-box layer
    in lane ``i`` — exactly the values the symbolic gadget would recover by
    evaluating its linear combinations, computed here with the engine's
    plain-int tables instead.
    """
    rc, mds, half_full, total = tables
    p = FIELD_MODULUS
    state = list(inputs)
    rounds: list[list[int]] = []
    for r in range(total):
        constants = rc[r]
        state = [(state[i] + constants[i]) % p for i in range(t)]
        rounds.append(list(state))
        if r < half_full or r >= total - half_full:
            state = [pow(x, 5, p) for x in state]
        else:
            state[0] = pow(state[0], 5, p)
        state = [
            sum(row[j] * state[j] for j in range(t)) % p for row in mds
        ]
    return rounds


def poseidon_permutation_gadget(
    cs: ConstraintSystem, state: Sequence[LC], params: PoseidonParams, tag: str
) -> list[LC]:
    """Constrain one Poseidon permutation; returns the output state LCs.

    When the inputs carry concrete assignments, the whole permutation's
    witness values are computed natively up front from the engine's integer
    tables (one int pipeline instead of re-evaluating every post-MDS linear
    combination three times per S-box).
    """
    t = params.t
    if len(state) != t:
        raise SnarkError(f"state width {len(state)} != t={t}")
    lanes = list(state)
    half_full = params.full_rounds // 2
    total = params.total_rounds
    try:
        inputs = [cs.value_of(lane).value for lane in state]
    except SnarkError:
        concrete = None
    else:
        concrete = _concrete_rounds(inputs, default_engine().int_params(t), t)
    for round_index in range(total):
        constants = params.round_constants[round_index]
        lanes = [lanes[i] + LC.constant(constants[i]) for i in range(t)]
        is_full = round_index < half_full or round_index >= total - half_full
        row = concrete[round_index] if concrete is not None else None
        if is_full:
            lanes = [
                sbox_gadget(
                    cs,
                    lane,
                    f"{tag}:r{round_index}l{i}",
                    value=row[i] if row is not None else None,
                )
                for i, lane in enumerate(lanes)
            ]
        else:
            lanes[0] = sbox_gadget(
                cs,
                lanes[0],
                f"{tag}:r{round_index}l0",
                value=row[0] if row is not None else None,
            )
        lanes = _mds_mix(lanes, params)
    return lanes


def poseidon_hash_gadget(cs: ConstraintSystem, inputs: Sequence[LC], tag: str) -> LC:
    """Constrain ``poseidon_hash(inputs)``; returns the digest LC.

    Mirrors the sponge convention of the native implementation: capacity
    lane initialised to the input arity.
    """
    n = len(inputs)
    params = poseidon_params(n + 1)
    state = [LC.constant(n)] + list(inputs)
    return poseidon_permutation_gadget(cs, state, params, tag)[0]


def conditional_swap_gadget(
    cs: ConstraintSystem, left: LC, right: LC, bit: LC, tag: str
) -> tuple[LC, LC]:
    """Return (left, right) if bit = 0, (right, left) if bit = 1.

    One multiplication constraint: delta = bit * (right - left), then
    out_l = left + delta and out_r = right - delta.  The bit must already be
    boolean-constrained by the caller.
    """
    delta = cs.multiply(bit, right - left, f"{tag}:swap")
    return left + delta, right - delta


def merkle_path_gadget(
    cs: ConstraintSystem,
    leaf: LC,
    path_bits: Sequence[LC],
    siblings: Sequence[LC],
    tag: str,
) -> LC:
    """Fold an authentication path upward; returns the root LC.

    ``path_bits[i] = 1`` means the running node is the *right* child at
    level i (same convention as :class:`repro.crypto.merkle.MerkleProof`).
    Each level costs one boolean constraint, one swap constraint, and one
    Poseidon permutation.
    """
    if len(path_bits) != len(siblings):
        raise SnarkError("path_bits and siblings must have equal length")
    node = leaf
    for level, (bit, sibling) in enumerate(zip(path_bits, siblings)):
        cs.enforce_boolean(bit, f"{tag}:bit{level}")
        left, right = conditional_swap_gadget(cs, node, sibling, bit, f"{tag}:lvl{level}")
        node = poseidon_hash_gadget(cs, [left, right], f"{tag}:hash{level}")
    return node


def rln_share_gadget(cs: ConstraintSystem, sk: LC, a1: LC, x: LC, tag: str) -> LC:
    """Constrain y = sk + a1 * x; returns the y LC."""
    product = cs.multiply(a1, x, f"{tag}:a1x")
    return sk + product


def bit_decompose_gadget(cs: ConstraintSystem, value: LC, bit_count: int, tag: str) -> list[LC]:
    """Constrain ``value`` to equal its ``bit_count``-bit decomposition.

    Allocates one boolean variable per bit (little-endian) and enforces
    ``sum(bit_i * 2^i) = value``; proves 0 <= value < 2^bit_count.
    """
    try:
        concrete = cs.value_of(value).value
    except SnarkError:
        concrete = None
    bits: list[LC] = []
    acc = LC()
    for i in range(bit_count):
        bit_value = (
            FieldElement((concrete >> i) & 1) if concrete is not None else None
        )
        bit = LC.variable(cs.allocate(bit_value))
        cs.enforce_boolean(bit, f"{tag}:bit{i}")
        bits.append(bit)
        acc = acc + bit * (1 << i)
    cs.enforce_equal(acc, value, f"{tag}:recompose")
    return bits


def enforce_less_than_constant(
    cs: ConstraintSystem, value: LC, bound: int, bit_count: int, tag: str
) -> None:
    """Constrain ``0 <= value < bound`` for a public constant ``bound``.

    Standard range-check pair: both ``value`` and ``bound - 1 - value``
    must fit in ``bit_count`` bits (requires ``bound <= 2^bit_count``,
    which the caller guarantees).  Used by the RLN-v2 circuit to prove
    ``message_id < message_limit`` without revealing the id.
    """
    if bound < 1 or bound > (1 << bit_count):
        raise SnarkError(f"bound {bound} not representable in {bit_count} bits")
    bit_decompose_gadget(cs, value, bit_count, f"{tag}:lo")
    bit_decompose_gadget(cs, LC.constant(bound - 1) - value, bit_count, f"{tag}:hi")
