"""The RLN circuit: the exact zkSNARK statement of §II-B.

Public inputs (the metadata attached to every message bundle):

* ``x``                  — hash of the message being published,
* ``external_nullifier`` — the epoch,
* ``y``                  — the second coordinate of the identity-key share,
* ``internal_nullifier`` — phi = H(H(sk, epoch)),
* ``root``               — the identity-commitment tree root tau.

Private inputs (known only to the publisher):

* ``sk``        — the identity secret key,
* ``path_bits`` — the leaf index of pk in the tree, bit-decomposed,
* ``siblings``  — the authentication path ``auth``.

Constraints (the three conditions the paper lists):

1. membership — ``MerkleFold(H(sk), path_bits, siblings) = root``,
2. share validity — ``y = sk + H(sk, external_nullifier) * x``,
3. nullifier correctness — ``internal_nullifier = H(H(sk, external_nullifier))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.field import FieldElement
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleProof
from repro.crypto.shamir import rln_share
from repro.errors import ProvingError, SnarkError
from repro.zksnark.gadgets import (
    merkle_path_gadget,
    poseidon_hash_gadget,
    rln_share_gadget,
)
from repro.zksnark.r1cs import ConstraintSystem, LinearCombination

LC = LinearCombination

#: Order of the public-input block (fixed; verifiers depend on it).
PUBLIC_INPUT_ORDER = ("x", "external_nullifier", "y", "internal_nullifier", "root")


@dataclass(frozen=True)
class RLNPublicInputs:
    """The statement a rate-limit proof attests to (§II-B public inputs)."""

    x: FieldElement
    external_nullifier: FieldElement
    y: FieldElement
    internal_nullifier: FieldElement
    root: FieldElement

    def as_list(self) -> list[FieldElement]:
        return [getattr(self, name) for name in PUBLIC_INPUT_ORDER]

    def serialize(self) -> bytes:
        # Memoized: the ingress pipeline serializes the same statement for
        # the verdict-cache key and again inside the pairing check.
        cached = self.__dict__.get("_serialized")
        if cached is None:
            cached = b"".join(value.to_bytes() for value in self.as_list())
            object.__setattr__(self, "_serialized", cached)
        return cached

    @classmethod
    def for_message(
        cls,
        identity: Identity,
        payload: bytes,
        external_nullifier: FieldElement,
        root: FieldElement,
    ) -> "RLNPublicInputs":
        """Derive the honest public inputs for a payload (native fast path)."""
        x = hash_message_to_field(payload)
        secrets = identity.epoch_secrets(external_nullifier)
        return cls(
            x=x,
            external_nullifier=external_nullifier,
            y=rln_share(identity.sk, secrets.slope, x).y,
            internal_nullifier=secrets.internal_nullifier,
            root=root,
        )


@dataclass(frozen=True)
class RLNWitness:
    """The private inputs: identity key and Merkle authentication path."""

    identity: Identity
    merkle_proof: MerkleProof

    def __post_init__(self) -> None:
        if self.merkle_proof.leaf != self.identity.pk:
            raise ProvingError(
                "merkle proof leaf is not the identity commitment of sk"
            )


def synthesize(
    depth: int,
    public: RLNPublicInputs | None = None,
    witness: RLNWitness | None = None,
) -> ConstraintSystem:
    """Compile the RLN circuit for a tree of ``depth`` levels.

    With ``public`` and ``witness`` given, the returned system carries a
    full assignment (compile + witness generation in one pass); without
    them it is purely symbolic, which is what setup-time key generation
    uses to learn the circuit shape.
    """
    if witness is not None and witness.merkle_proof.depth != depth:
        raise ProvingError(
            f"witness path depth {witness.merkle_proof.depth} != circuit depth {depth}"
        )
    cs = ConstraintSystem()

    # -- public block (order is part of the verification key) ---------------
    public_values = public.as_list() if public else [None] * len(PUBLIC_INPUT_ORDER)
    public_lcs = {
        name: LC.variable(cs.allocate_public(value))
        for name, value in zip(PUBLIC_INPUT_ORDER, public_values)
    }

    # -- private block -------------------------------------------------------
    sk_var = cs.allocate(witness.identity.sk if witness else None)
    sk = LC.variable(sk_var)
    bits: list[LC] = []
    siblings: list[LC] = []
    for level in range(depth):
        bit_value = (
            FieldElement(witness.merkle_proof.path_bits[level]) if witness else None
        )
        sibling_value = witness.merkle_proof.siblings[level] if witness else None
        bits.append(LC.variable(cs.allocate(bit_value)))
        siblings.append(LC.variable(cs.allocate(sibling_value)))

    # -- constraint 1: membership ---------------------------------------------
    pk = poseidon_hash_gadget(cs, [sk], "pk")
    computed_root = merkle_path_gadget(cs, pk, bits, siblings, "merkle")
    cs.enforce_equal(computed_root, public_lcs["root"], "membership: root match")

    # -- constraint 2: share validity ------------------------------------------
    a1 = poseidon_hash_gadget(cs, [sk, public_lcs["external_nullifier"]], "a1")
    y = rln_share_gadget(cs, sk, a1, public_lcs["x"], "share")
    cs.enforce_equal(y, public_lcs["y"], "share validity: y match")

    # -- constraint 3: nullifier correctness -------------------------------------
    phi = poseidon_hash_gadget(cs, [a1], "phi")
    cs.enforce_equal(
        phi, public_lcs["internal_nullifier"], "nullifier correctness: phi match"
    )
    return cs


@dataclass(frozen=True)
class CircuitShape:
    """Static facts about the compiled circuit, used for key generation."""

    depth: int
    num_constraints: int
    num_variables: int
    num_public: int


@lru_cache(maxsize=8)
def circuit_shape(depth: int) -> CircuitShape:
    """Shape of the depth-``depth`` RLN circuit (cached; symbolic compile)."""
    if not 1 <= depth <= 32:
        raise SnarkError(f"depth must be in [1, 32], got {depth}")
    cs = synthesize(depth)
    return CircuitShape(
        depth=depth,
        num_constraints=cs.num_constraints,
        num_variables=cs.num_variables,
        num_public=cs.num_public,
    )
