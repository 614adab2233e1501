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

The paper fixes the rate at one message per epoch and suggests tuning the
epoch length to the application (§I, §III-D).  The scheme the Waku project
deployed later (RLN-v2) generalises this to a *message limit* N without
shrinking the epoch, and here it is the same builder with
``message_limit=N`` rather than a second circuit: the limit becomes a
sixth public input, the witness gains a private ``message_id``, the slope
binds it — ``a1 = H(sk, external_nullifier, message_id)`` — and two more
constraints pin the public limit to the circuit's and range-check
``0 <= message_id < N``.  Distinct ids give unlinkable nullifiers, so a
member can publish up to N messages per epoch; *reusing* an id is the
paper's situation exactly — two shares on one line — and reveals ``sk``.
``message_limit=None`` is the paper's statement, bit for bit.
Validator-side nothing changes (the nullifier map already keys by
nullifier).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.codec import memo_slots
from repro.crypto.field import FieldElement
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleProof
from repro.crypto.shamir import rln_share
from repro.errors import ProvingError, SnarkError
from repro.zksnark.gadgets import (
    enforce_less_than_constant,
    merkle_path_gadget,
    poseidon_hash_gadget,
    rln_share_gadget,
)
from repro.zksnark.r1cs import ConstraintCounter, ConstraintSystem, LinearCombination

LC = LinearCombination

#: Order of the public-input block (fixed; verifiers depend on it).  A
#: circuit with a message limit appends ``message_limit`` as a sixth input.
PUBLIC_INPUT_ORDER = ("x", "external_nullifier", "y", "internal_nullifier", "root")

#: Bits used for the message-id range check (limits up to 2^16 msgs/epoch).
MESSAGE_ID_BITS = 16


def message_id_in_range(message_id: int | None, message_limit: int | None) -> bool:
    """The paper's statement has neither; RLN-v2 needs ``0 <= id < limit``."""
    if message_limit is None:
        return message_id is None
    return message_id is not None and 0 <= message_id < message_limit


@dataclass(frozen=True, slots=True)
class RLNPublicInputs(memo_slots("_serialized")):
    """The statement a rate-limit proof attests to (§II-B public inputs).

    ``message_limit`` is the group-wide RLN-v2 parameter; ``None`` is the
    paper's one-message-per-epoch statement.
    """

    x: FieldElement
    external_nullifier: FieldElement
    y: FieldElement
    internal_nullifier: FieldElement
    root: FieldElement
    message_limit: int | None = None

    def as_list(self) -> list[FieldElement]:
        values = [getattr(self, name) for name in PUBLIC_INPUT_ORDER]
        if self.message_limit is not None:
            values.append(FieldElement(self.message_limit))
        return values

    def serialize(self) -> bytes:
        # Memoized: the ingress pipeline serializes the same statement for
        # the verdict-cache key and again inside the pairing check.
        cached = getattr(self, "_serialized", None)
        if cached is None:
            cached = b"".join(value.to_bytes() for value in self.as_list())
            if self.message_limit is not None:
                cached = b"v2" + cached
            object.__setattr__(self, "_serialized", cached)
        return cached

    @classmethod
    def for_message(
        cls,
        identity: Identity,
        payload: bytes,
        external_nullifier: FieldElement,
        root: FieldElement,
        *,
        message_id: int | None = None,
        message_limit: int | None = None,
    ) -> "RLNPublicInputs":
        """Derive the honest public inputs for a payload (native fast path)."""
        if not message_id_in_range(message_id, message_limit):
            raise ProvingError(
                f"message_id {message_id} not spendable under limit {message_limit}"
            )
        x = hash_message_to_field(payload)
        secrets = identity.epoch_secrets(external_nullifier, message_id)
        return cls(
            x=x,
            external_nullifier=external_nullifier,
            y=rln_share(identity.sk, secrets.slope, x).y,
            internal_nullifier=secrets.internal_nullifier,
            root=root,
            message_limit=message_limit,
        )


@dataclass(frozen=True)
class RLNWitness:
    """The private inputs: identity key, Merkle authentication path and,
    under a message limit, the chosen message id."""

    identity: Identity
    merkle_proof: MerkleProof
    message_id: int | None = None

    def __post_init__(self) -> None:
        if self.merkle_proof.leaf != self.identity.pk:
            raise ProvingError(
                "merkle proof leaf is not the identity commitment of sk"
            )


def synthesize(
    depth: int,
    public: RLNPublicInputs | None = None,
    witness: RLNWitness | None = None,
    *,
    message_limit: int | None = None,
) -> ConstraintSystem:
    """Compile the RLN circuit for a tree of ``depth`` levels.

    With ``public`` and ``witness`` given, the returned system carries a
    full assignment (compile + witness generation in one pass); without
    them it is purely symbolic.  Either way every constraint is stored
    (:func:`circuit_shape` only counts them).  ``message_limit`` is a fixed
    circuit parameter (RLN-v2); ``None`` compiles the paper's circuit.
    """
    return _build(ConstraintSystem(), depth, public, witness, message_limit)


def _build(cs, depth, public, witness, message_limit) -> ConstraintSystem:
    """Emit the RLN circuit into ``cs``; :func:`synthesize`'s arguments."""
    limited = message_limit is not None
    if limited and not 1 <= message_limit <= (1 << MESSAGE_ID_BITS):
        raise SnarkError(f"message_limit must be in [1, 2^{MESSAGE_ID_BITS}]")
    if public is not None and public.message_limit != message_limit:
        raise ProvingError("public message_limit disagrees with circuit parameter")
    if witness is not None and witness.merkle_proof.depth != depth:
        raise ProvingError(
            f"witness path depth {witness.merkle_proof.depth} != circuit depth {depth}"
        )
    if witness is not None and (witness.message_id is not None) != limited:
        raise ProvingError("a message id is witnessed exactly when a limit is set")

    # -- public block (order is part of the verification key) ---------------
    names = PUBLIC_INPUT_ORDER + ("message_limit",) if limited else PUBLIC_INPUT_ORDER
    public_values = public.as_list() if public else [None] * len(names)
    public_lcs = {
        name: LC.variable(cs.allocate_public(value))
        for name, value in zip(names, public_values)
    }

    # -- private block -------------------------------------------------------
    sk = LC.variable(cs.allocate(witness.identity.sk if witness else None))
    slope_inputs = [sk, public_lcs["external_nullifier"]]
    if limited:
        message_id = LC.variable(
            cs.allocate(FieldElement(witness.message_id) if witness else None)
        )
        slope_inputs.append(message_id)
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

    # -- with a limit: 0 <= message_id < message_limit --------------------------
    # The public input must equal the circuit's fixed limit, so verifiers
    # reject proofs made for a laxer circuit.
    if limited:
        cs.enforce_equal(
            public_lcs["message_limit"], LC.constant(message_limit), "limit binding"
        )
        enforce_less_than_constant(
            cs, message_id, message_limit, MESSAGE_ID_BITS, "message-id-range"
        )

    # -- constraint 2: share validity ------------------------------------------
    a1 = poseidon_hash_gadget(cs, slope_inputs, "a1")
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


@lru_cache(maxsize=16)
def circuit_shape(depth: int, message_limit: int | None = None) -> CircuitShape:
    """Shape of the depth-``depth`` RLN circuit (cached): :func:`synthesize`'s
    builder run symbolically over a ``ConstraintCounter``, storing nothing."""
    if not 1 <= depth <= 32:
        raise SnarkError(f"depth must be in [1, 32], got {depth}")
    cs = _build(ConstraintCounter(), depth, None, None, message_limit)
    return CircuitShape(
        depth=depth,
        num_constraints=cs.num_constraints,
        num_variables=cs.num_variables,
        num_public=cs.num_public,
    )
