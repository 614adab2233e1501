"""RLN identity keys and per-epoch derivations.

An identity (§II-B) is a secret field element ``sk`` (the *identity key*)
and its Poseidon image ``pk = H(sk)`` (the *identity commitment*).  The
commitment is what the membership contract stores and what appears as a
Merkle leaf; the key never leaves the member's device — unless the member
double-signals, in which case the shares it published reveal it.

Per-epoch values (all from §II-B):

* slope        ``a1  = H(sk, external_nullifier)``
* share        ``(x, y)`` with ``x = H(m)`` and ``y = sk + a1 * x``
* internal nullifier ``phi = H(a1)``

The internal nullifier is what routing peers index their nullifier map by:
it is stable for one (member, epoch) pair but unlinkable across epochs and
across members.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.engine import default_engine
from repro.crypto.field import FieldElement
from repro.crypto.shamir import Share, rln_share
from repro.errors import IdentityError


def derive_commitment(sk: FieldElement) -> FieldElement:
    """pk = H(sk)."""
    return default_engine().hash([sk])


def derive_slope(
    sk: FieldElement, external_nullifier: FieldElement, message_id: int | None = None
) -> FieldElement:
    """a1 = H(sk, external_nullifier) — the epoch-bound line slope.

    RLN-v2 binds a private ``message_id`` in as a third input,
    a1 = H(sk, external_nullifier, message_id): distinct ids give
    unlinkable slopes (and nullifiers), a reused id is the same line.
    """
    if message_id is None:
        return default_engine().hash([sk, external_nullifier])
    return default_engine().hash([sk, external_nullifier, FieldElement(message_id)])


def derive_internal_nullifier(slope: FieldElement) -> FieldElement:
    """phi = H(a1) = H(H(sk, external_nullifier))."""
    return default_engine().hash([slope])


@dataclass(frozen=True)
class EpochSecrets:
    """Everything an identity derives for one external nullifier."""

    external_nullifier: FieldElement
    slope: FieldElement
    internal_nullifier: FieldElement


@dataclass(frozen=True)
class Identity:
    """An RLN member identity: secret key plus cached commitment.

    Construct with :meth:`generate` (random) or :meth:`from_secret`
    (deterministic, for tests).  ``H(sk)`` is computed once and kept as
    ``_commitment``: what ``pk`` was checked against and what the prover
    compares a leaf with (``object.__setattr__`` can overwrite a field).
    """

    sk: FieldElement
    pk: FieldElement

    @classmethod
    def generate(cls) -> "Identity":
        return cls.from_secret(FieldElement.random())

    @classmethod
    def from_secret(cls, sk: FieldElement | int) -> "Identity":
        sk = FieldElement(sk)
        if not sk:
            raise IdentityError("secret key must be nonzero")
        # ``pk`` *is* the derivation here: nothing for ``__post_init__`` to
        # check, so the instance is built around the one hash.
        pk = derive_commitment(sk)
        identity = object.__new__(cls)
        identity.__dict__.update(sk=sk, pk=pk, _commitment=pk)
        return identity

    def __post_init__(self) -> None:
        commitment = derive_commitment(self.sk)
        if commitment != self.pk:
            raise IdentityError("commitment does not match secret key")
        object.__setattr__(self, "_commitment", commitment)

    # -- per-epoch derivations ------------------------------------------------

    def epoch_secrets(
        self, external_nullifier: FieldElement, message_id: int | None = None
    ) -> EpochSecrets:
        """The last answer is remembered on the (frozen) instance: a publish
        derives it for the bundle, the prover asks again to check the
        statement, and a double-signal asks for the same line."""
        key = (external_nullifier.value, message_id)
        last = self.__dict__.get("_last_secrets")
        if last is None or last[0] != key:
            slope = derive_slope(self.sk, external_nullifier, message_id)
            secrets = EpochSecrets(
                external_nullifier=external_nullifier,
                slope=slope,
                internal_nullifier=derive_internal_nullifier(slope),
            )
            last = (key, secrets)
            object.__setattr__(self, "_last_secrets", last)
        return last[1]

    def share_for(self, external_nullifier: FieldElement, x: FieldElement) -> Share:
        """The share (x, y) attached to a message with hash ``x`` (§II-B)."""
        return rln_share(self.sk, self.epoch_secrets(external_nullifier).slope, x)

    # -- serialization ----------------------------------------------------------

    def export_secret(self) -> bytes:
        """32-byte secret key encoding (the paper's 32 B sk, §IV)."""
        return self.sk.to_bytes()

    def export_commitment(self) -> bytes:
        """32-byte identity commitment encoding (the paper's 32 B pk)."""
        return self.pk.to_bytes()

    @classmethod
    def from_secret_bytes(cls, data: bytes) -> "Identity":
        return cls.from_secret(FieldElement.from_bytes(data))
