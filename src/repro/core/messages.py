"""The rate-limit proof bundle attached to every published message (§III-E).

A publishing peer sends ``(m, (x, y), phi, epoch, tau, pi)``:

* ``m``     — the Waku message payload,
* ``(x, y)`` — its share of the peer's identity secret key,
* ``phi``   — the internal nullifier,
* ``epoch`` — the external nullifier,
* ``tau``   — the identity-commitment tree root the proof was made against,
* ``pi``    — the zkSNARK proof.

:class:`RateLimitProof` carries everything except ``m`` (which rides in the
enclosing :class:`repro.waku.message.WakuMessage`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.codec import Reader, Wire, Writer, memo_slots
from repro.crypto.field import FIELD_BYTES, FieldElement
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.shamir import Share
from repro.zksnark.groth16 import PROOF_SIZE, Proof
from repro.zksnark.rln_circuit import RLNPublicInputs
from repro.core.epoch import external_nullifier


@dataclass(frozen=True, slots=True)
class RateLimitProof(Wire, memo_slots("_share", "_public", "_payload_match", "_verdict_key")):
    """§III-E metadata: share, nullifier, epoch, root, and the proof.

    One bundle object is judged by every peer it reaches, so it remembers
    what it derives — ``share``, ``public_inputs()``, the last
    ``matches_payload`` answer and (see
    :func:`~repro.pipeline.batch_verifier.verdict_key`) its verdict-cache
    key — in declared slots; it has no ``__dict__``.  The memos are not
    fields: ``==`` and ``hash`` ignore them and ``dataclasses.replace``
    (so :meth:`forged_copy`) starts clean.
    """

    share_x: FieldElement
    share_y: FieldElement
    internal_nullifier: FieldElement
    epoch: int
    root: FieldElement
    proof: Proof

    def _write(self, w: Writer) -> None:
        w.field(self.share_x)
        w.field(self.share_y)
        w.field(self.internal_nullifier)
        w.pack(">Q", self.epoch)
        w.field(self.root)
        w.raw(self.proof.serialize())

    @classmethod
    def _read(cls, r: Reader) -> "RateLimitProof":
        fields = r.field(), r.field(), r.field(), r.unpack(">Q")[0], r.field()
        return cls(*fields, Proof.deserialize(r.raw(PROOF_SIZE)))

    @property
    def share(self) -> Share:
        share = getattr(self, "_share", None)
        if share is None:
            share = Share(x=self.share_x, y=self.share_y)
            object.__setattr__(self, "_share", share)
        return share

    def public_inputs(self) -> RLNPublicInputs:
        """Reassemble the zkSNARK statement this bundle claims."""
        public = getattr(self, "_public", None)
        if public is None:
            public = RLNPublicInputs(
                x=self.share_x,
                external_nullifier=external_nullifier(self.epoch),
                y=self.share_y,
                internal_nullifier=self.internal_nullifier,
                root=self.root,
            )
            object.__setattr__(self, "_public", public)
        return public

    def matches_payload(self, payload: bytes) -> bool:
        """True iff ``x`` really is the hash of ``payload``.

        Binding the proof to the payload is what stops an adversary from
        replaying someone else's valid proof on a different message.  The
        last ``(payload, answer)`` pair is remembered: a relayed bundle is
        asked about the same payload by every receiver.
        """
        last = getattr(self, "_payload_match", None)
        if last is not None and last[0] == payload:
            return last[1]
        matches = hash_message_to_field(payload) == self.share_x
        # A copy, so a bytearray changed after the call cannot match stale.
        object.__setattr__(self, "_payload_match", (bytes(payload), matches))
        return matches

    def byte_size(self) -> int:
        """Wire size: 4 field elements + 8-byte epoch + 128-byte proof."""
        return 4 * FIELD_BYTES + 8 + PROOF_SIZE

    def forged_copy(
        self, *, epoch_shift: int = 0, proof: Proof | None = None
    ) -> "RateLimitProof":
        """An adversarial variation of this bundle for attack modelling.

        Same statement fields, an optionally shifted epoch, and (by
        default) a garbage proof — the shapes the invalid-proof-flood
        experiments (E10/E11) and the §III-F tests throw at a routing
        peer's ingress pipeline.
        """
        return replace(
            self,
            epoch=self.epoch + epoch_shift,
            proof=proof
            if proof is not None
            else Proof(a=bytes(32), b=bytes(64), c=bytes(32)),
        )
