"""Unit tests for the binary wire format."""

import pytest

from repro.core.messages import RateLimitProof
from repro.core.wire import PROOF_SECTION_SIZE, decode_message, encode_message
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.errors import ProtocolError
from repro.waku.message import WakuMessage
from repro.zksnark.prover import NativeProver
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

DEPTH = 6


@pytest.fixture(scope="module")
def wire_prover() -> NativeProver:
    return NativeProver(DEPTH)


@pytest.fixture(scope="module")
def proved_message(wire_prover) -> WakuMessage:
    prover = wire_prover
    identity = Identity.from_secret(123)
    tree = MerkleTree(depth=DEPTH)
    index = tree.insert(identity.pk)
    public = RLNPublicInputs.for_message(identity, b"wire", FieldElement(9), tree.root)
    witness = RLNWitness(identity=identity, merkle_proof=tree.proof(index))
    proof = prover.prove(public, witness)
    bundle = RateLimitProof(
        share_x=public.x,
        share_y=public.y,
        internal_nullifier=public.internal_nullifier,
        epoch=9,
        root=tree.root,
        proof=proof,
    )
    return WakuMessage(
        payload=b"wire",
        content_topic="/rln/1/chat/proto",
        timestamp=123.456,
        rate_limit_proof=bundle,
    )


class TestRoundtrip:
    def test_bare_message(self):
        message = WakuMessage(payload=b"plain", content_topic="t", timestamp=1.0)
        decoded = decode_message(encode_message(message))
        assert decoded.payload == b"plain"
        assert decoded.content_topic == "t"
        assert decoded.timestamp == pytest.approx(1.0, abs=1e-3)
        assert decoded.rate_limit_proof is None

    def test_ephemeral_flag(self):
        message = WakuMessage(payload=b"x", content_topic="t", ephemeral=True)
        assert decode_message(encode_message(message)).ephemeral

    def test_empty_payload(self):
        message = WakuMessage(payload=b"", content_topic="t")
        assert decode_message(encode_message(message)).payload == b""

    def test_unicode_topic(self):
        message = WakuMessage(payload=b"x", content_topic="/комната/1")
        assert decode_message(encode_message(message)).content_topic == "/комната/1"

    def test_proved_message_roundtrip(self, proved_message):
        decoded = decode_message(encode_message(proved_message))
        original = proved_message.rate_limit_proof
        restored = decoded.rate_limit_proof
        assert restored.share_x == original.share_x
        assert restored.share_y == original.share_y
        assert restored.internal_nullifier == original.internal_nullifier
        assert restored.epoch == original.epoch
        assert restored.root == original.root
        assert restored.proof == original.proof

    def test_decoded_proof_still_verifies(self, proved_message, wire_prover):
        prover = wire_prover  # same trusted setup as the proving side
        decoded = decode_message(encode_message(proved_message))
        bundle = decoded.rate_limit_proof
        assert bundle.matches_payload(decoded.payload)
        assert prover.verify(bundle.public_inputs(), bundle.proof)

    def test_proof_section_is_fixed_size(self, proved_message):
        bare = WakuMessage(
            payload=proved_message.payload,
            content_topic=proved_message.content_topic,
            timestamp=proved_message.timestamp,
        )
        overhead = len(encode_message(proved_message)) - len(encode_message(bare))
        assert overhead == PROOF_SECTION_SIZE == 264


class TestMalformedInput:
    def test_truncated_payload(self):
        encoded = encode_message(WakuMessage(payload=b"abcdef", content_topic="t"))
        with pytest.raises(ProtocolError):
            decode_message(encoded[:8])

    def test_truncated_proof(self, proved_message):
        encoded = encode_message(proved_message)
        with pytest.raises(ProtocolError):
            decode_message(encoded[:-10])

    def test_trailing_garbage(self):
        encoded = encode_message(WakuMessage(payload=b"x", content_topic="t"))
        with pytest.raises(ProtocolError):
            decode_message(encoded + b"!!")

    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["share_x", "share_y", "nullifier"])
    def test_non_canonical_field_element(self, proved_message, slot):
        """``value + p`` is not a second spelling of ``value``: it used to
        decode, silently reduced, to the same bundle (2p < 2**256, so the
        alias always fits the 32 bytes)."""
        encoded = encode_message(proved_message)
        start = len(encoded) - PROOF_SECTION_SIZE + 32 * slot
        value = int.from_bytes(encoded[start : start + 32], "big")
        aliased = (value + FIELD_MODULUS).to_bytes(32, "big")
        with pytest.raises(ProtocolError):
            decode_message(encoded[:start] + aliased + encoded[start + 32 :])

    def test_bad_version(self):
        encoded = bytearray(encode_message(WakuMessage(payload=b"x", content_topic="t")))
        encoded[1] = 99
        with pytest.raises(ProtocolError):
            decode_message(bytes(encoded))

    def test_empty_input(self):
        with pytest.raises(ProtocolError):
            decode_message(b"")

    def test_non_bundle_proof_rejected_at_encode(self):
        message = WakuMessage(payload=b"x", content_topic="t", rate_limit_proof="junk")
        with pytest.raises(ProtocolError):
            encode_message(message)
