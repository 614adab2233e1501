"""Unit tests for pipeline stage 1: the stateless gates."""

import pytest

from repro.baselines.pow import PoWStamp
from repro.crypto.field import FieldElement
from repro.core.messages import RateLimitProof
from repro.gossipsub.messages import PubSubMessage
from repro.pipeline.prefilter import Prefilter, PrefilterOutcome
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Proof

EPOCH = 54_827_003


def fake_message(payload: bytes = b"hello", epoch: int = EPOCH) -> WakuMessage:
    """A framed bundle; the prefilter never inspects proof validity."""
    bundle = RateLimitProof(
        share_x=FieldElement(1),
        share_y=FieldElement(2),
        internal_nullifier=FieldElement(3),
        epoch=epoch,
        root=FieldElement(4),
        proof=Proof(a=bytes(32), b=bytes(64), c=bytes(32)),
    )
    return WakuMessage(payload=payload, content_topic="t", rate_limit_proof=bundle)


def derived_id(payload: object) -> bytes:
    """The id a receiving router derives; hostile payloads must not raise."""
    msg_id = PubSubMessage(topic="/waku/2/test", payload=payload).msg_id
    assert len(msg_id) == 32
    return msg_id


@pytest.fixture()
def prefilter() -> Prefilter:
    return Prefilter(max_epoch_gap=2, max_payload_bytes=64)


class TestGates:
    def test_well_formed_bundle_passes(self, prefilter):
        assert prefilter.check(fake_message(), EPOCH) is PrefilterOutcome.PASS
        assert prefilter.stats.passed == 1

    def test_non_waku_message_malformed(self, prefilter):
        assert prefilter.check(object(), EPOCH) is PrefilterOutcome.MALFORMED
        # Each also gets an id, none of them an honest bytes payload's.
        for payload in (object(), "hello", memoryview(b"hello"), 7, None, [b"hello"]):
            assert prefilter.check(payload, EPOCH) is PrefilterOutcome.MALFORMED
            assert derived_id(payload) != derived_id(b"hello")

    def test_non_bytes_payload_malformed(self, prefilter):
        bad = WakuMessage.__new__(WakuMessage)
        object.__setattr__(bad, "payload", "not-bytes")
        object.__setattr__(bad, "content_topic", "t")
        object.__setattr__(bad, "rate_limit_proof", None)
        assert prefilter.check(bad, EPOCH) is PrefilterOutcome.MALFORMED
        good = WakuMessage(payload=b"not-bytes", content_topic="t")
        assert derived_id(bad) != derived_id(good)

    def test_missing_proof_dropped(self, prefilter):
        bare = WakuMessage(payload=b"x", content_topic="t")
        assert prefilter.check(bare, EPOCH) is PrefilterOutcome.MISSING_PROOF
        # A bundle that is no RLN bundle adds nothing to the id.
        for bundle in (PoWStamp(nonce=1, difficulty=8), object(), "proof"):
            stamped = bare.with_proof(bundle)
            assert prefilter.check(stamped, EPOCH) is PrefilterOutcome.MISSING_PROOF
            assert derived_id(stamped) == derived_id(bare)

    def test_oversized_payload_dropped_before_epoch_check(self, prefilter):
        # 65 bytes > the 64-byte ceiling; the stale epoch must not matter,
        # the size gate fires first (per-byte work is what it protects).
        big = fake_message(payload=b"x" * 65, epoch=EPOCH - 100)
        assert prefilter.check(big, EPOCH) is PrefilterOutcome.TOO_LARGE

    def test_epoch_window_both_directions(self, prefilter):
        past = fake_message(epoch=EPOCH - 3)
        future = fake_message(epoch=EPOCH + 3)
        edge = fake_message(epoch=EPOCH - 2)
        assert prefilter.check(past, EPOCH) is PrefilterOutcome.STALE_EPOCH
        assert prefilter.check(future, EPOCH) is PrefilterOutcome.STALE_EPOCH
        assert prefilter.check(edge, EPOCH) is PrefilterOutcome.PASS
        # Epochs no u64 carries: the bundle does not encode, yet gets an id.
        for epoch in (-1, 1 << 64):
            assert prefilter.check(fake_message(epoch=epoch), EPOCH) is PrefilterOutcome.STALE_EPOCH
            assert derived_id(fake_message(epoch=epoch)) != derived_id(fake_message())

    def test_gates_keep_no_per_message_state(self, prefilter):
        # Repeated ids are the router's seen-cache's business: the same
        # bundle passes the gates every time it is checked.
        message = fake_message()
        assert prefilter.check(message, EPOCH) is PrefilterOutcome.PASS
        assert prefilter.check(message, EPOCH) is PrefilterOutcome.PASS
        assert prefilter.stats.passed == 2

    def test_stats_per_gate(self, prefilter):
        prefilter.check(fake_message(), EPOCH)
        prefilter.check(fake_message(epoch=EPOCH - 9), EPOCH)
        prefilter.check(WakuMessage(payload=b"", content_topic="t"), EPOCH)
        stats = prefilter.stats
        assert stats.passed == 1
        assert stats.counts[PrefilterOutcome.STALE_EPOCH.slot] == 1
        assert stats.counts[PrefilterOutcome.MISSING_PROOF.slot] == 1
        assert stats.total_dropped() == 2
