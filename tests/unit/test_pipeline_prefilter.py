"""Unit tests for pipeline stage 1: the stateless gates."""

import pytest

from repro.crypto.field import FieldElement
from repro.core.messages import RateLimitProof
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


@pytest.fixture()
def prefilter() -> Prefilter:
    return Prefilter(max_epoch_gap=2, max_payload_bytes=64)


class TestGates:
    def test_well_formed_bundle_passes(self, prefilter):
        assert prefilter.check(fake_message(), EPOCH) is PrefilterOutcome.PASS
        assert prefilter.stats.passed == 1

    def test_non_waku_message_malformed(self, prefilter):
        assert prefilter.check(object(), EPOCH) is PrefilterOutcome.MALFORMED

    def test_non_bytes_payload_malformed(self, prefilter):
        bad = WakuMessage.__new__(WakuMessage)
        object.__setattr__(bad, "payload", "not-bytes")
        object.__setattr__(bad, "content_topic", "t")
        object.__setattr__(bad, "rate_limit_proof", None)
        assert prefilter.check(bad, EPOCH) is PrefilterOutcome.MALFORMED

    def test_missing_proof_dropped(self, prefilter):
        bare = WakuMessage(payload=b"x", content_topic="t")
        assert prefilter.check(bare, EPOCH) is PrefilterOutcome.MISSING_PROOF

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
