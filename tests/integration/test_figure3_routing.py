"""Figure 3: publishing, routing, and slashing decisions at routing peers.

Exercises each §III-F branch through the real network: epoch-gap drops,
invalid-proof drops limited to direct connections, duplicate-vs-spam
distinction, and slashing initiation.
"""

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.messages import RateLimitProof
from repro.core.validator import ValidationOutcome
from repro.net.clock import PeerClock
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Proof

DEPTH = 8


@pytest.fixture()
def deployment():
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=1, tree_depth=DEPTH)
    dep = RLNDeployment.create(peer_count=8, degree=4, seed=33, config=config)
    dep.register_all()
    dep.form_meshes(5.0)
    return dep


def outcome_total(dep, outcome: ValidationOutcome) -> int:
    return sum(p.validator.stats.count(outcome) for p in dep.peers.values())


class TestEpochGap:
    def test_past_epoch_message_dropped(self, deployment):
        dep = deployment
        tracker = DeliveryTracker(dep)
        # A peer whose clock is far behind produces out-of-window epochs.
        laggard = dep.peer("peer-002")
        laggard.clock = PeerClock(
            offset=-5 * dep.config.epoch_length, genesis_unix=dep.config.genesis_unix
        )
        laggard.publish(b"from the past", force=True)
        dep.run(3.0)
        assert tracker.delivery_count(b"from the past") == 1  # only its own app
        assert outcome_total(dep, ValidationOutcome.INVALID_EPOCH_GAP) >= 1

    def test_small_gap_tolerated(self, deployment):
        dep = deployment
        tracker = DeliveryTracker(dep)
        slightly_off = dep.peer("peer-003")
        slightly_off.clock = PeerClock(
            offset=-0.9 * dep.config.epoch_length,
            genesis_unix=dep.config.genesis_unix,
        )
        slightly_off.publish(b"slightly late")
        dep.run(3.0)
        assert tracker.delivery_count(b"slightly late") == 8


class TestInvalidProof:
    def test_invalid_proof_contained_to_direct_connections(self, deployment):
        # §IV: "the effect of their attack is limited to their direct
        # connections and will not impact the entire network".
        dep = deployment
        tracker = DeliveryTracker(dep)
        attacker = dep.peer("peer-004")
        epoch = attacker.current_epoch()
        honest = attacker._build_message(b"will corrupt", "t", epoch)
        bundle = honest.rate_limit_proof
        corrupted = WakuMessage(
            payload=b"will corrupt",
            content_topic="t",
            rate_limit_proof=RateLimitProof(
                share_x=bundle.share_x,
                share_y=bundle.share_y,
                internal_nullifier=bundle.internal_nullifier,
                epoch=bundle.epoch,
                root=bundle.root,
                proof=Proof(a=bytes(32), b=bytes(64), c=bytes(32)),
            ),
        )
        attacker.relay.publish(corrupted)
        dep.run(3.0)
        # Direct connections saw (and rejected) it; nobody beyond them did.
        neighbors = set(dep.network.neighbors("peer-004"))
        validators_hit = {
            name
            for name, peer in dep.peers.items()
            if peer.validator.stats.count(ValidationOutcome.INVALID_PROOF) > 0
        }
        assert validators_hit  # someone saw it
        assert validators_hit <= neighbors
        assert tracker.delivery_count(b"will corrupt") == 1  # attacker's own app


class TestDuplicateVsSpam:
    def test_duplicate_ignored_not_slashed(self, deployment):
        dep = deployment
        publisher = dep.peer("peer-001")
        message = publisher.publish(b"dup me")
        dep.run(2.0)
        # Re-inject the identical bundle from another peer: routing peers
        # treat it as a duplicate (same share), never spam.
        replayer = dep.peer("peer-005")
        replayer.relay.publish(message)
        dep.run(3.0)
        assert dep.total_spam_detected() == 0
        assert dep.contract.is_member(publisher.identity.pk)  # still a member

    def test_distinct_messages_same_epoch_slash(self, deployment):
        dep = deployment
        spammer = dep.peer("peer-006")
        spammer.publish(b"one", force=True)
        dep.run(2.0)
        spammer.publish(b"two", force=True)
        dep.run(2.0)
        assert outcome_total(dep, ValidationOutcome.SPAM) >= 1
        dep.run(6 * dep.chain.block_interval)
        assert not dep.contract.is_member(spammer.identity.pk)

    def test_third_message_nullifier_already_slashing(self, deployment):
        dep = deployment
        spammer = dep.peer("peer-007")
        for payload in (b"m1", b"m2", b"m3"):
            spammer.publish(payload, force=True)
            dep.run(1.5)
        # m2 and m3 both collide with m1's nullifier: every detection is
        # deduplicated into a single slash case per peer.
        for peer in dep.peers.values():
            assert len(peer.slasher.attempts) <= 1
