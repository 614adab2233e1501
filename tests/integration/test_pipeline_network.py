"""The staged pipeline inside a live network (§III-F + E10/E11 behaviours).

Covers the properties the pipeline buys at network scale: floods that die
in the prefilter cost zero pairing work anywhere, batched deployments still
deliver, and deferred verdicts flow through the router correctly.
"""

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.validator import ValidationOutcome
from repro.gossipsub.router import ValidationResult
from repro.pipeline.pipeline import PipelineConfig
from repro.pipeline.prefilter import PrefilterOutcome
from repro.testing import inbox
from repro.waku.message import WakuMessage

DEPTH = 8


def make_deployment(pipeline_config=None, *, seed=41, peers=8):
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=1, tree_depth=DEPTH)
    dep = RLNDeployment.create(
        peer_count=peers,
        degree=4,
        seed=seed,
        config=config,
        pipeline_config=pipeline_config,
    )
    dep.register_all()
    dep.form_meshes(5.0)
    return dep


def install_seed_validator(peer) -> None:
    """Rewire a peer's relay hook to the seed's direct BundleValidator path.

    Replicates the pre-pipeline `WakuRLNRelayPeer._validate` exactly:
    synchronous `BundleValidator.validate`, seed outcome -> action mapping,
    and the spam side effects (through the peer's `on_spam` feed, where
    its slashing coordinator listens) — the baseline the batch_size=1
    pipeline must be observationally identical to.
    """

    def validate(sender, pubsub_message):
        message = pubsub_message.payload
        if not isinstance(message, WakuMessage):
            return ValidationResult.REJECT
        outcome, evidence = peer.validator.validate(
            message, peer.current_epoch(), pubsub_message.msg_id
        )
        if outcome is ValidationOutcome.VALID:
            return ValidationResult.ACCEPT
        if outcome is ValidationOutcome.DUPLICATE:
            return ValidationResult.IGNORE
        if outcome is ValidationOutcome.SPAM:
            assert evidence is not None
            peer.report_spam(evidence)
        return ValidationResult.REJECT

    peer.relay.set_validator(validate)


def stale_copy(message: WakuMessage, epoch_shift: int) -> WakuMessage:
    """The §III-F item-1 attack: a bundle aimed at an out-of-window epoch."""
    return WakuMessage(
        payload=message.payload,
        content_topic=message.content_topic,
        rate_limit_proof=message.rate_limit_proof.forged_copy(epoch_shift=epoch_shift),
    )


class TestFloodAbsorption:
    def test_stale_epoch_flood_costs_zero_pairing_operations(self):
        # A flood of invalid proofs hiding behind out-of-window epochs is
        # absorbed entirely by the stateless prefilter gates: the shared
        # prover's pairing counter must not move anywhere in the network.
        dep = make_deployment()
        attacker = dep.peer("peer-000")
        counter = dep.prover.pairing_counter
        counter.reset()
        for i in range(20):
            honest = attacker._build_message(
                b"flood-%d" % i, "t", attacker.current_epoch()
            )
            attacker.relay.publish(stale_copy(honest, epoch_shift=-40))
            dep.run(0.5)
        dep.run(3.0)

        assert counter.evaluations == 0
        drops = sum(
            peer.pipeline.prefilter.stats.counts[PrefilterOutcome.STALE_EPOCH.slot]
            for peer in dep.peers.values()
        )
        assert drops > 0
        # The drops are recorded with the seed's §III-F vocabulary.
        recorded = sum(
            peer.validator.stats.count(ValidationOutcome.INVALID_EPOCH_GAP)
            for peer in dep.peers.values()
        )
        assert recorded == drops

    def test_no_proofs_verified_during_flood(self):
        dep = make_deployment(seed=42)
        attacker = dep.peer("peer-001")
        before = sum(p.validator.stats.proofs_verified for p in dep.peers.values())
        for i in range(10):
            honest = attacker._build_message(
                b"zap-%d" % i, "t", attacker.current_epoch()
            )
            attacker.relay.publish(stale_copy(honest, epoch_shift=30))
            dep.run(0.5)
        after = sum(p.validator.stats.proofs_verified for p in dep.peers.values())
        assert after == before


class TestBatchedDeployment:
    def test_batched_network_still_delivers(self):
        dep = make_deployment(PipelineConfig(batch_size=4), seed=43)
        tracker = DeliveryTracker(dep)
        publisher = dep.peer("peer-002")
        publisher.publish(b"batched hello")
        # A window waits for no timer: each hop adds one verification.
        dep.run(10.0)
        assert tracker.delivery_count(b"batched hello") == len(dep.peers)
        deferred = sum(p.router_stats.deferred for p in dep.peers.values())
        assert deferred > 0

    def test_batched_network_still_detects_spam(self):
        dep = make_deployment(PipelineConfig(batch_size=4), seed=44)
        spammer = dep.peer("peer-003")
        spammer.publish(b"first", force=True)
        dep.run(5.0)
        spammer.publish(b"second", force=True)
        dep.run(10.0)
        assert dep.total_spam_detected() >= 1
        dep.run(6 * dep.chain.block_interval)
        assert not dep.contract.is_member(spammer.identity.pk)

    def test_batch_size_one_network_matches_seed_counters(self):
        # Two identical deployments: one runs the seed's direct
        # BundleValidator hook (installed below, bypassing the pipeline),
        # the other the batch_size=1 pipeline.  Every §III-F counter must
        # agree — the pipeline's default mode is the seed, observationally.
        scenarios = []
        for use_seed_hook in (True, False):
            dep = make_deployment(PipelineConfig(batch_size=1), seed=45)
            if use_seed_hook:
                for peer in dep.peers.values():
                    install_seed_validator(peer)
            inboxes = {name: inbox(peer) for name, peer in dep.peers.items()}
            publisher = dep.peer("peer-004")
            publisher.publish(b"hello")
            dep.run(3.0)
            spammer = dep.peer("peer-005")
            spammer.publish(b"s1", force=True)
            dep.run(2.0)
            spammer.publish(b"s2", force=True)
            dep.run(5.0)
            scenarios.append(
                {
                    name: (
                        dict(peer.validator.stats.outcomes),
                        peer.validator.stats.proofs_verified,
                        peer.stats.spam_detected,
                        sorted(m.payload for m in inboxes[name]),
                    )
                    for name, peer in dep.peers.items()
                }
            )
        assert scenarios[0] == scenarios[1]
