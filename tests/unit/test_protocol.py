"""Unit tests for the WakuRLNRelayPeer protocol node (small deployments)."""

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.errors import ProtocolError, RegistrationError

DEPTH = 8


@pytest.fixture()
def deployment():
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
    dep = RLNDeployment.create(peer_count=6, degree=3, seed=11, config=config)
    dep.register_all()
    dep.form_meshes(4.0)
    return dep


class TestRegistration:
    def test_all_registered(self, deployment):
        for peer in deployment.peers.values():
            assert peer.registered
            assert peer.group.index_of(peer.identity.pk) is not None

    def test_publish_before_registration_rejected(self):
        config = RLNConfig(tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=4, degree=2, seed=12, config=config)
        with pytest.raises(RegistrationError):
            dep.peer("peer-000").publish(b"too soon")

    def test_double_identity_rejected(self, deployment):
        with pytest.raises(RegistrationError):
            deployment.peer("peer-000").create_identity()

    def test_group_views_agree(self, deployment):
        roots = {peer.group.root.value for peer in deployment.peers.values()}
        assert len(roots) == 1


class TestPublish:
    def test_message_reaches_everyone(self, deployment):
        deployment.peer("peer-000").publish(b"hello all")
        deployment.run(3.0)
        assert deployment.delivery_count(b"hello all") == 6

    def test_one_message_per_epoch_enforced(self, deployment):
        peer = deployment.peer("peer-001")
        peer.publish(b"first")
        with pytest.raises(ProtocolError, match="rate limit"):
            peer.publish(b"second")
        assert peer.stats.publish_rate_limited == 1

    def test_next_epoch_allows_publishing(self, deployment):
        peer = deployment.peer("peer-001")
        peer.publish(b"epoch A")
        deployment.run(deployment.config.epoch_length + 1)
        peer.publish(b"epoch B")  # no exception
        deployment.run(3.0)
        assert deployment.delivery_count(b"epoch B") == 6

    def test_bundle_attached(self, deployment):
        message = deployment.peer("peer-002").publish(b"with proof")
        assert message.rate_limit_proof is not None
        assert message.rate_limit_proof.epoch == deployment.peer("peer-002").current_epoch()

    def test_force_bypasses_local_limit(self, deployment):
        peer = deployment.peer("peer-003")
        peer.publish(b"ok", force=True)
        peer.publish(b"spam", force=True)  # no exception locally
        assert peer.stats.published == 2

    def test_published_epochs_stay_within_the_epoch_window(self):
        config = RLNConfig(epoch_length=1.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=4, degree=2, seed=14, config=config)
        dep.register_all()
        peer = dep.peer("peer-000")
        for i in range(50):
            peer.publish(b"epoch %d" % i)
            dep.run(config.epoch_length)
        assert len(peer._published_epochs) <= config.max_epoch_gap + 1
        # The discipline itself is untouched by the pruning.
        peer.publish(b"one more")
        with pytest.raises(ProtocolError, match="rate limit"):
            peer.publish(b"refused")
        peer.publish(b"forced", force=True)
        assert peer._published_epochs[peer.current_epoch()] == 2


class TestSpamHandling:
    def test_spam_contained_and_slashed(self, deployment):
        spammer = deployment.peer("peer-004")
        spammer.publish(b"innocent", force=True)
        deployment.run(2.0)
        spammer.publish(b"flood", force=True)
        deployment.run(2.0)
        # Honest message reached everyone, the flood only its publisher.
        assert deployment.delivery_count(b"innocent") == 6
        assert deployment.delivery_count(b"flood") == 1
        assert deployment.total_spam_detected() >= 1
        # Let commit-reveal settle across blocks.
        deployment.run(5 * deployment.chain.block_interval)
        assert not deployment.contract.is_member(spammer.identity.pk)

    def test_spam_callback_invoked(self, deployment):
        heard = []
        for peer in deployment.peers.values():
            peer.on_spam(heard.append)
        spammer = deployment.peer("peer-005")
        spammer.publish(b"a", force=True)
        deployment.run(2.0)
        spammer.publish(b"b", force=True)
        deployment.run(2.0)
        assert heard  # at least one neighbor produced evidence
        from repro.crypto.shamir import recover_secret

        evidence = heard[0]
        assert recover_secret(evidence.share_a, evidence.share_b) == spammer.identity.sk

    def test_exactly_one_slasher_rewarded(self, deployment):
        from repro.core.slashing import SlashState

        spammer = deployment.peer("peer-004")
        spammer.publish(b"x", force=True)
        deployment.run(2.0)
        spammer.publish(b"y", force=True)
        deployment.run(6 * deployment.chain.block_interval)
        rewarded = [
            attempt
            for peer in deployment.peers.values()
            for attempt in peer.slasher.attempts
            if attempt.state is SlashState.REWARDED
        ]
        assert len(rewarded) == 1
        assert rewarded[0].reward == deployment.contract.deposit

    def test_auto_slash_is_the_coordinator_over_the_peers_slasher(self):
        from repro.telemetry import Telemetry

        config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
        attempts = {}
        for auto_slash in (True, False):
            telemetry = Telemetry()
            dep = RLNDeployment.create(
                peer_count=6, degree=3, seed=11, config=config,
                auto_slash=auto_slash, telemetry=telemetry,
            )
            dep.register_all()
            dep.form_meshes(4.0)
            spammer = dep.peer("peer-004")
            spammer.publish(b"x", force=True)
            dep.run(2.0)
            spammer.publish(b"y", force=True)
            dep.run(6 * dep.chain.block_interval)
            assert dep.total_spam_detected() >= 1
            attempts[auto_slash] = sum(
                len(peer.slasher.attempts) for peer in dep.peers.values()
            )
            assert attempts[auto_slash] == sum(
                peer.stats.slash_attempts for peer in dep.peers.values()
            )
            slashing_metrics = [
                key for key in telemetry.registry.collect() if key.startswith("slashing_")
            ]
            if auto_slash:
                for peer in dep.peers.values():
                    coordinator = peer.slashing_coordinator()
                    assert coordinator.slasher is peer.slasher
                    assert coordinator.stats.cases == peer.stats.slash_attempts
                assert slashing_metrics
            else:
                # No coordinator was built: nothing raced, nothing registered.
                assert not slashing_metrics
                assert dep.contract.is_member(spammer.identity.pk)
        assert attempts[True] >= 1 and attempts[False] == 0

    def test_supply_conserved_through_slashing(self, deployment):
        supply_before = deployment.chain.total_supply()
        spammer = deployment.peer("peer-004")
        spammer.publish(b"x", force=True)
        deployment.run(2.0)
        spammer.publish(b"y", force=True)
        deployment.run(6 * deployment.chain.block_interval)
        assert deployment.chain.total_supply() == supply_before

    def test_slashed_spammer_cannot_prove_anymore(self, deployment):
        from repro.errors import NotRegistered, ProvingError

        spammer = deployment.peer("peer-004")
        spammer.publish(b"x", force=True)
        deployment.run(2.0)
        spammer.publish(b"y", force=True)
        deployment.run(6 * deployment.chain.block_interval)
        deployment.run(deployment.config.epoch_length)  # fresh epoch
        with pytest.raises((NotRegistered, ProvingError, RegistrationError)):
            spammer.publish(b"after slashing")


class TestEpochs:
    def test_current_epoch_advances_with_time(self, deployment):
        peer = deployment.peer("peer-000")
        e0 = peer.current_epoch()
        deployment.run(deployment.config.epoch_length)
        assert peer.current_epoch() == e0 + 1

    def test_clock_offset_shifts_epoch(self):
        from repro.net.clock import DriftModel

        config = RLNConfig(epoch_length=1.0, max_epoch_gap=3, tree_depth=DEPTH)
        dep = RLNDeployment.create(
            peer_count=4, degree=2, seed=13, config=config, drift=DriftModel(2.0)
        )
        epochs = {p.current_epoch() for p in dep.peers.values()}
        assert len(epochs) > 1  # drift visible at 1 s epochs


class TestIngressRateLimit:
    def _deployment(self):
        from repro.pipeline.pipeline import PipelineConfig
        from repro.pipeline.ratelimit import BucketSpec

        config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(
            peer_count=4,
            degree=2,
            seed=17,
            config=config,
            pipeline_config=PipelineConfig(
                peer_bucket=BucketSpec(capacity=1.0, refill_per_second=1.0),
                topic_bucket=None,
            ),
        )
        dep.register_all()
        dep.form_meshes(4.0)
        return dep

    def test_rate_limited_message_is_retryable_through_router(self):
        # A shed bundle must not be poisoned in the router's seen-cache:
        # after the bucket refills, a re-delivered copy validates and lands.
        from repro.gossipsub.messages import PubSubMessage

        dep = self._deployment()
        sender, receiver = dep.peer("peer-000"), dep.peer("peer-001")
        message = sender._build_message(b"throttled", "t", sender.current_epoch())
        pubsub = PubSubMessage(
            msg_id=message.message_id(receiver.relay.pubsub_topic),
            topic=receiver.relay.pubsub_topic,
            payload=message,
        )
        # Drain the receiver's bucket for this forwarder (capacity 1).
        receiver.pipeline.ratelimiter.allow(
            "peer-000", receiver.relay.pubsub_topic, dep.simulator.now
        )
        receiver.relay.router._handle_message("peer-000", pubsub)
        assert message.payload not in [m.payload for m in receiver.received]
        # The unjudged id was forgotten in the router's seen-cache too.
        assert pubsub.msg_id not in receiver.relay.router._seen

        dep.run(2.0)  # refill
        receiver.relay.router._handle_message("peer-000", pubsub)
        assert message.payload in [m.payload for m in receiver.received]

    def test_departed_peer_buckets_pruned(self):
        dep = self._deployment()
        receiver = dep.peer("peer-002")
        limiter = receiver.pipeline.ratelimiter
        # A forwarder the router has never heard of leaves a bucket behind.
        limiter.allow("ghost-peer", receiver.relay.pubsub_topic, dep.simulator.now)
        assert "ghost-peer" in limiter._peer_buckets
        dep.run(receiver.BUCKET_PRUNE_INTERVAL + 1.0)
        assert "ghost-peer" not in limiter._peer_buckets
        # Live mesh neighbours' buckets survive the sweep.
        alive = receiver.relay.router.topic_peers(receiver.relay.pubsub_topic)
        for neighbour in alive:
            limiter.allow(neighbour, receiver.relay.pubsub_topic, dep.simulator.now)
        dep.run(receiver.BUCKET_PRUNE_INTERVAL + 1.0)
        for neighbour in alive:
            assert neighbour in limiter._peer_buckets


class TestBatchedShutdown:
    def test_stop_drains_pending_batch(self):
        # A bundle parked behind a partial batch must be judged (and its
        # DeferredValidation resolved) during stop(), not dropped or
        # verified by a deadline event firing after shutdown.
        from repro.gossipsub.messages import PubSubMessage
        from repro.pipeline.pipeline import PipelineConfig

        config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(
            peer_count=4,
            degree=2,
            seed=19,
            config=config,
            pipeline_config=PipelineConfig(batch_size=4, batch_deadline=0.2),
        )
        dep.register_all()
        dep.form_meshes(4.0)
        sender, receiver = dep.peer("peer-000"), dep.peer("peer-001")
        message = sender._build_message(b"parked", "t", sender.current_epoch())
        pubsub = PubSubMessage(
            msg_id=message.message_id(receiver.relay.pubsub_topic),
            topic=receiver.relay.pubsub_topic,
            payload=message,
        )
        receiver.relay.router._handle_message("peer-000", pubsub)
        assert len(receiver.pipeline.batch_verifier._pending) == 1
        assert message.payload not in [m.payload for m in receiver.received]
        receiver.stop()
        assert len(receiver.pipeline.batch_verifier._pending) == 0
        assert message.payload in [m.payload for m in receiver.received]

        # An RPC already in flight when stop() ran still arrives; it must
        # be judged synchronously, never parked behind a re-armed deadline.
        # (Authored by another member — a second bundle from `sender` in
        # the same epoch would be judged SPAM, not delivered.)
        author = dep.peer("peer-002")
        late = author._build_message(b"late", "t", author.current_epoch())
        late_pubsub = PubSubMessage(
            msg_id=late.message_id(receiver.relay.pubsub_topic),
            topic=receiver.relay.pubsub_topic,
            payload=late,
        )
        receiver.relay.router._handle_message("peer-000", late_pubsub)
        assert len(receiver.pipeline.batch_verifier._pending) == 0
        assert late.payload in [m.payload for m in receiver.received]

        # Restarting the peer re-enables batching: a new bundle parks
        # behind the batch again instead of verifying synchronously.
        receiver.start()
        author3 = dep.peer("peer-003")
        fresh = author3._build_message(b"fresh", "t", author3.current_epoch())
        fresh_pubsub = PubSubMessage(
            msg_id=fresh.message_id(receiver.relay.pubsub_topic),
            topic=receiver.relay.pubsub_topic,
            payload=fresh,
        )
        receiver.relay.router._handle_message("peer-000", fresh_pubsub)
        assert len(receiver.pipeline.batch_verifier._pending) == 1
