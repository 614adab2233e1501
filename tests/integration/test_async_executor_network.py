"""The async crypto executor inside a live network (tentpole integration).

Worker-lane deployments must deliver the same traffic and convict the same
spammers as the synchronous default — only the *timing* moves: relay
callbacks return immediately and verdicts land at simulated completion.
Also covers a rate-limit flood evicted by peer scoring, end to end.
"""

from repro.analysis.metrics import DeliveryTracker
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.gossipsub.scoring import ScoreParams
from repro.pipeline.pipeline import PipelineConfig
from repro.pipeline.ratelimit import BucketSpec
from repro.testing import inbox

DEPTH = 8


def make_deployment(
    pipeline_config=None, *, seed=71, peers=8, scoring=False, auto_slash=True
):
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=1, tree_depth=DEPTH)
    dep = RLNDeployment.create(
        peer_count=peers,
        degree=4,
        seed=seed,
        config=config,
        pipeline_config=pipeline_config,
        score_params=ScoreParams() if scoring else None,
        auto_slash=auto_slash,
    )
    dep.register_all()
    dep.form_meshes(5.0)
    return dep


class TestWorkerLaneDeployment:
    def test_async_network_still_delivers(self):
        dep = make_deployment(PipelineConfig(workers=2, batch_size=4), seed=72)
        tracker = DeliveryTracker(dep)
        publisher = dep.peer("peer-002")
        publisher.publish(b"async hello")
        dep.run(10.0)
        assert tracker.delivery_count(b"async hello") == len(dep.peers)
        # Every relay verdict was deferred through the executor.
        deferred = sum(p.router_stats.deferred for p in dep.peers.values())
        assert deferred > 0
        busy = sum(
            sum(p.crypto_executor.stats.lane_busy_seconds)
            for p in dep.peers.values()
        )
        assert busy > 0

    def test_async_network_matches_sync_verdict_totals(self):
        # The acceptance criterion at network scale: the same scenario at
        # workers=0 and workers=2 produces identical accepted/rejected
        # totals once the simulation settles — concurrency moves latency,
        # never verdicts.
        totals = []
        for workers in (0, 2):
            dep = make_deployment(
                PipelineConfig(workers=workers, batch_size=4), seed=73
            )
            inboxes = {name: inbox(peer) for name, peer in dep.peers.items()}
            dep.peer("peer-001").publish(b"hello")
            dep.run(3.0)
            spammer = dep.peer("peer-004")
            spammer.publish(b"s1", force=True)
            dep.run(2.0)
            spammer.publish(b"s2", force=True)
            dep.run(8.0)
            totals.append(
                {
                    name: (
                        dict(peer.validator.stats.outcomes),
                        peer.stats.spam_detected,
                        sorted(m.payload for m in inboxes[name]),
                    )
                    for name, peer in dep.peers.items()
                }
            )
        assert totals[0] == totals[1]

    def test_stopped_peer_leaves_no_crypto_behind(self):
        dep = make_deployment(PipelineConfig(workers=2, batch_size=8), seed=74)
        tracker = DeliveryTracker(dep)
        publisher = dep.peer("peer-000")
        publisher.publish(b"parting shot")
        dep.run(0.2)  # in flight: some verdicts still queued on lanes
        victim = dep.peer("peer-003")
        victim.stop()
        assert victim.crypto_executor.busy_lanes == 0
        assert victim.crypto_executor.queued_jobs == 0
        dep.run(10.0)  # the rest of the network settles normally
        assert tracker.delivery_count(b"parting shot") >= len(dep.peers) - 1


class TestRateLimitMeshFeedback:
    def test_persistent_overflow_prunes_the_offender(self):
        # Tiny per-peer budget: every overflow of a flooding neighbour's
        # bucket is a behaviour penalty.  Peer scoring is the one eviction:
        # the heartbeat drops the offender from the mesh, and it stays out
        # (mesh filling skips it, its GRAFTs are refused) while its score
        # is negative.
        dep = make_deployment(
            PipelineConfig(peer_bucket=BucketSpec(capacity=4.0, refill_per_second=0.1)),
            seed=75,
            scoring=True,
            auto_slash=False,
        )
        attacker = dep.peer("peer-000")
        penalised_by = set()
        for name, peer in dep.peers.items():
            scoring = peer.relay.router.scoring
            penalise = scoring.on_behaviour_penalty

            def record(sender, name=name, penalise=penalise):
                if sender == attacker.peer_id:
                    penalised_by.add(name)
                penalise(sender)

            scoring.on_behaviour_penalty = record
        for i in range(40):
            attacker.publish(b"flood-%d" % i, force=True)
            dep.run(0.2)
        dep.run(2.0)
        assert penalised_by  # at least one neighbour's bucket overflowed
        for _ in range(5):  # and the offender is not re-grafted
            for name in sorted(penalised_by):
                router = dep.peer(name).relay.router
                topic = dep.peer(name).relay.pubsub_topic
                assert attacker.peer_id not in set(router._mesh.get(topic, ()))
                assert not router.scoring.mesh_eligible(
                    attacker.peer_id, dep.simulator.now
                )
            dep.run(1.0)
