"""Router edge cases: graylisting, churn, self-healing, validator changes."""

import random

import pytest

from repro.crypto.hashing import message_id
from repro.gossipsub.messages import RPC, Graft, PubSubMessage
from repro.errors import ReproError
from repro.gossipsub.router import GossipSubRouter, ValidationResult
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network

TOPIC = "edge"


def build(count=5, seed=51, scoring=False):
    sim = Simulator()
    graph = full_mesh(count)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(seed)
    )
    routers = {}
    for i, peer in enumerate(sorted(graph.nodes)):
        routers[peer] = GossipSubRouter(
            peer, network, sim, score_params=ScoreParams() if scoring else None, rng=random.Random(seed + i)
        )
        routers[peer].subscribe(TOPIC)
        routers[peer].start()
    sim.run(3.0)
    return sim, network, routers


class TestGraylisting:
    def test_graylisted_peer_rpcs_ignored(self):
        sim, network, routers = build(scoring=True)
        victim = routers["peer-001"]
        # Drive peer-000's score below the graylist threshold.
        for _ in range(5):
            victim.scoring.on_invalid_message("peer-000")
        assert victim.scoring.graylisted("peer-000", sim.now)
        delivered_before = victim.stats.delivered
        payload = b"from graylisted"
        network.send(
            "peer-000",
            "peer-001",
            RPC(messages=(PubSubMessage(topic=TOPIC, payload=payload),)),
        )
        sim.run(sim.now + 1.0)
        assert victim.stats.delivered == delivered_before

    def test_graft_from_low_score_peer_pruned(self):
        sim, network, routers = build(scoring=True)
        victim = routers["peer-002"]
        victim.scoring.on_invalid_message("peer-000")  # below accept threshold
        network.send("peer-000", "peer-002", RPC(graft=(Graft(topic=TOPIC),)))
        sim.run(sim.now + 1.0)
        assert "peer-000" not in set(victim._mesh.get(TOPIC, ()))


class TestLifecycle:
    def test_start_is_idempotent(self):
        sim, _, routers = build()
        router = routers["peer-000"]
        router.start()
        router.start()
        payload = b"still fine"
        router.publish(TOPIC, payload)
        sim.run(sim.now + 2.0)
        assert sum(r.stats.delivered for r in routers.values()) == len(routers)

    def test_stop_halts_heartbeats(self):
        sim, _, routers = build()
        router = routers["peer-000"]
        router.stop()
        before = sim.pending_events
        sim.run(sim.now + 5.0)
        # The stopped router scheduled no further heartbeats of its own.
        assert router._stop_heartbeat is None

    def test_validator_swap_takes_effect(self):
        sim, _, routers = build()
        receiver = routers["peer-001"]
        receiver.set_validator(TOPIC, lambda s, m: ValidationResult.REJECT)
        payload1 = b"rejected"
        routers["peer-000"].publish(TOPIC, payload1)
        sim.run(sim.now + 2.0)
        assert receiver.stats.rejected >= 1
        assert receiver.stats.delivered == 0
        receiver.set_validator(TOPIC, lambda s, m: ValidationResult.ACCEPT)
        payload2 = b"accepted"
        routers["peer-000"].publish(TOPIC, payload2)
        sim.run(sim.now + 2.0)
        assert receiver.stats.delivered >= 1


class TestMeshRepair:
    def test_disconnect_triggers_heartbeat_cleanup(self):
        sim, network, routers = build(count=6)
        router = routers["peer-000"]
        sim.run(sim.now + 3.0)
        mesh_before = set(router._mesh.get(TOPIC, ()))
        assert mesh_before
        victim = sorted(mesh_before)[0]
        network.disconnect("peer-000", victim)
        sim.run(sim.now + 3.0)  # heartbeats prune the dead link
        assert victim not in set(router._mesh.get(TOPIC, ()))

    def test_publish_works_while_mesh_forming(self):
        # Immediately after start (no heartbeat yet), publish falls back to
        # all known topic peers, so nothing is lost during bootstrap.
        sim = Simulator()
        graph = full_mesh(4)
        network = Network(simulator=sim, graph=graph, latency=ConstantLatency(0.01))
        routers = {}
        for i, peer in enumerate(sorted(graph.nodes)):
            routers[peer] = GossipSubRouter(peer, network, sim, rng=random.Random(52 + i))
            routers[peer].subscribe(TOPIC)
            routers[peer].start()
        sim.run(0.2)  # subscriptions exchanged; no heartbeat yet
        payload = b"early"
        routers["peer-000"].publish(TOPIC, payload)
        sim.run(sim.now + 2.0)
        assert sum(r.stats.delivered for r in routers.values()) == 4


class TestDeferredValidation:
    def test_multiple_subscribers_all_fire(self):
        deferred = Promise()
        seen = []
        deferred.subscribe(lambda r: seen.append(("a", r)))
        deferred.subscribe(lambda r: seen.append(("b", r)))
        deferred.resolve(ValidationResult.ACCEPT)
        assert seen == [
            ("a", ValidationResult.ACCEPT),
            ("b", ValidationResult.ACCEPT),
        ]
        # Late subscribers observe the settled result immediately.
        deferred.subscribe(lambda r: seen.append(("c", r)))
        assert seen[-1] == ("c", ValidationResult.ACCEPT)

    def test_double_resolve_raises(self):
        deferred = Promise()
        deferred.resolve(ValidationResult.ACCEPT)
        with pytest.raises(ReproError):
            deferred.resolve(ValidationResult.REJECT)


class TestForgetSeen:
    def test_forgotten_id_is_revalidated_on_redelivery(self):
        # A load-shedding validator IGNOREs a message it never judged; once
        # the id is forgotten, a later copy goes through validation again
        # instead of being suppressed as a duplicate for the seen TTL.
        sim, network, routers = build()
        victim = routers["peer-001"]
        calls = []

        def shedding_validator(sender, message):
            calls.append(message.msg_id)
            return ValidationResult.IGNORE

        victim.set_validator(TOPIC, shedding_validator)
        payload = b"shed me"
        mid = message_id(payload, TOPIC)
        rpc = RPC(messages=(PubSubMessage(topic=TOPIC, payload=payload),))
        network.send("peer-000", "peer-001", rpc)
        sim.run(sim.now + 1.0)
        network.send("peer-000", "peer-001", rpc)
        sim.run(sim.now + 1.0)
        assert len(calls) == 1  # second copy suppressed by the seen-cache

        victim.forget_seen(mid)
        network.send("peer-000", "peer-001", rpc)
        sim.run(sim.now + 1.0)
        assert len(calls) == 2
