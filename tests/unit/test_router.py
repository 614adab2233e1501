"""Unit tests for the GossipSub router."""

import random

import pytest

from repro.crypto.hashing import message_id
from repro.errors import NetworkError
from repro.gossipsub.messages import RPC, IHave
from repro.gossipsub.router import (
    GossipSubParams,
    GossipSubRouter,
    ValidationResult,
)
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh, random_regular
from repro.net.transport import Network

TOPIC = "test-topic"


def build(count=6, degree=None, seed=1, scoring=False, params=None):
    sim = Simulator()
    graph = full_mesh(count) if degree is None else random_regular(count, degree, seed=seed)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(seed)
    )
    routers = {}
    for i, peer in enumerate(sorted(graph.nodes)):
        routers[peer] = GossipSubRouter(
            peer,
            network,
            sim,
            params=params,
            score_params=ScoreParams() if scoring else None,
            rng=random.Random(seed + i),
        )
    return sim, network, routers


def start_all(sim, routers, warmup=3.0):
    for router in routers.values():
        router.subscribe(TOPIC)
        router.start()
    sim.run(sim.now + warmup)


def publish(router, payload: bytes):
    return router.publish(TOPIC, payload, message_id(payload, TOPIC))


class TestParams:
    def test_degree_bounds_validated(self):
        with pytest.raises(NetworkError):
            GossipSubParams(d=3, d_lo=4, d_hi=12)


class TestMeshFormation:
    def test_meshes_form_within_bounds(self):
        sim, _, routers = build(count=10, degree=6)
        start_all(sim, routers, warmup=5.0)
        params = next(iter(routers.values())).params
        for router in routers.values():
            mesh = set(router._mesh.get(TOPIC, ()))
            assert len(mesh) >= 1
            assert len(mesh) <= params.d_hi

    def test_mesh_is_symmetric_enough_to_deliver(self):
        sim, _, routers = build(count=8)
        start_all(sim, routers)
        publish(routers["peer-000"], b"hello")
        sim.run(sim.now + 2.0)
        delivered = sum(r.stats.delivered for r in routers.values())
        assert delivered == 8  # everyone exactly once

    def test_unsubscribed_peer_not_delivered(self):
        sim, _, routers = build(count=5)
        outsider = routers.pop("peer-004")
        start_all(sim, routers)
        outsider.start()  # never subscribes
        publish(routers["peer-000"], b"hi")
        sim.run(sim.now + 2.0)
        assert outsider.stats.delivered == 0


class TestPublishing:
    def test_publish_requires_subscription(self):
        sim, _, routers = build(count=3)
        router = routers["peer-000"]
        router.start()
        with pytest.raises(NetworkError):
            publish(router, b"x")

    def test_no_duplicate_delivery(self):
        sim, _, routers = build(count=8)
        start_all(sim, routers)
        publish(routers["peer-000"], b"once")
        sim.run(sim.now + 2.0)
        for router in routers.values():
            assert router.stats.delivered <= 1

    def test_multiple_messages_all_arrive(self):
        sim, _, routers = build(count=6)
        start_all(sim, routers)
        for i in range(5):
            publish(routers[f"peer-00{i}"], f"m{i}".encode())
        sim.run(sim.now + 3.0)
        # Every peer sees every message exactly once (publishers included,
        # via local delivery).
        total = sum(r.stats.delivered for r in routers.values())
        assert total == 5 * 6


class TestValidation:
    def test_reject_stops_propagation(self):
        sim, _, routers = build(count=6)
        for router in routers.values():
            router.set_validator(TOPIC, lambda s, m: ValidationResult.REJECT)
        start_all(sim, routers)
        publish(routers["peer-000"], b"bad")
        sim.run(sim.now + 2.0)
        # Publisher delivers to itself; everyone else rejects at first hop.
        assert sum(r.stats.delivered for r in routers.values()) == 1
        assert sum(r.stats.rejected for r in routers.values()) >= 1
        assert all(r.stats.forwarded == 0 or r.stats.published for r in routers.values())

    def test_ignore_drops_without_penalty(self):
        sim, _, routers = build(count=4, scoring=True)
        for router in routers.values():
            router.set_validator(TOPIC, lambda s, m: ValidationResult.IGNORE)
        start_all(sim, routers)
        publish(routers["peer-000"], b"meh")
        sim.run(sim.now + 2.0)
        for router in routers.values():
            if router.scoring:
                for other in routers:
                    assert router.scoring.score(other, sim.now) >= 0

    def test_reject_penalises_with_scoring(self):
        sim, _, routers = build(count=4, scoring=True)
        victim = routers["peer-001"]
        victim.set_validator(TOPIC, lambda s, m: ValidationResult.REJECT)
        start_all(sim, routers)
        for i in range(3):
            publish(routers["peer-000"], f"bad{i}".encode())
            sim.run(sim.now + 1.2)
        assert victim.scoring.score("peer-000", sim.now) < 0


class TestGossip:
    def test_ihave_triggers_iwant_recovery(self):
        # Peer outside every mesh still recovers messages via gossip.
        params = GossipSubParams(d=2, d_lo=1, d_hi=2, d_lazy=6)
        sim, network, routers = build(count=6, params=params)
        start_all(sim, routers, warmup=4.0)
        publish(routers["peer-000"], b"gossiped")
        # Run long enough for a heartbeat (gossip emission) + IWANT fetch.
        sim.run(sim.now + 5.0)
        delivered = sum(r.stats.delivered for r in routers.values())
        assert delivered == 6

    def test_iwant_served_from_mcache(self):
        from repro.gossipsub.messages import IWant

        sim, network, routers = build(count=4)
        start_all(sim, routers)
        publish(routers["peer-000"], b"cached")
        sim.run(sim.now + 1.0)
        # A probe node asks peer-000 directly for the message id via IWANT.
        msg_id = message_id(b"cached", TOPIC)
        got = []
        network.add_peer("probe", ["peer-000"])
        network.register("probe", lambda s, rpc: got.extend(rpc.messages))
        network.send("probe", "peer-000", RPC(iwant=(IWant(msg_ids=(msg_id,)),)))
        sim.run(sim.now + 1.0)
        assert [m.msg_id for m in got] == [msg_id]
        assert routers["peer-000"].stats.iwant_served == 1

    def test_ihave_for_unknown_topic_gets_no_iwant(self):
        sim, network, routers = build(count=3)
        start_all(sim, routers)
        got = []
        network.add_peer("probe", ["peer-001"])
        network.register("probe", lambda s, rpc: got.append(rpc))
        network.send(
            "probe",
            "peer-001",
            RPC(ihave=(IHave(topic="other", msg_ids=(b"z" * 32,)),)),
        )
        sim.run(sim.now + 1.0)
        assert all(not rpc.iwant for rpc in got)


class TestUnsubscribe:
    def test_unsubscribe_prunes_and_stops_delivery(self):
        sim, _, routers = build(count=5)
        start_all(sim, routers)
        leaver = routers["peer-004"]
        leaver.unsubscribe(TOPIC)
        sim.run(sim.now + 2.0)
        publish(routers["peer-000"], b"after-leave")
        sim.run(sim.now + 2.0)
        assert leaver.stats.delivered == 0
        for router in routers.values():
            assert "peer-004" not in set(router._mesh.get(TOPIC, ()))


class TestMeshShrink:
    def test_mesh_grafted_past_d_hi_shrinks_to_d_keeping_the_best_scored(self):
        params = GossipSubParams(d=2, d_lo=1, d_hi=3)
        sim, _, routers = build(count=7, scoring=True, params=params)
        start_all(sim, routers)
        router = routers["peer-000"]
        grafted = sorted(set(routers) - {"peer-000"})
        mesh = router._mesh[TOPIC]
        for peer in grafted:
            if peer not in mesh:
                mesh.add(peer)
                router.scoring.on_join_mesh(peer, sim.now)
        for peer, deliveries in (("peer-005", 3), ("peer-002", 1)):
            for _ in range(deliveries):
                router.scoring.on_first_delivery(peer)
        assert len(mesh) == 6 > params.d_hi
        router.heartbeat()
        assert router._mesh[TOPIC] == {"peer-002", "peer-005"}
        assert router.stats.mesh_size[TOPIC] == params.d
