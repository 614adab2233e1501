"""Property tests: GossipSub mesh and delivery invariants under random
topologies, latencies, and publish schedules."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import message_id
from repro.gossipsub.mcache import SeenCache
from repro.gossipsub.router import GossipSubRouter
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network

TOPIC = "prop-topic"


def build_network(peer_count: int, degree: int, seed: int):
    sim = Simulator()
    if (peer_count * degree) % 2:
        degree += 1
    graph = random_regular(peer_count, degree, seed=seed)
    network = Network(
        simulator=sim,
        graph=graph,
        latency=UniformLatency(0.01, 0.08),
        rng=random.Random(seed),
    )
    routers = {}
    for i, peer in enumerate(sorted(graph.nodes)):
        routers[peer] = GossipSubRouter(peer, network, sim, rng=random.Random(seed + i))
        routers[peer].subscribe(TOPIC)
        routers[peer].start()
    sim.run(5.0)
    return sim, routers


@given(
    peer_count=st.integers(min_value=6, max_value=14),
    degree=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
    publisher_count=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=12, deadline=None)
def test_every_message_delivered_exactly_once_everywhere(
    peer_count, degree, seed, publisher_count
):
    sim, routers = build_network(peer_count, degree, seed)
    names = sorted(routers)
    payloads = []
    for i in range(publisher_count):
        payload = f"msg-{seed}-{i}".encode()
        payloads.append(payload)
        routers[names[i % peer_count]].publish(TOPIC, payload, message_id(payload, TOPIC))
        sim.run(sim.now + 0.5)
    sim.run(sim.now + 8.0)
    # Exactly-once delivery at every peer for every message.
    total = sum(r.stats.delivered for r in routers.values())
    assert total == publisher_count * peer_count
    for router in routers.values():
        assert router.stats.duplicates >= 0  # duplicates absorbed, not delivered


@given(
    peer_count=st.integers(min_value=8, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=10, deadline=None)
def test_mesh_degree_within_bounds_after_heartbeats(peer_count, seed):
    sim, routers = build_network(peer_count, 5, seed)
    sim.run(sim.now + 10.0)  # many heartbeats
    for router in routers.values():
        mesh = set(router._mesh.get(TOPIC, ()))
        assert len(mesh) <= router.params.d_hi
        # Mesh peers are always actual neighbors subscribed to the topic.
        for peer in mesh:
            assert router.network.connected(router.peer_id, peer)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=10, deadline=None)
def test_message_ids_never_delivered_twice(seed):
    sim, routers = build_network(8, 4, seed)
    names = sorted(routers)
    payload = b"replay-me"
    msg_id = message_id(payload, TOPIC)
    routers[names[0]].publish(TOPIC, payload, msg_id)
    sim.run(sim.now + 5.0)
    # Re-publishing the same id from another peer is absorbed by seen-caches.
    routers[names[1]].publish(TOPIC, payload, msg_id)
    sim.run(sim.now + 5.0)
    for router in routers.values():
        assert router.stats.delivered <= 2  # once per unique id per peer; the
        # republisher locally delivers its own copy, everyone else at most 1
    others = [r for n, r in routers.items() if n not in (names[0], names[1])]
    for router in others:
        assert router.stats.delivered == 1


class ScanningSeenCache:
    """The seen-cache that scans for expired ids on every witness."""

    def __init__(self, ttl: float) -> None:
        self.ttl = ttl
        self.entries: dict[bytes, float] = {}

    def witness(self, msg_id: bytes, now: float) -> bool:
        for old_id, when in list(self.entries.items()):
            if when >= now - self.ttl:
                break
            del self.entries[old_id]
        if msg_id in self.entries:
            return True
        self.entries[msg_id] = now
        return False


@given(
    ttl=st.sampled_from([0.0, 1.0, 5.0]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["witness", "forget"]),
            st.sampled_from([bytes([i]) * 4 for i in range(6)]),
            st.floats(min_value=0.0, max_value=3.0),
        ),
        max_size=60,
    ),
)
@settings(max_examples=150, deadline=None)
def test_seen_cache_expires_exactly_what_a_full_scan_expires(ttl, ops):
    # The cache only walks its entries when its oldest timestamp says one
    # can have expired; it must answer as a scan on every call would.
    cache, reference = SeenCache(ttl=ttl), ScanningSeenCache(ttl)
    now = 0.0
    for op, msg_id, step in ops:
        now += step
        if op == "witness":
            assert cache.witness(msg_id, now) == reference.witness(msg_id, now)
        else:
            cache.forget(msg_id)
            reference.entries.pop(msg_id, None)
        assert len(cache) == len(reference.entries)
        assert all((m in cache) == (m in reference.entries) for m, _, _ in ops)
