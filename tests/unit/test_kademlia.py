"""Unit tests for the Kademlia-style DHT."""

import random

import pytest

from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network
from repro.offchain.kademlia import (
    DHTConfig,
    KademliaNode,
    distance,
    key_id,
    node_id,
)


def build_dht(count=12, seed=1, config=None):
    sim = Simulator()
    graph = random_regular(count, 4, seed=seed)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.02), rng=random.Random(seed)
    )
    nodes = {
        p: KademliaNode(p, network, sim, config=config, rng=random.Random(seed + i))
        for i, p in enumerate(sorted(graph.nodes))
    }
    names = sorted(nodes)
    for i, name in enumerate(names):
        # Everyone bootstraps off the first node plus one other.
        seeds = [names[0], names[(i * 7 + 1) % count]]
        nodes[name].bootstrap([s for s in seeds if s != name])
    sim.run(2.0)
    return sim, nodes


class TestKeySpace:
    def test_node_id_deterministic(self):
        assert node_id("peer-000") == node_id("peer-000")
        assert node_id("peer-000") != node_id("peer-001")

    def test_distance_is_xor(self):
        assert distance(0b1010, 0b0110) == 0b1100
        assert distance(5, 5) == 0

    def test_key_id_differs_from_node_id_space(self):
        assert key_id(b"peer-000") != node_id("peer-000")


class TestBootstrap:
    def test_contacts_learned_transitively(self):
        sim, nodes = build_dht()
        # After bootstrap lookups every node knows more than its seeds.
        assert all(len(n._contacts) >= 2 for n in nodes.values())

    def test_closest_contacts_sorted(self):
        _, nodes = build_dht()
        node = nodes["peer-000"]
        target = key_id(b"some-key")
        closest = node.closest_contacts(target, 5)
        dists = [distance(node_id(p), target) for p in closest]
        assert dists == sorted(dists)


class TestPutGet:
    def test_roundtrip(self):
        sim, nodes = build_dht()
        done = {}
        nodes["peer-000"].put(b"k1", "value-1", version=1, on_done=lambda n: done.update(replicas=n))
        sim.run(sim.now + 5)
        assert done["replicas"] >= 1
        result = {}
        nodes["peer-007"].get(b"k1", lambda v, ver: result.update(value=v, version=ver))
        sim.run(sim.now + 5)
        assert result["value"] == "value-1"
        assert result["version"] == 1

    def test_missing_key(self):
        sim, nodes = build_dht()
        result = {}
        nodes["peer-003"].get(b"nothing", lambda v, ver: result.update(value=v))
        sim.run(sim.now + 5)
        assert result["value"] is None

    def test_replication_count(self):
        sim, nodes = build_dht(config=DHTConfig(replication=4))
        nodes["peer-001"].put(b"replicated", 42, version=1)
        sim.run(sim.now + 5)
        holders = [n for n in nodes.values() if b"replicated" in n._storage]
        assert len(holders) >= 2

    def test_higher_version_wins(self):
        sim, nodes = build_dht()
        nodes["peer-000"].put(b"vkey", "old", version=1)
        sim.run(sim.now + 5)
        nodes["peer-005"].put(b"vkey", "new", version=2)
        sim.run(sim.now + 5)
        result = {}
        nodes["peer-009"].get(b"vkey", lambda v, ver: result.update(value=v, version=ver))
        sim.run(sim.now + 5)
        assert result["value"] == "new"

    def test_lower_version_does_not_regress(self):
        sim, nodes = build_dht()
        nodes["peer-000"].put(b"vkey", "current", version=5)
        sim.run(sim.now + 5)
        nodes["peer-005"].put(b"vkey", "stale", version=2)
        sim.run(sim.now + 5)
        result = {}
        nodes["peer-002"].get(b"vkey", lambda v, ver: result.update(value=v))
        sim.run(sim.now + 5)
        assert result["value"] == "current"

    def test_lookup_completes_despite_dead_contact(self):
        sim, nodes = build_dht()
        # A node that never answers: remove its handler.
        dead = "peer-011"
        nodes[dead].network._handlers.pop((dead, "dht"), None)
        nodes["peer-000"].put(b"k2", "survives", version=1)
        sim.run(sim.now + 10)
        result = {}
        nodes["peer-004"].get(b"k2", lambda v, ver: result.update(value=v))
        sim.run(sim.now + 10)
        assert result["value"] == "survives"

    def test_latency_is_rtt_scale_not_block_scale(self):
        sim, nodes = build_dht()
        start = sim.now
        done = {}
        nodes["peer-000"].put(b"fast", 1, version=1, on_done=lambda n: done.update(at=sim.now))
        sim.run(sim.now + 5)
        elapsed = done["at"] - start
        assert elapsed < 1.0  # a handful of 20 ms RTTs, nowhere near 12 s blocks
