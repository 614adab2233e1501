"""Unit tests for the network transport."""

import random

import pytest

from repro.errors import NotConnected, UnknownPeer
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh, peer_names
from repro.net.transport import Network


@pytest.fixture()
def net():
    sim = Simulator()
    network = Network(
        simulator=sim,
        graph=full_mesh(4),
        latency=ConstantLatency(0.1),
        rng=random.Random(1),
    )
    return sim, network


class TestDelivery:
    def test_send_delivers_after_latency(self, net):
        sim, network = net
        inbox = []
        network.register("peer-001", lambda s, p: inbox.append((sim.now, s, p)))
        network.send("peer-000", "peer-001", b"hello")
        assert inbox == []
        sim.run_until_idle()
        assert inbox == [(0.1, "peer-000", b"hello")]

    def test_send_requires_edge(self):
        sim = Simulator()
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(peer_names(2))
        network = Network(simulator=sim, graph=graph)
        with pytest.raises(NotConnected):
            network.send("peer-000", "peer-001", b"x")

    def test_unknown_peer_rejected(self, net):
        _, network = net
        with pytest.raises(UnknownPeer):
            network.send("peer-000", "ghost", b"x")
        with pytest.raises(UnknownPeer):
            network.register("ghost", lambda s, p: None)

    def test_unregistered_recipient_drops_silently(self, net):
        sim, network = net
        network.send("peer-000", "peer-001", b"x")
        sim.run_until_idle()  # no handler: no crash

    def test_protocol_channels_are_separate(self, net):
        sim, network = net
        gossip, store = [], []
        network.register("peer-001", lambda s, p: gossip.append(p))
        network.register("peer-001", lambda s, p: store.append(p), protocol="store")
        network.send("peer-000", "peer-001", b"g")
        network.send("peer-000", "peer-001", b"s", protocol="store")
        sim.run_until_idle()
        assert gossip == [b"g"] and store == [b"s"]

    def test_drop_probability(self):
        sim = Simulator()
        network = Network(
            simulator=sim,
            graph=full_mesh(2),
            rng=random.Random(5),
            drop_probability=1.0,
        )
        inbox = []
        network.register("peer-001", lambda s, p: inbox.append(p))
        network.send("peer-000", "peer-001", b"x")
        sim.run_until_idle()
        assert inbox == []
        # Sender still pays the bandwidth.
        assert network.stats["peer-000"].messages_sent == 1


class TestAccounting:
    def test_bytes_counted_both_ends(self, net):
        sim, network = net
        network.register("peer-001", lambda s, p: None)
        network.send("peer-000", "peer-001", b"12345678")
        sim.run_until_idle()
        assert network.stats["peer-000"].bytes_sent == 8
        assert network.stats["peer-001"].bytes_received == 8

    def test_byte_size_method_preferred(self, net):
        sim, network = net

        class Sized:
            def byte_size(self):
                return 1000

        network.register("peer-001", lambda s, p: None)
        network.send("peer-000", "peer-001", Sized())
        assert network.stats["peer-000"].bytes_sent == 1000

    def test_opaque_payload_flat_cost(self, net):
        _, network = net
        network.send("peer-000", "peer-001", object())
        assert network.stats["peer-000"].bytes_sent == 64

    def test_totals(self, net):
        sim, network = net
        network.send("peer-000", "peer-001", b"abcd")
        network.send("peer-000", "peer-002", b"ef")
        assert network.total_messages() == 2
        assert network.total_bytes() == 6


class TestDynamicTopology:
    def test_add_peer_connects(self, net):
        sim, network = net
        network.add_peer("late-joiner", ["peer-000"])
        inbox = []
        network.register("late-joiner", lambda s, p: inbox.append(p))
        network.send("peer-000", "late-joiner", b"welcome")
        sim.run_until_idle()
        assert inbox == [b"welcome"]

    def test_add_duplicate_rejected(self, net):
        _, network = net
        with pytest.raises(UnknownPeer):
            network.add_peer("peer-000", [])

    def test_add_with_unknown_neighbor_rejected(self, net):
        _, network = net
        with pytest.raises(UnknownPeer):
            network.add_peer("x", ["ghost"])

    def test_a_refused_join_changes_nothing(self, net):
        _, network = net
        links = {peer: set(linked) for peer, linked in network.links.items()}
        with pytest.raises(UnknownPeer):
            network.add_peer("late", ["peer-000", "ghost"])
        assert network.links == links and "late" not in network.stats
        network.add_peer("late", ["peer-000"])  # a retry is a fresh join
        assert network.neighbors("late") == ["peer-000"]

    def test_a_rejoin_keeps_the_traffic_billed_before_it_left(self, net):
        sim, network = net
        network.add_peer("temp", ["peer-000"])
        network.send("temp", "peer-000", b"abcd")
        network.remove_peer("temp")
        network.add_peer("temp", ["peer-001"])
        assert network.stats["temp"].bytes_sent == 4 and network.total_messages() == 1

    def test_remove_peer_stops_delivery(self, net):
        sim, network = net
        network.add_peer("temp", ["peer-000"])
        network.register("temp", lambda s, p: None)
        network.remove_peer("temp")
        with pytest.raises(UnknownPeer):
            network.send("peer-000", "temp", b"x")

    def test_disconnect_severs_link(self, net):
        _, network = net
        network.disconnect("peer-000", "peer-001")
        with pytest.raises(NotConnected):
            network.send("peer-000", "peer-001", b"x")

    def test_connect_heals_a_cut_link_both_ways(self, net):
        sim, network = net
        inbox = []
        network.register("peer-000", lambda s, p: inbox.append(p))
        network.disconnect("peer-000", "peer-001")
        network.connect("peer-001", "peer-000")
        assert network.connected("peer-000", "peer-001")
        network.send("peer-001", "peer-000", b"back")
        sim.run_until_idle()
        assert inbox == [b"back"]
        with pytest.raises(UnknownPeer):
            network.connect("peer-000", "ghost")
        assert "ghost" not in network.links
