"""``Network.send`` to a sequence of peers: every target checked before
anything is billed or scheduled; copies due at one instant, sent back to
back (one call or several), share one event."""

import random

import pytest

from repro.errors import NotConnected, UnknownPeer
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network


def received(stats) -> int:
    """Copies a peer received, over every protocol."""
    return sum(t.messages_received for t in stats.per_protocol.values())


def network(latency=ConstantLatency(0.1)):
    sim = Simulator()
    graph = full_mesh(5)
    graph.add_node("loner")  # in the topology, linked to nobody
    return sim, Network(simulator=sim, graph=graph, latency=latency, rng=random.Random(7))


TARGETS = ["peer-001", "peer-002", "peer-003"]


@pytest.mark.parametrize("position", [0, 1, 3])
@pytest.mark.parametrize(
    "bad, error", [("loner", NotConnected), ("ghost", UnknownPeer)]
)
def test_a_bad_target_anywhere_refuses_the_whole_send(position, bad, error):
    sim, net = network(UniformLatency(0.01, 0.2))
    rng_state = net.rng.getstate()
    targets = TARGETS[:position] + [bad] + TARGETS[position:]
    with pytest.raises(error):
        net.send("peer-000", targets, b"x")
    assert net.total_messages() == 0 and net.total_bytes() == 0
    assert all(not stats.per_protocol for stats in net.stats.values())
    assert sim.pending_events == 0
    assert net.rng.getstate() == rng_state


def test_an_unknown_sender_is_refused():
    _, net = network()
    with pytest.raises(UnknownPeer):
        net.send("ghost", TARGETS, b"x")


def test_equal_delays_share_one_event_and_deliver_in_target_order():
    sim, net = network()
    inbox = []
    for peer in TARGETS:
        net.register(peer, lambda s, p, peer=peer: inbox.append((sim.now, peer, s, p)))
    net.send("peer-000", list(reversed(TARGETS)), b"hello")
    assert sim.pending_events == 1
    sim.run_until_idle()
    assert sim.processed_events == 1
    assert inbox == [(0.1, peer, "peer-000", b"hello") for peer in reversed(TARGETS)]
    assert net.total_messages() == 3
    assert net.stats["peer-000"].bytes_sent == 15
    assert all(received(net.stats[peer]) == 1 for peer in TARGETS)


def test_unequal_delays_are_separate_events():
    sim, net = network(UniformLatency(0.01, 0.2))
    net.send("peer-000", TARGETS, b"x")
    assert sim.pending_events == 3


def test_a_raising_handler_does_not_strand_the_rest_of_its_event():
    sim, net = network()
    inbox = []

    def explode(sender, payload):
        inbox.append("peer-002")
        raise RuntimeError("handler bug")

    net.register("peer-001", lambda s, p: inbox.append("peer-001"))
    net.register("peer-002", explode)
    net.register("peer-003", lambda s, p: inbox.append("peer-003"))
    net.send("peer-000", TARGETS, b"x")
    with pytest.raises(RuntimeError, match="handler bug"):
        sim.run_until_idle()
    assert inbox == TARGETS
    assert all(received(net.stats[peer]) == 1 for peer in TARGETS)


def test_a_handler_removing_a_later_member_stops_its_copy():
    sim, net = network()
    inbox = []

    def evict(sender, payload):
        inbox.append("peer-001")
        net.remove_peer("peer-003")

    net.register("peer-001", evict)
    net.register("peer-002", lambda s, p: inbox.append("peer-002"))
    net.register("peer-003", lambda s, p: inbox.append("peer-003"))
    net.send("peer-000", TARGETS, b"x")
    sim.run_until_idle()
    assert inbox == ["peer-001", "peer-002"]
    assert received(net.stats["peer-003"]) == 0
    assert net.stats["peer-000"].messages_sent == 3  # billed at send time


def test_totals_are_sums_over_the_protocol_slices():
    sim, net = network()
    for peer in TARGETS:
        net.register(peer, lambda s, p: None)
        net.register(peer, lambda s, p: None, protocol="store")
    net.send("peer-000", TARGETS, b"abcd")
    net.send("peer-000", "peer-001", b"ef", protocol="store")
    sim.run_until_idle()
    sender = net.stats["peer-000"]
    assert sender.messages_sent == 4 and sender.bytes_sent == 14
    assert sender.per_protocol["gossipsub"].bytes_sent == 12
    assert sender.per_protocol["store"].bytes_sent == 2
    receiver = net.stats["peer-001"]
    assert received(receiver) == 2 and receiver.bytes_received == 6
    assert net.protocol_bytes() == {"gossipsub": 12, "store": 2}
    with pytest.raises(AttributeError):
        sender.bytes_sent = 0  # the totals are derived, never written


# -- one delivery batch across calls -------------------------------------------


def test_back_to_back_sends_due_at_one_instant_share_one_event():
    sim, net = network()
    inbox = []
    for peer in ("peer-001", "peer-002", "peer-003"):
        for protocol in ("gossipsub", "store"):
            net.register(
                peer,
                lambda s, p, peer=peer, protocol=protocol: inbox.append((peer, s, protocol, p)),
                protocol=protocol,
            )
    net.send("peer-000", ["peer-001", "peer-002"], b"a")
    net.send("peer-004", "peer-003", b"b", protocol="store")
    net.send("peer-002", ["peer-003", "peer-001"], b"c")
    assert sim.pending_events == 1
    sim.run_until_idle()
    assert sim.processed_events == 1
    assert inbox == [
        ("peer-001", "peer-000", "gossipsub", b"a"),
        ("peer-002", "peer-000", "gossipsub", b"a"),
        ("peer-003", "peer-004", "store", b"b"),
        ("peer-003", "peer-002", "gossipsub", b"c"),
        ("peer-001", "peer-002", "gossipsub", b"c"),
    ]


def test_an_event_scheduled_between_two_sends_keeps_its_place():
    sim, net = network()
    order = []
    net.register("peer-001", lambda s, p: order.append(p))
    net.send("peer-000", "peer-001", "A")
    sim.schedule(0.1, lambda: order.append("X"))  # due at the same instant
    net.send("peer-000", "peer-001", "B")
    assert sim.pending_events == 3
    sim.run_until_idle()
    assert order == ["A", "X", "B"]


def test_a_delay_zero_resend_from_a_delivery_is_delivered():
    sim, net = network(ConstantLatency(0.0))
    inbox = []

    def relay(sender, payload):
        inbox.append(("peer-001", payload))
        if payload == b"ping":
            net.send("peer-001", ["peer-002", "peer-003"], b"pong")

    net.register("peer-001", relay)
    for peer in ("peer-002", "peer-003"):
        net.register(peer, lambda s, p, peer=peer: inbox.append((peer, p)))
    net.send("peer-000", ["peer-001", "peer-002"], b"ping")
    sim.run_until_idle()
    assert inbox == [
        ("peer-001", b"ping"),
        ("peer-002", b"ping"),
        ("peer-002", b"pong"),
        ("peer-003", b"pong"),
    ]
    assert sim.processed_events == 2 and sim.now == 0.0


def test_a_raising_first_entry_does_not_strand_later_sends():
    sim, net = network()
    inbox = []

    def explode(sender, payload):
        inbox.append(("peer-001", payload))
        raise RuntimeError("handler bug")

    net.register("peer-001", explode)
    net.register("peer-002", lambda s, p: inbox.append(("peer-002", p)))
    net.send("peer-000", "peer-001", b"x")
    net.send("peer-003", "peer-002", b"y")
    net.send("peer-004", "peer-001", b"z")
    with pytest.raises(RuntimeError, match="handler bug"):
        sim.run_until_idle()
    assert inbox == [("peer-001", b"x"), ("peer-002", b"y"), ("peer-001", b"z")]
    assert sim.pending_events == 0
