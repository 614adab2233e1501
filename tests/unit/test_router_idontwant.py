"""Unit tests for the router's holder rule and its IDONTWANT announcements.

One router under test (``peer-p``) sits among scripted neighbours whose
handlers only log the RPCs it sends them; the test hands it RPCs as if
they came off the wire and resolves its deferred verdicts by hand.
"""

import random

import networkx as nx
import pytest

from repro.gossipsub.messages import RPC, Graft, IDontWant, IHave, IWant, PubSubMessage, Subscribe
from repro.gossipsub.msgtable import MAX_EARLY_IDONTWANTS, MCACHE_GOSSIP, MCACHE_LENGTH
from repro.gossipsub.router import GossipSubRouter, ValidationResult
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry import Telemetry

from test_router import TOPIC, build as build_fleet, publish, start_all

ACCEPT = ValidationResult.ACCEPT


def scripted(neighbours="abcd", mesh=None, deferred=True, **router_options):
    """``peer-p`` subscribed beside ``neighbours``; ``mesh`` of them grafted."""
    names = [f"peer-{n}" for n in neighbours]
    simulator = Simulator()
    graph = nx.Graph()
    graph.add_edges_from(("peer-p", name) for name in names)
    network = Network(simulator=simulator, graph=graph, latency=ConstantLatency(0.01))
    router = GossipSubRouter(
        "peer-p", network, simulator, rng=random.Random(1), **router_options
    )
    router.subscribe(TOPIC)
    inbox = {name: [] for name in names}
    for name in names:
        network.register(name, lambda sender, rpc, box=inbox[name]: box.append(rpc))
        router._on_rpc(name, RPC(subscriptions=(Subscribe(TOPIC, True),)))
    for n in neighbours if mesh is None else mesh:
        router._on_rpc(f"peer-{n}", RPC(graft=(Graft(TOPIC),)))
    verdicts: dict[bytes, Promise] = {}

    def validate(sender, message):
        verdicts[message.msg_id] = Promise()
        return verdicts[message.msg_id]

    if deferred:
        router.set_validator(TOPIC, validate)
    return simulator, router, inbox, verdicts


def message(payload: bytes) -> PubSubMessage:
    return PubSubMessage(topic=TOPIC, payload=payload)


def copies(inbox, peer):
    return [m.msg_id for rpc in inbox[f"peer-{peer}"] for m in rpc.messages]


def announcements(inbox, peer):
    return [rpc.idontwant for rpc in inbox[f"peer-{peer}"] if rpc.idontwant]


def held(router):
    """The ids whose holders the router keeps: pending verdicts and hints."""
    return {i for i in router._table if router._table.holders(i) is not None}


class TestHolders:
    def test_a_pending_message_skips_peers_that_sent_a_copy_or_an_idontwant(self):
        simulator, router, inbox, verdicts = scripted()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        router._on_rpc("peer-b", RPC(messages=(m,)))  # a copy while pending
        router._on_rpc("peer-c", RPC(idontwant=(IDontWant((m.msg_id,)),)))
        verdicts[m.msg_id].resolve(ACCEPT)
        simulator.run(1.0)
        assert copies(inbox, "d") == [m.msg_id]
        assert copies(inbox, "a") == copies(inbox, "b") == copies(inbox, "c") == []
        assert router.stats.suppressed == 2
        assert router.stats.idontwant_received == 1
        assert held(router) == set()

    def test_the_table_entry_goes_whatever_the_verdict(self):
        for verdict in ValidationResult:
            simulator, router, inbox, verdicts = scripted()
            m = message(b"m")
            router._on_rpc("peer-a", RPC(messages=(m,)))
            router._on_rpc("peer-b", RPC(messages=(m,)))
            verdicts[m.msg_id].resolve(verdict)
            simulator.run(1.0)  # an accepted id is held until its forward
            assert held(router) == set(), verdict

    def test_an_idontwant_for_a_judged_id_leaves_no_state(self):
        simulator, router, inbox, verdicts = scripted()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        verdicts[m.msg_id].resolve(ACCEPT)
        simulator.run(1.0)  # judged and forwarded
        router._on_rpc("peer-b", RPC(idontwant=(IDontWant((m.msg_id,)),)))
        assert held(router) == set()
        router.heartbeat()
        assert held(router) == set()

    def test_an_early_idontwant_spares_the_announcer_when_the_message_comes(self):
        simulator, router, inbox, verdicts = scripted(deferred=False)
        m = message(b"m")
        router._on_rpc("peer-c", RPC(idontwant=(IDontWant((m.msg_id,)),)))
        router._on_rpc("peer-a", RPC(messages=(m,)))  # inline verdict
        simulator.run(1.0)
        assert copies(inbox, "b") == copies(inbox, "d") == [m.msg_id]
        assert copies(inbox, "c") == []
        assert held(router) == set()


class TestAnnouncements:
    def test_one_idontwant_per_instant_lists_the_ids_still_pending(self):
        simulator, router, inbox, verdicts = scripted()
        m1, m2, m3, m4 = (message(b"m%d" % i) for i in range(1, 5))
        for m in (m1, m2, m3):
            router._on_rpc("peer-a", RPC(messages=(m,)))
        verdicts[m2.msg_id].resolve(ACCEPT)  # lands inside the instant
        simulator.run(0.5)
        assert announcements(inbox, "a") == []  # it sent every one
        # m2's forward waits a link latency: it is announced with the rest.
        for peer in "bcd":
            ids = (m1.msg_id, m2.msg_id, m3.msg_id)
            assert announcements(inbox, peer) == [(IDontWant(ids),)]
        router._on_rpc("peer-b", RPC(messages=(m4,)))
        simulator.run(1.0)
        for peer in "acd":
            assert announcements(inbox, peer)[-1] == (IDontWant((m4.msg_id,)),)
        assert announcements(inbox, "b")[1:] == []
        assert router.stats.idontwant_sent == 6

    def test_a_peer_that_sent_every_listed_id_is_not_told(self):
        simulator, router, inbox, verdicts = scripted()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        simulator.run(0.5)
        assert announcements(inbox, "a") == []
        for peer in "bcd":
            assert announcements(inbox, peer) == [(IDontWant((m.msg_id,)),)]
        assert router.stats.idontwant_sent == 3

    def test_each_peer_is_told_only_the_pending_ids_it_is_not_known_to_hold(self):
        simulator, router, inbox, verdicts = scripted()
        m1, m2 = message(b"m1"), message(b"m2")
        router._on_rpc("peer-a", RPC(messages=(m1,)))
        router._on_rpc("peer-b", RPC(messages=(m2,)))
        simulator.run(0.5)
        assert announcements(inbox, "a") == [(IDontWant((m2.msg_id,)),)]
        assert announcements(inbox, "b") == [(IDontWant((m1.msg_id,)),)]
        for peer in "cd":
            assert announcements(inbox, peer) == [(IDontWant((m1.msg_id, m2.msg_id)),)]
        assert inbox["peer-c"][-1] is inbox["peer-d"][-1]  # one frame, one send
        assert router.stats.idontwant_sent == 4

    def test_an_ihave_announcer_of_a_pending_id_is_not_told_it(self):
        simulator, router, inbox, verdicts = scripted()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        router._on_rpc("peer-b", RPC(ihave=(IHave(TOPIC, (m.msg_id,)),)))
        simulator.run(0.5)
        assert announcements(inbox, "a") == announcements(inbox, "b") == []
        for peer in "cd":
            assert announcements(inbox, peer) == [(IDontWant((m.msg_id,)),)]
        assert router.stats.idontwant_sent == 2 and router.stats.iwant_sent == 0

    def test_an_idontwant_sender_of_a_pending_id_is_not_told_it(self):
        simulator, router, inbox, verdicts = scripted()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        router._on_rpc("peer-c", RPC(idontwant=(IDontWant((m.msg_id,)),)))
        simulator.run(0.5)
        assert announcements(inbox, "a") == announcements(inbox, "c") == []
        for peer in "bd":
            assert announcements(inbox, peer) == [(IDontWant((m.msg_id,)),)]
        assert router.stats.idontwant_sent == 2

    def test_an_id_judged_within_its_instant_is_announced_while_its_forward_waits(self):
        simulator, router, inbox, verdicts = scripted()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        verdicts[m.msg_id].resolve(ACCEPT)
        simulator.run(1.0)
        assert announcements(inbox, "a") == []
        for peer in "bcd":
            assert announcements(inbox, peer) == [(IDontWant((m.msg_id,)),)]
        assert router.stats.idontwant_sent == 3

    def test_an_early_deferred_verdict_delivers_now_and_holds_its_forward(self):
        # The link latency is 0.01 s: the forward lands at 0.01, after the
        # IDONTWANTs the mesh sent in the first copy's instant.
        simulator, router, inbox, verdicts = scripted()
        delivered = []
        router.subscribe(TOPIC, lambda msg: delivered.append(simulator.now))
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        simulator.run(0.002)
        verdicts[m.msg_id].resolve(ACCEPT)
        assert delivered == [0.002]  # local delivery is not held
        simulator.run(0.005)
        assert all(copies(inbox, peer) == [] for peer in "abcd")
        assert m.msg_id in held(router)
        # peer-c's IDONTWANT, sent in the first copy's instant, comes in
        # at 0.01, in the instant the hold ends.
        simulator.schedule_at(
            0.01,
            lambda: router._on_rpc("peer-c", RPC(idontwant=(IDontWant((m.msg_id,)),))),
        )
        simulator.run(1.0)
        assert copies(inbox, "b") == copies(inbox, "d") == [m.msg_id]
        assert copies(inbox, "a") == copies(inbox, "c") == []
        assert router.stats.suppressed == 1
        assert delivered == [0.002] and held(router) == set()

    def test_a_verdict_landing_after_the_hold_forwards_at_once(self):
        simulator, router, inbox, verdicts = scripted()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        simulator.run(0.05)
        verdicts[m.msg_id].resolve(ACCEPT)
        assert router.stats.forwarded == 3  # sent inside resolve()
        assert held(router) == set()
        simulator.run(1.0)
        assert copies(inbox, "b") == copies(inbox, "c") == copies(inbox, "d") == [m.msg_id]

    def test_idontwant_bills_its_ids(self):
        frame = IDontWant((b"\x01" * 32, b"\x02" * 32))
        assert frame.byte_size() == 16 + 32 * 2
        assert RPC(idontwant=(frame,)).byte_size() == 16 + frame.byte_size()
        assert any(RPC(idontwant=(frame,)))

    def test_an_inline_verdict_fleet_never_announces(self):
        sim, network, routers = build_fleet(count=8)
        start_all(sim, routers)
        for index in range(5):
            publish(routers["peer-00%d" % index], b"inline-%d" % index)
        sim.run(sim.now + 2.0)
        assert sum(r.stats.delivered for r in routers.values()) == 5 * 8
        for router in routers.values():
            stats = router.stats
            assert (stats.idontwant_sent, stats.idontwant_received) == (0, 0)
            assert held(router) == set()
        # The forward waits for the instant's other copies: their senders are skipped.
        assert sum(r.stats.suppressed for r in routers.values()) > 0


class TestHostileAnnouncer:
    def test_random_ids_leave_bounded_state_that_expires(self):
        simulator, router, inbox, verdicts = scripted(neighbours="abch")
        m = message(b"real")
        rng = random.Random(5)
        ids = (m.msg_id,) + tuple(rng.randbytes(32) for _ in range(100_000))
        router._on_rpc("peer-h", RPC(idontwant=(IDontWant(ids),)))
        assert len(held(router)) == len(router._table) == MAX_EARLY_IDONTWANTS
        assert all(r.holders == {"peer-h"} for r in router._table.values())

        # The hostile peer only ever leaves its own forward.
        router._on_rpc("peer-a", RPC(messages=(m,)))
        verdicts[m.msg_id].resolve(ACCEPT)
        simulator.run(1.0)
        assert copies(inbox, "b") == copies(inbox, "c") == [m.msg_id]
        assert copies(inbox, "h") == []
        assert router.stats.suppressed == 1

        # The hints live for the mcache window: MCACHE_LENGTH heartbeats.
        for _ in range(MCACHE_LENGTH - 1):
            router.heartbeat()
        assert len(held(router)) == MAX_EARLY_IDONTWANTS - 1  # minus the judged id
        router.heartbeat()
        assert held(router) == set()
        assert len(router._table) == 1  # the judged id stays witnessed
        assert router._table._hints["peer-h"] == 0
        # With the window gone, the cap admits the sender's hints again.
        router._on_rpc("peer-h", RPC(idontwant=(IDontWant(ids[-2:]),)))
        assert len(held(router)) == 2


class TestThinMeshFallback:
    def test_fallback_fires_when_the_mesh_less_the_sender_is_empty(self):
        simulator, router, inbox, verdicts = scripted(neighbours="abc", mesh="a")
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        verdicts[m.msg_id].resolve(ACCEPT)
        simulator.run(1.0)
        assert copies(inbox, "b") == copies(inbox, "c") == [m.msg_id]
        assert router.stats.suppressed == 0

    def test_fallback_targets_lose_their_holders_too(self):
        simulator, router, inbox, verdicts = scripted(neighbours="abc", mesh="a")
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        router._on_rpc("peer-c", RPC(idontwant=(IDontWant((m.msg_id,)),)))
        verdicts[m.msg_id].resolve(ACCEPT)
        simulator.run(1.0)
        assert copies(inbox, "b") == [m.msg_id]
        assert copies(inbox, "c") == []

    def test_a_mesh_that_holds_the_message_never_falls_back(self):
        simulator, router, inbox, verdicts = scripted(neighbours="abc", mesh="ab")
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        router._on_rpc("peer-b", RPC(messages=(m,)))
        verdicts[m.msg_id].resolve(ACCEPT)
        simulator.run(1.0)
        assert copies(inbox, "a") == copies(inbox, "b") == copies(inbox, "c") == []
        assert router.stats.suppressed == 1


class TestIdleHeartbeats:
    def test_a_message_kept_after_idle_heartbeats_expires_on_time(self):
        # A fresh router's window list is shorter than MCACHE_LENGTH, and an
        # idle heartbeat (meshes full and linked, no id windowed) must grow
        # it as a full one does: a message kept afterwards is served for
        # MCACHE_LENGTH heartbeats and gossiped for MCACHE_GOSSIP.
        simulator, router, inbox, _ = scripted("abcdef", mesh="abcd", deferred=False)
        for _ in range(2):
            assert router._table.idle()
            router.heartbeat()
            simulator.run(simulator.now + 1.0)
        m = router.publish(TOPIC, b"m")
        simulator.run(simulator.now + 0.5)
        served, gossiped = [], []
        for beat in range(MCACHE_LENGTH + 2):
            asker = f"peer-{'abcdef'[beat % 6]}"  # each asks at most twice
            before = len(inbox[asker])
            router._on_rpc(asker, RPC(iwant=(IWant((m.msg_id,)),)))
            simulator.run(simulator.now + 0.5)
            served.append(any(rpc.messages for rpc in inbox[asker][before:]))
            before = {name: len(rpcs) for name, rpcs in inbox.items()}
            router.heartbeat()
            simulator.run(simulator.now + 0.5)
            gossiped.append(any(
                m.msg_id in ihave.msg_ids
                for name, rpcs in inbox.items()
                for rpc in rpcs[before[name]:]
                for ihave in rpc.ihave
            ))
        assert served == [True] * MCACHE_LENGTH + [False] * 2
        assert gossiped == [True] * MCACHE_GOSSIP + [False] * (MCACHE_LENGTH + 2 - MCACHE_GOSSIP)
        assert router._table.idle()

    def test_a_broken_promise_marks_the_penalty_series(self):
        telemetry = Telemetry()
        simulator, router, _, _ = scripted(
            "abcdef", mesh="abcd", deferred=False, score_params=ScoreParams(), telemetry=telemetry
        )
        registry = telemetry.registry
        router._on_rpc("peer-e", RPC(ihave=(IHave(TOPIC, (b"u" * 32,)),)))  # never delivered
        simulator.run(0.5)
        for _ in range(3):
            registry.changed()
            before = router.stats.behaviour_penalties
            router.heartbeat()
            if router.stats.behaviour_penalties > before:
                marked = {key for key, _ in registry.changed()}
                assert "gossipsub_penalties_total{kind=behaviour,peer=peer-p}" in marked
                return
            simulator.run(simulator.now + 1.0)
        pytest.fail("no promise was broken")
