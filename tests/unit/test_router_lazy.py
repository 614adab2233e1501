"""Unit tests for lazy push: eager copies to ``D_EAGER`` mesh targets, IHAVE
to the rest, both decided once per instant past the holders; one IWANT per
announced id, one link latency later, re-asked when a promise breaks.

Scripted tests put one router (``peer-p``) among neighbours that only log
what it sends them (``test_router_idontwant.scripted``); fleet tests run
real routers over a star or a random regular graph.
"""

import random
import zlib

import networkx as nx

from repro.core.deployment import RLNDeployment
from repro.gossipsub import router as router_module
from repro.gossipsub.messages import RPC, Graft, IDontWant, IHave, IWant, Prune, Subscribe
from repro.gossipsub.msgtable import GOSSIP_RETRANSMISSION, MCACHE_LENGTH
from repro.gossipsub.router import D_EAGER, GossipSubParams, GossipSubRouter, ValidationResult
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry import CollectorOptions

from test_router import TOPIC, build, publish, start_all
from test_router_idontwant import copies, message, scripted

ACCEPT = ValidationResult.ACCEPT


def ihave(*messages) -> RPC:
    return RPC(ihave=(IHave(TOPIC, tuple(m.msg_id for m in messages)),))


def iwants(inbox, peer):
    return [i.msg_ids for rpc in inbox[f"peer-{peer}"] for i in rpc.iwant]


def announced(inbox, peer):
    return [i.msg_ids for rpc in inbox[f"peer-{peer}"] for i in rpc.ihave]


def all_iwants(inbox):
    return [(peer, ids) for peer in sorted(inbox) for ids in iwants(inbox, peer[-1])]


def scored():
    """``scripted`` with peer scoring on."""
    simulator, router, inbox, _ = scripted("abc", deferred=False, score_params=ScoreParams())
    return simulator, router, inbox


class TestEagerAndLazy:
    def test_a_relay_sends_d_eager_copies_and_announces_to_the_rest(self):
        simulator, router, inbox, _ = scripted(neighbours="abcdef", deferred=False)
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        simulator.run(1.0)
        full = [n for n in "bcdef" if copies(inbox, n) == [m.msg_id]]
        lazy = [n for n in "bcdef" if announced(inbox, n) == [(m.msg_id,)]]
        assert len(full) == D_EAGER == 3
        assert sorted(full + lazy) == list("bcdef")
        assert copies(inbox, "a") == announced(inbox, "a") == []
        assert router.stats.forwarded == 3 and router.stats.gossip_sent == 2

    def test_a_publisher_floods_its_whole_mesh(self):
        simulator, router, inbox, _ = scripted(neighbours="abcdef", deferred=False)
        m = router.publish(TOPIC, b"own")
        simulator.run(1.0)
        assert all(copies(inbox, n) == [m.msg_id] for n in "abcdef")
        assert router.stats.gossip_sent == 0

    def test_one_ihave_per_lazy_peer_per_instant_lists_every_id(self):
        simulator, router, inbox, _ = scripted(neighbours="abcdef", deferred=False)
        m1, m2 = message(b"m1"), message(b"m2")
        router._on_rpc("peer-a", RPC(messages=(m1,)))
        router._on_rpc("peer-a", RPC(messages=(m2,)))
        simulator.run(1.0)
        lazy = [n for n in "bcdef" if announced(inbox, n)]
        assert len(lazy) == 2
        for n in lazy:
            assert announced(inbox, n) == [(m1.msg_id, m2.msg_id)]
        frames = [inbox[f"peer-{n}"][-1] for n in lazy]
        assert frames[0] is frames[1]  # one frame, handed over in one send

    def test_the_eager_peers_stay_the_same_until_the_mesh_changes(self):
        simulator, router, inbox, _ = scripted(neighbours="abcdef", deferred=False)
        m1, m2, m3 = message(b"m1"), message(b"m2"), message(b"m3")
        router._on_rpc("peer-a", RPC(messages=(m1,)))
        router._on_rpc("peer-a", RPC(messages=(m2,)))
        simulator.run(1.0)
        eager = [n for n in "bcdef" if copies(inbox, n)]
        assert all(copies(inbox, n) == [m1.msg_id, m2.msg_id] for n in eager)
        router._on_rpc(f"peer-{eager[0]}", RPC(prune=(Prune(TOPIC),)))
        router._on_rpc("peer-a", RPC(messages=(m3,)))
        simulator.run(2.0)
        now = [n for n in "bcdef" if m3.msg_id in copies(inbox, n)]
        assert len(now) == D_EAGER and set(eager[1:]) < set(now)

    def test_the_remembered_eager_order_is_the_crc32_ranking_through_mesh_churn(self):
        simulator, router, inbox, _ = scripted(neighbours="abcdef", deferred=False)
        network = router.network
        router.start()

        def crc32_rank(peer):
            return (zlib.crc32(f"peer-p>{peer}".encode()), peer)

        def join(name):
            network.add_peer(name, ["peer-p"])
            inbox[name] = []
            network.register(name, lambda sender, rpc, box=inbox[name]: box.append(rpc))
            router._on_rpc(name, RPC(subscriptions=(Subscribe(TOPIC, True),)))
            router._on_rpc(name, RPC(graft=(Graft(TOPIC),)))

        def relay(payload):
            """Relay one copy from a: its eager targets are the CRC32 ranking's first."""
            m = message(payload)
            targets = router._mesh[TOPIC] - {"peer-a"}
            router._on_rpc("peer-a", RPC(messages=(m,)))
            simulator.run(simulator.now + 0.5)
            full = {name for name, box in inbox.items() if any(m in r.messages for r in box)}
            assert full == set(sorted(targets, key=crc32_rank)[:D_EAGER])
            assert all(router._eager_rank[peer] == crc32_rank(peer) for peer in targets)
            return targets

        relay(b"before")
        join("peer-g")  # first seen after start()
        assert "peer-g" in relay(b"newcomer")
        network.remove_peer("peer-b")  # the next heartbeat drops it from the mesh
        simulator.run(simulator.now + 1.5)
        assert "peer-b" not in relay(b"left")
        join("peer-b")  # and it comes back
        assert "peer-b" in relay(b"back")
        assert set(router._eager_rank) == {f"peer-{n}" for n in "bcdefg"}

    def test_two_same_instant_senders_get_no_copy_and_their_slot_stays_empty(self):
        # Eager order from peer-p: c, b, f, then d, e (a is the sender).
        simulator, router, inbox, _ = scripted(neighbours="abcdef", deferred=False)
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))  # the inline verdict
        router._on_rpc("peer-b", RPC(messages=(m,)))  # a copy, same instant
        simulator.run(1.0)
        assert [n for n in "abcdef" if copies(inbox, n)] == ["c", "f"]
        assert [n for n in "abcdef" if announced(inbox, n)] == ["d", "e"]  # d not promoted
        assert router.stats.forwarded == 2 and router.stats.suppressed == 1

    def test_each_lazy_peer_hears_only_the_ids_it_was_lazy_for(self):
        # Eager from peer-p: c, b, f past a; c, f, d past b.  Lazy: d, e; a, e.
        simulator, router, inbox, _ = scripted(neighbours="abcdef", deferred=False)
        m1, m2 = message(b"m1"), message(b"m2")
        router._on_rpc("peer-a", RPC(messages=(m1,)))
        router._on_rpc("peer-b", RPC(messages=(m2,)))
        simulator.run(1.0)
        assert announced(inbox, "d") == [(m1.msg_id,)]
        assert announced(inbox, "e") == [(m1.msg_id, m2.msg_id)]
        assert announced(inbox, "a") == [(m2.msg_id,)]
        assert all(announced(inbox, n) == [] for n in "bcf")
        assert router.stats.gossip_sent == 3


class TestFetch:
    def test_k_announcers_of_one_id_produce_one_iwant(self):
        simulator, router, inbox, _ = scripted(neighbours="abcde", deferred=False)
        m = message(b"m")
        for n in "abc":
            router._on_rpc(f"peer-{n}", ihave(m))
        simulator.run(0.5)
        assert all_iwants(inbox) == [("peer-a", (m.msg_id,))]
        router._on_rpc("peer-d", ihave(m))  # a later announcer is not asked
        simulator.run(1.0)
        assert all_iwants(inbox) == [("peer-a", (m.msg_id,))]
        assert router.stats.iwant_sent == 1

    def test_a_later_forward_skips_the_announcers(self):
        # Eager order from peer-p past a: c, b, d, then e.
        simulator, router, inbox, _ = scripted(neighbours="abcde", deferred=False)
        m = message(b"m")
        for n in "bcd":
            router._on_rpc(f"peer-{n}", ihave(m))
        router._on_rpc("peer-a", RPC(messages=(m,)))  # the copy, same instant
        simulator.run(1.0)
        assert all_iwants(inbox) == []  # it came before the instant ended
        assert all(copies(inbox, n) == announced(inbox, n) == [] for n in "abcd")
        # The announcers' eager slots are not refilled: e stays lazy.
        assert copies(inbox, "e") == [] and announced(inbox, "e") == [(m.msg_id,)]
        assert router.stats.suppressed == 3 and router.stats.forwarded == 0

    def test_a_copy_within_one_link_latency_of_the_ihave_is_never_asked(self):
        simulator, router, inbox, _ = scripted(neighbours="abc", deferred=False)
        m = message(b"m")
        wait = router.network.latency.worst_case()
        router._on_rpc("peer-a", ihave(m))
        simulator.schedule(wait, lambda: router._on_rpc("peer-b", RPC(messages=(m,))))
        simulator.run(1.0)
        assert all_iwants(inbox) == [] and router.stats.iwant_sent == 0
        assert router.stats.delivered == 1

    def test_an_id_whose_copy_never_comes_is_asked_once_after_one_link_latency(self):
        simulator, router, inbox, _ = scripted(neighbours="abc", deferred=False)
        m = message(b"m")
        wait = router.network.latency.worst_case()
        router._on_rpc("peer-a", ihave(m))
        simulator.run(wait / 2)
        assert router.stats.iwant_sent == 0
        simulator.run(wait)
        assert router.stats.iwant_sent == 1
        simulator.run(0.9)  # no heartbeat: the re-ask waits for a broken promise
        assert all_iwants(inbox) == [("peer-a", (m.msg_id,))]

    def test_the_ask_waits_out_the_routers_own_forward_lag_for_two_heartbeats(self):
        simulator, router, inbox, verdicts = scripted(neighbours="abc")
        link = router.network.latency.worst_case()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        simulator.run(0.05)
        verdicts[m.msg_id].resolve(ACCEPT)  # past the hold: forwarded at once, L = 0.05
        for heartbeats, wait in enumerate((link + 0.05, link + 0.05, link)):
            if heartbeats:
                router.heartbeat()  # the second re-asks the first hint now
                simulator.run(simulator.now)
            hint, start, sent = message(b"h%d" % heartbeats), simulator.now, router.stats.iwant_sent
            router._on_rpc("peer-b", ihave(hint))
            simulator.run(start + wait - 0.001)
            assert router.stats.iwant_sent == sent, heartbeats
            simulator.run(start + wait + 0.001)
            assert router.stats.iwant_sent == sent + 1, heartbeats

    def test_an_unmet_promise_is_reasked_of_the_next_announcer(self):
        simulator, router, inbox = scored()
        m = message(b"m")
        for n in "bca":
            router._on_rpc(f"peer-{n}", ihave(m))
        simulator.run(0.5)
        assert all_iwants(inbox) == [("peer-b", (m.msg_id,))]
        router.heartbeat()  # the ask's own window closes: not yet due
        simulator.run(simulator.now + 0.01)
        assert all_iwants(inbox) == [("peer-b", (m.msg_id,))]
        router.heartbeat()  # a whole window without the copy: broken
        simulator.run(simulator.now + 0.01)
        assert iwants(inbox, "c") == [(m.msg_id,)]  # the next announcer
        assert router.stats.broken_promises == 1
        assert router.stats.behaviour_penalties == 1
        assert router.scoring.score("peer-b", simulator.now) < 0
        assert router.scoring.score("peer-c", simulator.now) >= 0

    def test_an_idontwant_holder_is_neither_asked_nor_penalised(self):
        simulator, router, inbox = scored()
        m = message(b"m")
        router._on_rpc("peer-a", RPC(idontwant=(IDontWant((m.msg_id,)),)))
        router._on_rpc("peer-b", ihave(m))
        simulator.run(0.5)
        for _ in range(2):
            router.heartbeat()
            simulator.run(simulator.now + 0.01)
        assert iwants(inbox, "a") == []  # it made no promise
        assert iwants(inbox, "b") == [(m.msg_id,), (m.msg_id,)]
        assert router.stats.broken_promises == router.stats.behaviour_penalties == 1
        assert router.scoring.score("peer-a", simulator.now) >= 0
        assert router.scoring.score("peer-b", simulator.now) < 0

    def test_an_expired_hint_named_again_by_an_idontwant_is_not_an_ask(self):
        simulator, router, inbox = scored()
        fake = message(b"never-sent")
        router._on_rpc("peer-a", ihave(fake))
        simulator.run(0.5)
        for _ in range(MCACHE_LENGTH):  # the hint expires in the last one
            router.heartbeat()
        assert router._table.holders(fake.msg_id) is None
        router._on_rpc("peer-b", RPC(idontwant=(IDontWant((fake.msg_id,)),)))
        router.heartbeat()
        simulator.run(simulator.now + 0.5)
        assert iwants(inbox, "b") == []
        assert router.stats.broken_promises == MCACHE_LENGTH - 1

    def test_a_peer_is_served_one_message_at_most_gossip_retransmission_times(self):
        simulator, router, inbox, _ = scripted(neighbours="abc", deferred=False)
        m = message(b"m")
        router._on_rpc("peer-a", RPC(messages=(m,)))
        simulator.run(0.5)
        before = len(copies(inbox, "b"))
        for _ in range(10):
            router._on_rpc("peer-b", RPC(iwant=(IWant((m.msg_id,)),)))
        router._on_rpc("peer-c", RPC(iwant=(IWant((m.msg_id,)),)))
        simulator.run(1.0)
        assert len(copies(inbox, "b")) - before == GOSSIP_RETRANSMISSION == 3
        assert router.stats.iwant_served == GOSSIP_RETRANSMISSION + 1

    def test_a_kept_promise_costs_nothing(self):
        simulator, router, inbox = scored()
        m = message(b"m")
        router._on_rpc("peer-a", ihave(m))
        simulator.run(0.5)
        router._on_rpc("peer-a", RPC(messages=(m,)))  # the IWANT answered
        for _ in range(3):
            router.heartbeat()
        simulator.run(simulator.now + 0.5)
        assert all_iwants(inbox) == [("peer-a", (m.msg_id,))]
        assert router.stats.broken_promises == router.stats.behaviour_penalties == 0


def star(leaves: int = 5):
    """``peer-000`` at the hub, ``peer-001`` publishing, the rest leaves."""
    sim = Simulator()
    graph = nx.star_graph(leaves + 1)
    graph = nx.relabel_nodes(graph, {i: "peer-%03d" % i for i in graph.nodes})
    network = Network(simulator=sim, graph=graph, latency=ConstantLatency(0.01))
    routers = {
        peer: GossipSubRouter(peer, network, sim, rng=random.Random(i))
        for i, peer in enumerate(sorted(graph.nodes))
    }
    return sim, routers


def without_copies(router) -> None:
    """Make ``router``'s eager forwards no-ops: its IHAVEs and IWANT serves stay."""
    forward, send_all = router._forward, router._send_all

    def forward_without_copies(message, **kwargs):
        router._send_all = lambda peers, rpc: None if rpc.messages else send_all(peers, rpc)
        try:
            forward(message, **kwargs)
        finally:
            router._send_all = send_all

    router._forward = forward_without_copies


class TestFleet:
    def test_a_relay_whose_eager_forwards_are_no_ops_still_serves_its_lazy_peers(self):
        sim, routers = star()
        start_all(sim, routers)
        hub = routers["peer-000"]
        without_copies(hub)
        m = publish(routers["peer-001"], b"through-the-hub")
        sim.run(sim.now + 2.0)
        leaves = [routers["peer-%03d" % i] for i in range(2, 7)]
        served = [r for r in leaves if r.stats.delivered == 1]
        assert len(served) == len(leaves) - D_EAGER == 2
        assert all(r._table.seen(m.msg_id) for r in served)
        assert hub.stats.iwant_served == 2
        assert sum(r.stats.iwant_sent for r in served) == 2

    def test_d_eager_d_delivers_when_the_flood_did_with_no_more_copies(self, monkeypatch):
        # This fleet's flood before lazy push existed: per-router forward
        # counts, and each message's delivery instant per router in 10-ms hops.
        flood = [25, 20, 12, 13, 20, 24, 21, 16, 20, 21, 20, 24]
        flood_hops = [
            [0, 1, 2, 2, 1, 1, 1, 1, 2, 1, 1, 2],
            [2, 1, 2, 0, 2, 2, 1, 2, 2, 1, 2, 1],
            [1, 1, 2, 1, 1, 2, 0, 2, 1, 2, 1, 2],
            [1, 2, 1, 1, 2, 1, 2, 1, 1, 0, 2, 2],
        ]
        counts = {}
        for d_eager in (GossipSubParams().d, D_EAGER):
            monkeypatch.setattr(router_module, "D_EAGER", d_eager)
            sim, network, routers = build(count=12, degree=7, seed=3)
            start_all(sim, routers)
            delivered: dict[bytes, dict[str, float]] = {}
            for name, router in routers.items():
                router.subscribe(
                    TOPIC,
                    lambda m, name=name: delivered.setdefault(m.payload, {}).update({name: sim.now}),
                )
            sent = {}
            for i in range(4):
                sent[b"flood-%d" % i] = sim.now
                publish(routers["peer-%03d" % (3 * i)], b"flood-%d" % i)
                sim.run(sim.now + 0.5)
            sim.run(sim.now + 3.0)
            assert sum(r.stats.delivered for r in routers.values()) == 4 * 12
            counts[d_eager] = [routers[p].stats.forwarded for p in sorted(routers)]
            if d_eager == GossipSubParams().d:
                assert all(r.stats.iwant_sent == 0 for r in routers.values())
                hops = [
                    [round((delivered[p][name] - sent[p]) / 0.01) for name in sorted(routers)]
                    for p in sorted(sent)
                ]
                assert hops == flood_hops
        assert all(now <= then for now, then in zip(counts[GossipSubParams().d], flood))
        assert sum(counts[D_EAGER]) < sum(counts[GossipSubParams().d]) < sum(flood)

    def test_a_fetched_copy_names_the_serving_peer_as_its_causal_parent(self):
        graph = nx.relabel_nodes(nx.star_graph(6), {i: "peer-%03d" % i for i in range(7)})
        dep = RLNDeployment.create(
            peer_count=7, graph=graph, seed=5, collector=CollectorOptions(trace_sample=1.0)
        )
        dep.register_all()
        dep.form_meshes()
        dep.peer("peer-001").publish(b"fetched")
        dep.run(5.0)
        dep.flush_telemetry()
        hub = dep.peer("peer-000").relay.router
        fetchers = [
            peer_id
            for peer_id in dep.peer_ids()
            if dep.peer(peer_id).relay.router.stats.iwant_sent
        ]
        assert len(fetchers) == 6 - 1 - D_EAGER == 2
        assert hub.stats.iwant_served == 2
        assembler = dep.collector.assembler
        (trace_id,) = assembler.trace_ids()
        spans = {s.peer: s for s in assembler.spans(trace_id) if s.kind == "bundle"}
        for peer_id in fetchers:
            assert spans[peer_id].parent_id == spans["peer-000"].span_id
        (root,) = (s for s in assembler.spans(trace_id) if s.kind == "publish")
        assert root.peer == "peer-001" and spans["peer-000"].parent_id == root.span_id
