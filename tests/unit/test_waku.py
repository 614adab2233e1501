"""Unit tests for the Waku protocol family: message, relay, store, filter."""

import random
from dataclasses import replace

import pytest

from repro.core.messages import RateLimitProof
from repro.crypto.field import FieldElement
from repro.gossipsub.messages import PubSubMessage
from repro.gossipsub.router import ValidationResult
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.waku.filter import FilterClient, FilterNode, MessagePush
from repro.waku.message import DEFAULT_PUBSUB_TOPIC, WakuMessage
from repro.waku.relay import WakuRelay
from repro.telemetry.disttrace import SpanContext
from repro.waku.store import (
    MAX_PAGE_SIZE,
    HistoryQuery,
    HistoryResponse,
    StoreClient,
    StoreNode,
)
from repro.zksnark.groth16 import Proof


def build(count=5, seed=4):
    sim = Simulator()
    graph = full_mesh(count)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(seed)
    )
    relays = {
        peer: WakuRelay(peer, network, sim, rng=random.Random(seed + i))
        for i, peer in enumerate(sorted(graph.nodes))
    }
    for relay in relays.values():
        relay.start()
    sim.run(3.0)
    return sim, network, relays


class TestWakuMessage:
    def test_message_id_content_addressed(self):
        a = WakuMessage(payload=b"x", content_topic="t")
        b = WakuMessage(payload=b"x", content_topic="t", timestamp=99.0)
        # Timestamp does not enter the id (no metadata linkage).
        assert a.message_id() == b.message_id()
        # Nor do the ephemeral flag or the per-hop trace context.
        trace = SpanContext(trace_id=1, span_id=2, hop=0, origin="peer-000")
        assert WakuMessage(payload=b"x", content_topic="t", ephemeral=True).message_id() == a.message_id()
        assert a.with_trace(trace).message_id() == a.message_id()

    def test_message_id_covers_every_bundle_field(self):
        bundle = RateLimitProof(
            FieldElement(1), FieldElement(2), FieldElement(3), 7, FieldElement(4),
            Proof(a=bytes(32), b=bytes(64), c=bytes(32)),
        )
        a = WakuMessage(payload=b"x", content_topic="t", rate_limit_proof=bundle)
        changed = [
            replace(bundle, share_x=FieldElement(9)),
            replace(bundle, share_y=FieldElement(9)),
            replace(bundle, internal_nullifier=FieldElement(9)),
            replace(bundle, epoch=8),
            replace(bundle, root=FieldElement(9)),
            replace(bundle, proof=Proof(a=bytes(31) + b"\x01", b=bytes(64), c=bytes(32))),
        ]
        ids = {a.with_proof(other).message_id() for other in changed}
        assert len(ids) == len(changed) and a.message_id() not in ids
        assert a.message_id() != WakuMessage(payload=b"x", content_topic="t").message_id()
        # A re-stamped copy travels under its original's id, not re-derived.
        carried = PubSubMessage(topic="/t", payload=a)
        assert carried.with_payload(b"re-stamped").msg_id == carried.msg_id == a.message_id("/t")

    def test_message_id_distinguishes_content_topic(self):
        a = WakuMessage(payload=b"x", content_topic="t1")
        b = WakuMessage(payload=b"x", content_topic="t2")
        assert a.message_id() != b.message_id()

    def test_byte_size_includes_proof(self):
        bare = WakuMessage(payload=b"x" * 100, content_topic="t")
        class FakeProof:
            def byte_size(self):
                return 264
        proved = bare.with_proof(FakeProof())
        assert proved.byte_size() == bare.byte_size() + 264

    def test_with_proof_preserves_fields(self):
        message = WakuMessage(payload=b"x", content_topic="t", timestamp=5.0)
        proved = message.with_proof("proof")
        assert proved.payload == b"x" and proved.timestamp == 5.0
        assert proved.rate_limit_proof == "proof"


class TestRelay:
    def test_publish_reaches_all_subscribers(self):
        sim, _, relays = build()
        inboxes = {}
        for peer, relay in relays.items():
            inboxes[peer] = []
            relay.subscribe(inboxes[peer].append)
        relays["peer-001"].publish(WakuMessage(payload=b"again", content_topic="chat"))
        sim.run(sim.now + 2.0)
        assert all(any(m.payload == b"again" for m in box) for box in inboxes.values())

    def test_content_topic_filtering(self):
        sim, _, relays = build(count=3)
        chat, other = [], []
        relays["peer-001"].subscribe(chat.append, content_topic="chat")
        relays["peer-001"].subscribe(other.append, content_topic="other")
        relays["peer-000"].publish(WakuMessage(payload=b"c", content_topic="chat"))
        sim.run(sim.now + 2.0)
        assert [m.payload for m in chat] == [b"c"]
        assert other == []

    def test_validator_gates_relay(self):
        sim, _, relays = build(count=4)
        for relay in relays.values():
            relay.set_validator(lambda s, m: ValidationResult.REJECT)
        inbox = []
        relays["peer-002"].subscribe(inbox.append)
        relays["peer-000"].publish(WakuMessage(payload=b"blocked", content_topic="t"))
        sim.run(sim.now + 2.0)
        assert inbox == []

    def test_pubsub_topic_default(self):
        sim, _, relays = build(count=3)
        assert relays["peer-000"].pubsub_topic == DEFAULT_PUBSUB_TOPIC


class TestStore:
    def test_archives_relayed_messages(self):
        sim, network, relays = build(count=4)
        store = StoreNode(relays["peer-000"], network, capacity=100)
        relays["peer-001"].publish(WakuMessage(payload=b"one", content_topic="t", timestamp=1.0))
        relays["peer-002"].publish(WakuMessage(payload=b"two", content_topic="t", timestamp=2.0))
        sim.run(sim.now + 2.0)
        assert store.archived_count() == 2

    def test_ephemeral_not_archived(self):
        sim, network, relays = build(count=3)
        store = StoreNode(relays["peer-000"], network)
        relays["peer-001"].publish(
            WakuMessage(payload=b"gone", content_topic="t", ephemeral=True)
        )
        sim.run(sim.now + 2.0)
        assert store.archived_count() == 0

    def test_capacity_ring_buffer(self):
        sim, network, relays = build(count=3)
        store = StoreNode(relays["peer-000"], network, capacity=5)
        for i in range(9):
            relays["peer-001"].publish(
                WakuMessage(payload=f"m{i}".encode(), content_topic="t")
            )
            sim.run(sim.now + 1.2)
        assert store.archived_count() == 5

    def test_local_query_filters(self):
        sim, network, relays = build(count=3)
        store = StoreNode(relays["peer-000"], network)
        relays["peer-001"].publish(WakuMessage(payload=b"a", content_topic="x", timestamp=1.0))
        relays["peer-001"].publish(WakuMessage(payload=b"b", content_topic="y", timestamp=2.0))
        sim.run(sim.now + 2.0)
        response = store.query_local(HistoryQuery(request_id=1, content_topics=("x",)))
        assert [m.payload for m in response.messages] == [b"a"]
        timed = store.query_local(HistoryQuery(request_id=2, start_time=1.5))
        assert [m.payload for m in timed.messages] == [b"b"]

    def test_remote_query_with_pagination(self):
        sim, network, relays = build(count=4)
        store = StoreNode(relays["peer-000"], network)
        for i in range(7):
            relays["peer-001"].publish(
                WakuMessage(payload=f"h{i}".encode(), content_topic="hist")
            )
            sim.run(sim.now + 1.2)
        client = StoreClient("peer-003", network)
        results = []
        client.query(
            "peer-000",
            content_topics=("hist",),
            page_size=3,
            on_complete=results.extend,
        )
        sim.run(sim.now + 3.0)
        assert sorted(m.payload for m in results) == [f"h{i}".encode() for i in range(7)]

    @pytest.mark.parametrize("page_size", [0, -3])
    def test_remote_query_cannot_ask_for_an_empty_page(self, page_size):
        """A non-positive page size used to index an empty page and raise
        out of Simulator.run — one message crashed the store node."""
        sim, network, relays = build(count=3)
        store = StoreNode(relays["peer-000"], network)
        for i in range(3):
            store.archive(WakuMessage(payload=f"m{i}".encode(), content_topic="t"))
        answers = []
        network.register("peer-002", lambda _s, r: answers.append(r), protocol="store")
        network.send(
            "peer-002",
            "peer-000",
            HistoryQuery(request_id=1, page_size=page_size),
            protocol="store",
        )
        sim.run(sim.now + 1.0)
        assert [m.payload for m in answers[0].messages] == [b"m0"]
        assert answers[0].cursor == 1

    def test_page_size_is_capped_server_side(self):
        sim, network, relays = build(count=3)
        store = StoreNode(relays["peer-000"], network)
        for i in range(MAX_PAGE_SIZE + 5):
            store.archive(WakuMessage(payload=b"%d" % i, content_topic="t"))
        response = store.query_local(HistoryQuery(request_id=1, page_size=10**9))
        assert len(response.messages) == MAX_PAGE_SIZE
        assert response.cursor == MAX_PAGE_SIZE

    def test_forged_response_is_not_the_stores_answer(self):
        """A third peer guessing the (sequential) request id must not have
        its page collated as history."""
        sim, network, relays = build(count=4)
        store = StoreNode(relays["peer-000"], network)
        store.archive(WakuMessage(payload=b"real", content_topic="t"))
        client = StoreClient("peer-003", network)
        results = []
        client.query("peer-000", on_complete=results.append)
        forged = WakuMessage(payload=b"forged", content_topic="t")
        # Sent at the same instant: lands one hop before the real answer.
        network.send(
            "peer-002",
            "peer-003",
            HistoryResponse(request_id=1, messages=(forged,), cursor=None),
            protocol="store",
        )
        sim.run(sim.now + 1.0)
        assert [[m.payload for m in page] for page in results] == [[b"real"]]

    def test_store_capacity_validated(self):
        sim, network, relays = build(count=3)
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            StoreNode(relays["peer-000"], network, capacity=0)


class TestFilter:
    def test_light_node_receives_only_matching(self):
        sim, network, relays = build(count=4)
        FilterNode(relays["peer-000"], network)
        # Light node connects only to peer-000 (full mesh here; that's fine).
        client = FilterClient("peer-003", network)
        got = []
        client.subscribe("peer-000", ("wanted",), got.append)
        sim.run(sim.now + 1.0)
        relays["peer-001"].publish(WakuMessage(payload=b"yes", content_topic="wanted"))
        relays["peer-001"].publish(WakuMessage(payload=b"no", content_topic="unwanted"))
        sim.run(sim.now + 2.0)
        assert [m.payload for m in got] == [b"yes"]
        assert [m.payload for m in client.received] == [b"yes"]

    def test_unsubscribe_stops_pushes(self):
        sim, network, relays = build(count=3)
        node = FilterNode(relays["peer-000"], network)
        client = FilterClient("peer-002", network)
        client.subscribe("peer-000", ("t",))
        sim.run(sim.now + 1.0)
        assert len(node._filters) == 1
        client.unsubscribe("peer-000", ("t",))
        sim.run(sim.now + 1.0)
        assert len(node._filters) == 0
        relays["peer-001"].publish(WakuMessage(payload=b"late", content_topic="t"))
        sim.run(sim.now + 2.0)
        assert client.received == []

    def test_push_from_a_node_never_subscribed_to_is_ignored(self):
        """The full node's RLN re-validation is the only proof check a
        light node gets, so only full nodes it chose may push to it."""
        sim, network, relays = build(count=4)
        FilterNode(relays["peer-000"], network)
        client = FilterClient("peer-003", network)
        got = []
        client.subscribe("peer-000", ("t",), got.append)
        sim.run(sim.now + 1.0)
        unvalidated = MessagePush(WakuMessage(payload=b"unvalidated", content_topic="t"))
        network.send("peer-001", "peer-003", unvalidated, protocol="filter")
        relays["peer-001"].publish(WakuMessage(payload=b"relayed", content_topic="t"))
        sim.run(sim.now + 2.0)
        assert [m.payload for m in client.received] == [b"relayed"]
        assert [m.payload for m in got] == [b"relayed"]
        # Unsubscribing the last topic forgets the node altogether.
        client.unsubscribe("peer-000", ("t",))
        network.send("peer-000", "peer-003", unvalidated, protocol="filter")
        sim.run(sim.now + 1.0)
        assert len(client.received) == 1
