"""Loss / late / spoof matrix over the clients that ride RequestDispatcher.

Store, lightpush and the DHT ask their questions through
:class:`repro.net.request.RequestDispatcher`; its own semantics are pinned
by ``test_net_request.py``.  This file pins that each *client* surfaces
them: a dropped reply ends the call within the timeout, a reply from a
peer that was not asked is never the answer, and a reply after the
timeout is never delivered.
"""

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import pytest

from repro.net.latency import ConstantLatency
from repro.net.request import RequestDispatcher, RequestFailure
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.offchain import kademlia
from repro.offchain.kademlia import FoundValue, KademliaNode
from repro.waku import lightpush, store
from repro.waku.lightpush import LightPushClient, LightPushNode, PushResponse
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelay
from repro.waku.store import HistoryResponse, StoreClient, StoreNode

SERVER, CLIENT, INTRUDER = "peer-000", "peer-001", "peer-002"


@dataclass
class Harness:
    """One client wired to one server, plus what the matrix varies."""

    sim: Simulator
    network: Network
    dispatcher: RequestDispatcher
    timeout: float
    request_channel: str
    reply_channel: str
    #: Issue one request; answers land in ``delivered``, terminal
    #: failures in ``failed``.
    ask: Callable[[], None]
    #: What the honest server answers, as ``ask`` records it.
    genuine: Any
    #: A reply carrying ``request_id`` that is *not* the genuine answer.
    forge: Callable[[int], Any]
    #: What ``ask`` records in ``failed``: the RequestFailure itself,
    #: except for the DHT, which absorbs a failed query into the lookup
    #: (the caller sees "absent", the dispatcher's stats see the failure).
    failure_type: type = RequestFailure
    delivered: list = field(default_factory=list)
    failed: list = field(default_factory=list)

    def silence_server(self) -> None:
        self.network.register(SERVER, lambda _s, _m: None, protocol=self.request_channel)

    def delay_server(self, delay: float) -> None:
        serve = self.network._handlers[(SERVER, self.request_channel)]
        self.network.register(
            SERVER,
            lambda sender, message: self.sim.schedule(
                delay, lambda: serve(sender, message)
            ),
            protocol=self.request_channel,
        )

    def run_past_timeout(self) -> None:
        self.sim.run(self.sim.now + self.timeout + 0.2)


def build_network():
    sim = Simulator()
    graph = full_mesh(3)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.02), rng=random.Random(5)
    )
    return sim, network


def build_relay(sim, network):
    relay = WakuRelay(SERVER, network, sim, rng=random.Random(1))
    relay.start()
    return relay


def store_harness() -> Harness:
    sim, network = build_network()
    node = StoreNode(build_relay(sim, network), network)
    node.archive(WakuMessage(payload=b"real", content_topic="t"))
    client = StoreClient(CLIENT, network)
    forged = WakuMessage(payload=b"forged", content_topic="t")
    harness = Harness(
        sim=sim,
        network=network,
        dispatcher=client.dispatcher,
        timeout=store.REQUEST_TIMEOUT,
        request_channel=store.PROTOCOL,
        reply_channel=store.PROTOCOL,
        ask=lambda: client.query(
            SERVER,
            on_complete=lambda page: harness.delivered.append(
                [m.payload for m in page]
            ),
            on_error=harness.failed.append,
        ),
        genuine=[b"real"],
        forge=lambda request_id: HistoryResponse(
            request_id=request_id, messages=(forged,), cursor=None
        ),
    )
    return harness


def lightpush_harness() -> Harness:
    sim, network = build_network()
    LightPushNode(build_relay(sim, network), network)
    client = LightPushClient(CLIENT, network)
    message = WakuMessage(payload=b"pushed", content_topic="t")
    harness = Harness(
        sim=sim,
        network=network,
        dispatcher=client.dispatcher,
        timeout=lightpush.REQUEST_TIMEOUT,
        request_channel=lightpush.PROTOCOL,
        reply_channel=lightpush.PROTOCOL,
        ask=lambda: client.push(
            SERVER,
            message,
            on_response=lambda ack: harness.delivered.append(ack.reason),
            on_error=harness.failed.append,
        ),
        genuine="",
        forge=lambda request_id: PushResponse(
            request_id=request_id, accepted=False, reason="forged"
        ),
    )
    return harness


def kademlia_harness() -> Harness:
    sim, network = build_network()
    server = KademliaNode(SERVER, network, sim)
    server.put(b"key", "real", version=1)  # no contacts yet: stored locally
    client = KademliaNode(CLIENT, network, sim)
    client.bootstrap([SERVER])
    sim.run(1.0)

    def on_result(value, _version):
        (harness.failed if value is None else harness.delivered).append(value)

    harness = Harness(
        sim=sim,
        network=network,
        dispatcher=client.dispatcher,
        timeout=client.config.lookup_timeout,
        request_channel=kademlia.PROTOCOL,
        reply_channel=kademlia.REPLY_PROTOCOL,
        ask=lambda: client.get(b"key", on_result),
        genuine="real",
        forge=lambda request_id: FoundValue(
            request_id=request_id, key=b"key", value="forged", version=9, contacts=()
        ),
        failure_type=type(None),
    )
    return harness


@pytest.fixture(params=[store_harness, lightpush_harness, kademlia_harness])
def harness(request) -> Harness:
    return request.param()


def test_honest_exchange_delivers_the_answer(harness):
    harness.ask()
    harness.run_past_timeout()
    assert harness.delivered == [harness.genuine]
    assert harness.failed == []


def test_dropped_reply_fails_within_the_timeout(harness):
    harness.silence_server()
    harness.ask()
    harness.run_past_timeout()
    assert harness.delivered == []
    assert [type(f) for f in harness.failed] == [harness.failure_type]
    stats = harness.dispatcher.stats
    assert (stats.timeouts, stats.failures) == (1, 1)
    assert harness.dispatcher._pending == {}  # no waiter left behind


def test_reply_from_a_peer_not_asked_is_never_the_answer(harness):
    guessed = harness.dispatcher.stats.attempts + 1  # ids are sequential
    harness.ask()
    # Sent at the same instant as the request: one hop, so it lands
    # before the two-hop genuine answer.
    harness.network.send(
        INTRUDER,
        CLIENT,
        harness.forge(guessed),
        protocol=harness.reply_channel,
        require_edge=False,
    )
    harness.run_past_timeout()
    assert harness.dispatcher.stats.spoofed == 1
    assert harness.delivered == [harness.genuine]
    assert harness.failed == []


def test_reply_after_the_timeout_is_never_delivered(harness):
    harness.delay_server(harness.timeout + 0.5)
    harness.ask()
    harness.run_past_timeout()
    assert len(harness.failed) == 1 and harness.delivered == []
    harness.sim.run(harness.sim.now + 1.0)  # the late reply lands now
    assert harness.dispatcher.stats.late_responses == 1
    assert harness.delivered == [] and len(harness.failed) == 1
