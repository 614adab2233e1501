"""Unit tests for 19/WAKU2-LIGHTPUSH."""

import random

import pytest

from repro.gossipsub.router import ValidationResult
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.waku.lightpush import LightPushClient, LightPushNode
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelay


def build(count=4, seed=31, validator=None):
    sim = Simulator()
    graph = full_mesh(count)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.02), rng=random.Random(seed)
    )
    relays = {
        p: WakuRelay(p, network, sim, rng=random.Random(seed + i))
        for i, p in enumerate(sorted(graph.nodes))
    }
    for relay in relays.values():
        relay.start()
    sim.run(3.0)
    service = LightPushNode(relays["peer-000"], network, validator=validator)
    network.add_peer("light", ["peer-000"])
    client = LightPushClient("light", network)
    return sim, network, relays, service, client


class TestLightPush:
    def test_pushed_message_reaches_the_mesh(self):
        sim, _, relays, service, client = build()
        responses = []
        message = WakuMessage(payload=b"from a light client", content_topic="t")
        client.push("peer-000", message, on_response=responses.append)
        sim.run(sim.now + 3)
        assert responses and responses[0].accepted
        assert service.served == 1
        for name, relay in relays.items():
            received = []
            relay.subscribe(received.append)
        # The message already propagated; check router delivery counters.
        delivered = sum(r.router.stats.delivered for r in relays.values())
        assert delivered == len(relays)

    def test_validator_rejects_before_mesh(self):
        reject_all = lambda m: ValidationResult.REJECT
        sim, _, relays, service, client = build(validator=reject_all)
        responses = []
        client.push(
            "peer-000",
            WakuMessage(payload=b"blocked", content_topic="t"),
            on_response=responses.append,
        )
        sim.run(sim.now + 3)
        assert responses and not responses[0].accepted
        assert "validation failed" in responses[0].reason
        assert service.rejected == 1
        delivered = sum(r.router.stats.delivered for r in relays.values())
        assert delivered == 0

    def test_multiple_pushes_get_matched_responses(self):
        sim, _, _, service, client = build()
        got = {}
        for i in range(3):
            client.push(
                "peer-000",
                WakuMessage(payload=b"m%d" % i, content_topic="t"),
                on_response=lambda r: got.update({r.request_id: r.accepted}),
            )
        sim.run(sim.now + 3)
        assert len(got) == 3 and all(got.values())
        assert service.served == 3

    def test_rln_protected_lightpush(self):
        """A light member pushes an RLN-proved message; the service node's
        §III-F validator gates it — valid proofs pass, spam is refused."""
        from repro.analysis.metrics import DeliveryTracker
        from repro.core.config import RLNConfig
        from repro.core.deployment import RLNDeployment

        config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=8)
        dep = RLNDeployment.create(peer_count=6, degree=3, seed=32, config=config)
        dep.register_all()
        dep.form_meshes(4.0)
        tracker = DeliveryTracker(dep)
        service_peer = dep.peer("peer-000")

        def rln_validator(message):
            outcome, _ = service_peer.validator.validate(
                message,
                service_peer.current_epoch(),
                message.message_id(service_peer.relay.pubsub_topic),
            )
            from repro.core.validator import ValidationOutcome

            if outcome is ValidationOutcome.VALID:
                return ValidationResult.ACCEPT
            return ValidationResult.REJECT

        service = LightPushNode(
            service_peer.relay, dep.network, validator=rln_validator
        )
        dep.network.add_peer("light", ["peer-000"])
        client = LightPushClient("light", dep.network)

        # The light client is itself a registered member (peer-005's
        # identity stands in); it builds the bundle locally.
        author = dep.peer("peer-005")
        message = author._build_message(b"light and proved", "t", author.current_epoch())
        responses = []
        client.push("peer-000", message, on_response=responses.append)
        dep.run(3.0)
        assert responses and responses[0].accepted
        assert tracker.delivery_count(b"light and proved") >= 5

        # Second message same epoch: the service node refuses to relay spam.
        spam = author._build_message(b"light spam", "t", author.current_epoch())
        responses.clear()
        client.push("peer-000", spam, on_response=responses.append)
        dep.run(3.0)
        assert responses and not responses[0].accepted
        assert tracker.delivery_count(b"light spam") == 0
