"""Unit tests for verdict-cache sharing across protocol paths (ROADMAP).

The pipeline's proof-verdict cache, reached from store archival, filter
pushes, and lightpush service via the peer's one
:class:`~repro.pipeline.batch_verifier.BatchVerifier`: re-validation on
those paths must hit the cache instead of re-pairing.
"""

import random

import pytest

from repro.gossipsub.router import ValidationResult
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.pipeline.batch_verifier import BatchVerifier
from repro.pipeline.lru import BoundedLRU
from repro.pipeline.pipeline import ValidationPipeline
from repro.waku.filter import FilterClient, FilterNode
from repro.waku.lightpush import LightPushClient, LightPushNode
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelay
from repro.waku.store import StoreClient, StoreNode
from repro.zksnark.groth16 import Proof


def forged_message(message: WakuMessage) -> WakuMessage:
    bundle = message.rate_limit_proof
    from dataclasses import replace

    return message.with_proof(
        replace(bundle, proof=Proof(a=bytes(32), b=bytes(64), c=bytes(32)))
    )


@pytest.fixture()
def checker(rln_env):
    return BatchVerifier(rln_env.prover, cache=BoundedLRU(64))


class TestSharedProofChecker:
    def test_first_check_pays_second_hits_cache(self, rln_env, checker):
        message = rln_env.make_message(b"hello")
        counter = rln_env.prover.pairing_counter
        counter.reset()
        assert checker.check_deferred(message).value is True
        paid = counter.evaluations
        assert paid > 0 and checker.verified == 1
        assert checker.check_deferred(message).value is True
        assert counter.evaluations == paid  # no new pairing work
        assert checker.cache_hits == 1

    def test_invalid_proof_cached_too(self, rln_env, checker):
        message = forged_message(rln_env.make_message(b"hello"))
        assert checker.check_deferred(message).value is False
        counter = rln_env.prover.pairing_counter
        counter.reset()
        assert checker.check_deferred(message).value is False
        assert counter.evaluations == 0

    def test_proofless_message_is_none(self, rln_env, checker):
        assert checker.check_deferred(WakuMessage(payload=b"x", content_topic="t")) is None
        assert checker.verified == 0

    def test_pipeline_warms_the_shared_cache(self, rln_env):
        """A verdict computed by the relay pipeline is visible to service
        paths through pipeline.batch_verifier without further pairing work."""
        validator = rln_env.make_validator()
        pipeline = ValidationPipeline(validator, rln_env.prover, Simulator())
        message = rln_env.make_message(b"hello")
        from tests.conftest import RLN_TEST_EPOCH

        verdict = pipeline.validate(
            "peer-a", message, RLN_TEST_EPOCH, b"m1", topic="t"
        )
        assert verdict.action is ValidationResult.ACCEPT
        shared = pipeline.batch_verifier
        counter = rln_env.prover.pairing_counter
        counter.reset()
        assert shared.check_deferred(message).value is True
        assert counter.evaluations == 0  # served from the relay's cache
        assert shared.cache_hits == 1

    def test_service_path_warms_the_pipeline(self, rln_env):
        """The reverse direction: a verdict first computed on a service
        path is a cache hit when the relay later validates the bundle."""
        validator = rln_env.make_validator()
        pipeline = ValidationPipeline(validator, rln_env.prover, Simulator())
        message = rln_env.make_message(b"hello")
        assert pipeline.batch_verifier.check_deferred(message).value is True
        from tests.conftest import RLN_TEST_EPOCH

        counter = rln_env.prover.pairing_counter
        counter.reset()
        verdict = pipeline.validate(
            "peer-a", message, RLN_TEST_EPOCH, b"m1", topic="t"
        )
        assert verdict.action is ValidationResult.ACCEPT
        assert verdict.cached
        assert counter.evaluations == 0
        assert validator.stats.proofs_cached == 1


@pytest.fixture()
def net():
    sim = Simulator()
    graph = full_mesh(3)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(7)
    )
    relays = {
        peer: WakuRelay(peer, network, sim, rng=random.Random(i))
        for i, peer in enumerate(sorted(graph.nodes))
    }
    for relay in relays.values():
        relay.start()
    sim.run(3.0)
    return sim, network, relays


class TestStorePath:
    def test_store_rejects_forged_bundle_at_archive_time(self, rln_env, net, checker):
        _, network, relays = net
        names = sorted(relays)
        store = StoreNode(
            relays[names[0]], network, capacity=100, proof_checker=checker
        )
        assert store.archive(rln_env.make_message(b"good"))
        assert not store.archive(forged_message(rln_env.make_message(b"bad")))
        assert store.archived_count() == 1
        assert store.rejected_proofs == 1

    def test_store_revalidation_hits_cache(self, rln_env, net, checker):
        _, network, relays = net
        names = sorted(relays)
        store = StoreNode(
            relays[names[0]], network, capacity=100, proof_checker=checker
        )
        message = rln_env.make_message(b"seen before")
        checker.check_deferred(message)  # the relay path already judged it
        counter = rln_env.prover.pairing_counter
        counter.reset()
        assert store.archive(message)
        assert counter.evaluations == 0

    def test_proofless_system_traffic_still_archived(self, rln_env, net, checker):
        _, network, relays = net
        names = sorted(relays)
        store = StoreNode(
            relays[names[0]], network, capacity=100, proof_checker=checker
        )
        assert store.archive(WakuMessage(payload=b"sys", content_topic="/treesync"))
        assert store.archived_count() == 1


class TestFilterPath:
    def test_forged_bundle_never_pushed(self, rln_env, net, checker):
        sim, network, relays = net
        names = sorted(relays)
        node = FilterNode(relays[names[0]], network, proof_checker=checker)
        client = FilterClient(names[1], network)
        client.subscribe(names[0], ("t",))
        sim.run(4.0)
        node._on_relayed_message(rln_env.make_message(b"good"))
        node._on_relayed_message(forged_message(rln_env.make_message(b"bad")))
        sim.run(5.0)
        assert [m.payload for m in client.received] == [b"good"]
        assert node.rejected_proofs == 1

    def test_filter_revalidation_hits_cache(self, rln_env, net, checker):
        sim, network, relays = net
        names = sorted(relays)
        node = FilterNode(relays[names[0]], network, proof_checker=checker)
        message = rln_env.make_message(b"cached")
        checker.check_deferred(message)
        counter = rln_env.prover.pairing_counter
        counter.reset()
        node._on_relayed_message(message)
        assert counter.evaluations == 0


class TestLightpushPath:
    def test_forged_push_rejected_without_validator(self, rln_env, net, checker):
        sim, network, relays = net
        names = sorted(relays)
        node = LightPushNode(relays[names[0]], network, proof_checker=checker)
        client = LightPushClient(names[1], network)
        responses = []
        client.push(names[0], forged_message(rln_env.make_message(b"bad")), responses.append)
        sim.run(4.0)
        assert responses and not responses[0].accepted
        assert "invalid proof" in responses[0].reason
        assert node.rejected == 1 and node.served == 0

    def test_valid_push_served_and_cache_warmed(self, rln_env, net, checker):
        sim, network, relays = net
        names = sorted(relays)
        node = LightPushNode(relays[names[0]], network, proof_checker=checker)
        client = LightPushClient(names[1], network)
        message = rln_env.make_message(b"good")
        responses = []
        client.push(names[0], message, responses.append)
        sim.run(4.0)
        assert responses and responses[0].accepted
        # The verdict now lives in the shared cache.
        counter = rln_env.prover.pairing_counter
        counter.reset()
        assert checker.check_deferred(message).value is True
        assert counter.evaluations == 0
