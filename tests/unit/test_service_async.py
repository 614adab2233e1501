"""Store/filter/lightpush re-validation on the executor's SERVICE lane.

With ``workers >= 1`` the service paths submit fresh pairing work through
the pipeline's executor at SERVICE priority: archive commits, filter
pushes, and lightpush acknowledgements happen at simulated verdict time,
and a burst of service load queues *behind* relay verdicts instead of
competing with them.  With the synchronous default everything resolves
inline — pinned by the existing suites.
"""

import random
from dataclasses import replace

import pytest

from repro.exec.executor import Priority
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline
from repro.testing import RLN_TEST_EPOCH as EPOCH
from repro.waku.filter import FilterClient, FilterNode
from repro.waku.lightpush import LightPushClient, LightPushNode
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelay
from repro.waku.store import StoreNode
from repro.zksnark.groth16 import Proof


def forged(message: WakuMessage) -> WakuMessage:
    bundle = message.rate_limit_proof
    return message.with_proof(
        replace(bundle, proof=Proof(a=bytes(32), b=bytes(64), c=bytes(32)))
    )


@pytest.fixture()
def env(rln_env):
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
    pipeline = ValidationPipeline(
        rln_env.make_validator(),
        rln_env.prover,
        sim,
        PipelineConfig(workers=1),
    )
    checker = pipeline.batch_verifier
    names = sorted(relays)
    return sim, network, relays, names, pipeline, checker


class TestAsyncStore:
    def test_archive_commits_at_verdict_time(self, rln_env, env):
        sim, network, relays, names, _, checker = env
        store = StoreNode(relays[names[0]], network, capacity=64, proof_checker=checker)
        outcome = store.archive(rln_env.make_message(b"later"))
        assert outcome is None  # verdict still queued on the SERVICE lane
        assert store.pending_validations == 1
        assert store.archived_count() == 0
        sim.run(sim.now + 5.0)
        assert store.pending_validations == 0
        assert store.archived_count() == 1

    def test_forged_bundle_rejected_at_verdict_time(self, rln_env, env):
        sim, network, relays, names, _, checker = env
        store = StoreNode(relays[names[0]], network, capacity=64, proof_checker=checker)
        assert store.archive(forged(rln_env.make_message(b"bad"))) is None
        sim.run(sim.now + 5.0)
        assert store.archived_count() == 0
        assert store.rejected_proofs == 1

    def test_cached_verdict_archives_synchronously(self, rln_env, env):
        sim, network, relays, names, _, checker = env
        store = StoreNode(relays[names[0]], network, capacity=64, proof_checker=checker)
        message = rln_env.make_message(b"warm")
        checker.check_deferred(message)  # warm the shared cache
        sim.run(sim.now + 5.0)
        assert store.archive(message) is True  # no executor round trip
        assert store.archived_count() == 1

    def test_proofless_system_traffic_bypasses_the_lane(self, env):
        sim, network, relays, names, _, checker = env
        store = StoreNode(relays[names[0]], network, capacity=64, proof_checker=checker)
        assert store.archive(WakuMessage(payload=b"sys", content_topic="t")) is True


class TestAsyncFilter:
    def test_push_waits_for_the_service_verdict(self, rln_env, env):
        sim, network, relays, names, _, checker = env
        node = FilterNode(relays[names[0]], network, proof_checker=checker)
        client = FilterClient(names[1], network)
        client.subscribe(names[0], ("t",))
        sim.run(sim.now + 0.1)
        node._on_relayed_message(rln_env.make_message(b"pushed"))
        assert client.received == []  # verdict not delivered yet
        sim.run(sim.now + 5.0)
        assert [m.payload for m in client.received] == [b"pushed"]

    def test_forged_push_dropped_at_verdict_time(self, rln_env, env):
        sim, network, relays, names, _, checker = env
        node = FilterNode(relays[names[0]], network, proof_checker=checker)
        client = FilterClient(names[1], network)
        client.subscribe(names[0], ("t",))
        sim.run(sim.now + 0.1)
        node._on_relayed_message(forged(rln_env.make_message(b"bad")))
        sim.run(sim.now + 5.0)
        assert client.received == []
        assert node.rejected_proofs == 1


class TestAsyncLightPush:
    def test_ack_arrives_after_the_service_verdict(self, rln_env, env):
        sim, network, relays, names, _, checker = env
        LightPushNode(relays[names[0]], network, proof_checker=checker)
        client = LightPushClient(names[2], network)
        responses = []
        client.push(names[0], rln_env.make_message(b"via-push"), responses.append)
        sim.run(sim.now + 5.0)
        assert [r.accepted for r in responses] == [True]

    def test_forged_push_rejected_after_the_verdict(self, rln_env, env):
        sim, network, relays, names, _, checker = env
        node = LightPushNode(relays[names[0]], network, proof_checker=checker)
        client = LightPushClient(names[2], network)
        responses = []
        client.push(names[0], forged(rln_env.make_message(b"bad")), responses.append)
        sim.run(sim.now + 5.0)
        assert [r.accepted for r in responses] == [False]
        assert node.rejected == 1


class TestInFlightDedup:
    def test_concurrent_deferred_checks_share_one_job(self, rln_env, env):
        sim, network, relays, names, pipeline, checker = env
        message = rln_env.make_message(b"both-paths")
        # Store and filter racing the same proof (the cache only fills at
        # completion) must not cost two identical pairing jobs.
        first = checker.check_deferred(message)
        submitted = pipeline.executor.stats.jobs_submitted
        second = checker.check_deferred(message)
        assert second is first  # joined the in-flight check
        assert pipeline.executor.stats.jobs_submitted == submitted
        assert checker.joined_in_flight == 1
        sim.run(sim.now + 5.0)
        assert first.resolved and first.value is True
        assert checker.verified == 1
        # Settled now: a third check is a plain cache hit.
        third = checker.check_deferred(message)
        assert third.resolved and third.value is True
        assert checker.cache_hits == 1


class TestServiceBehindRelay:
    def test_service_burst_cannot_starve_relay_verdicts(self, rln_env, env):
        sim, network, relays, names, pipeline, checker = env
        store = StoreNode(relays[names[0]], network, capacity=64, proof_checker=checker)
        # A burst of store archival work fills the SERVICE queue...
        for i in range(6):
            store.archive(rln_env.make_message(b"q-%d" % i, epoch=EPOCH + i))
        # ...then one relay verdict arrives late and still finishes first.
        pending = pipeline.validate(
            "peer", rln_env.make_message(b"urgent"), EPOCH, b"relay-id"
        )
        completion = {}
        pending.subscribe(lambda v: completion.setdefault("relay", sim.now))
        sim.run(sim.now + 5.0)
        relay_stats = pipeline.executor.stats.classes[Priority.RELAY]
        service_stats = pipeline.executor.stats.classes[Priority.SERVICE]
        assert store.archived_count() == 6
        assert completion["relay"] < sim.now  # relay landed before the queue drained
        assert relay_stats.queue_delay_max < service_stats.queue_delay_max