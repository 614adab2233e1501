"""Direct PRUNE + GRAFT backoff (rate-limit feedback into mesh management).

:meth:`GossipSubRouter.prune_peer` is the mesh-management arm of ingress
rate limiting: a persistent token-bucket offender is evicted immediately
and kept out for a backoff window — its GRAFTs are refused with a
behaviour penalty (v1.1 backoff-violation semantics) and mesh filling
skips it until the window expires.
"""

import random

import pytest

from repro.errors import NetworkError
from repro.gossipsub.messages import RPC, Graft
from repro.gossipsub.router import GossipSubParams, GossipSubRouter
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network

TOPIC = "test-topic"


def build(count=5, seed=3, scoring=False, params=None):
    sim = Simulator()
    network = Network(
        simulator=sim,
        graph=full_mesh(count),
        latency=ConstantLatency(0.01),
        rng=random.Random(seed),
    )
    routers = {}
    for i, peer in enumerate(sorted(network.graph.nodes)):
        routers[peer] = GossipSubRouter(
            peer,
            network,
            sim,
            params=params,
            score_params=ScoreParams() if scoring else None,
            rng=random.Random(seed + i),
        )
    for router in routers.values():
        router.subscribe(TOPIC)
        router.start()
    sim.run(sim.now + 3.0)
    return sim, routers


class TestPrunePeer:
    def test_negative_backoff_param_rejected(self):
        with pytest.raises(NetworkError):
            GossipSubParams(prune_backoff=-1.0)

    def test_prune_evicts_from_mesh_and_notifies_the_peer(self):
        sim, routers = build()
        router = routers["peer-000"]
        victim = next(iter(router.mesh_peers(TOPIC)))
        router.prune_peer(TOPIC, victim)
        assert victim not in router.mesh_peers(TOPIC)
        assert router.stats.pruned_peers == 1
        assert router.in_graft_backoff(TOPIC, victim)
        # The PRUNE RPC removes us from the victim's mesh too.
        sim.run(sim.now + 0.1)
        assert "peer-000" not in routers[victim].mesh_peers(TOPIC)

    def test_graft_during_backoff_is_refused_with_a_penalty(self):
        sim, routers = build(scoring=True)
        router = routers["peer-000"]
        victim = next(iter(router.mesh_peers(TOPIC)))
        router.prune_peer(TOPIC, victim)
        score_before = router.scoring.score(victim, sim.now)
        router._on_rpc(victim, RPC(graft=(Graft(topic=TOPIC),)))
        assert victim not in router.mesh_peers(TOPIC)
        assert router.stats.backoff_grafts_rejected == 1
        assert router.scoring.score(victim, sim.now) < score_before

    def test_heartbeats_do_not_regraft_during_backoff(self):
        sim, routers = build(params=GossipSubParams(prune_backoff=600.0))
        router = routers["peer-000"]
        victim = next(iter(router.mesh_peers(TOPIC)))
        router.prune_peer(TOPIC, victim)
        sim.run(sim.now + 30.0)  # many heartbeats of mesh balancing
        assert victim not in router.mesh_peers(TOPIC)

    def test_backoff_expires_and_the_peer_can_return(self):
        sim, routers = build(params=GossipSubParams(prune_backoff=5.0))
        router = routers["peer-000"]
        victim = next(iter(router.mesh_peers(TOPIC)))
        router.prune_peer(TOPIC, victim)
        assert router.in_graft_backoff(TOPIC, victim)
        sim.run(sim.now + 5.1)
        # The victim's own heartbeats kept GRAFTing during the window;
        # every attempt was refused.  After expiry, one more succeeds.
        rejected_during_backoff = router.stats.backoff_grafts_rejected
        assert not router.in_graft_backoff(TOPIC, victim)
        router._on_rpc(victim, RPC(graft=(Graft(topic=TOPIC),)))
        assert victim in router.mesh_peers(TOPIC)
        assert router.stats.backoff_grafts_rejected == rejected_during_backoff

    def test_backoff_is_per_topic(self):
        sim, routers = build()
        router = routers["peer-000"]
        other = "other-topic"
        router.subscribe(other)
        victim = next(iter(router.mesh_peers(TOPIC)))
        router.prune_peer(TOPIC, victim)
        assert router.in_graft_backoff(TOPIC, victim)
        assert not router.in_graft_backoff(other, victim)
