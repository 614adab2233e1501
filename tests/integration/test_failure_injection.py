"""Failure injection: churn, packet loss, partitions, crashed peers.

A p2p spam-protection protocol has to keep its guarantees when the network
is messy.  These tests inject the failures the substrate can produce and
check that the invariants (delivery via gossip recovery, containment,
slashing) survive.
"""

import random

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.gossipsub.router import GossipSubParams, GossipSubRouter
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network
from repro.testing import inbox

DEPTH = 8


class TestPacketLoss:
    def test_gossip_recovers_lost_messages(self):
        """With 20% packet loss, IHAVE/IWANT gossip backfills the gaps."""
        sim = Simulator()
        graph = random_regular(10, 4, seed=201)
        network = Network(
            simulator=sim,
            graph=graph,
            latency=ConstantLatency(0.02),
            rng=random.Random(201),
            drop_probability=0.2,
        )
        routers = {}
        for i, peer in enumerate(sorted(graph.nodes)):
            routers[peer] = GossipSubRouter(
                peer, network, sim, params=GossipSubParams(d_lazy=8), rng=random.Random(201 + i)
            )
            routers[peer].subscribe("t")
            routers[peer].start()
        sim.run(5.0)
        payload = b"lossy"
        routers["peer-000"].publish("t", payload)
        # Enough time for several heartbeats of gossip repair.
        sim.run(sim.now + 20.0)
        delivered = sum(r.stats.delivered for r in routers.values())
        assert delivered >= 9  # at most one peer may remain unlucky

    def test_protocol_survives_moderate_loss(self):
        from repro.net.transport import Network as _N

        config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=10, degree=4, seed=202, config=config)
        dep.network.drop_probability = 0.1
        dep.register_all()
        dep.form_meshes(5.0)
        tracker = DeliveryTracker(dep)
        dep.peer("peer-000").publish(b"through the noise")
        dep.run(25.0)
        assert tracker.delivery_count(b"through the noise") >= 9


class TestChurn:
    def test_mesh_heals_after_peer_crash(self):
        config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=10, degree=4, seed=203, config=config)
        dep.register_all()
        dep.form_meshes(5.0)
        # Crash two peers: stop their routers and cut their links.
        for victim in ("peer-003", "peer-007"):
            dep.peer(victim).stop()
            for neighbor in list(dep.network.neighbors(victim)):
                dep.network.disconnect(victim, neighbor)
        dep.run(10.0)  # heartbeats notice the dead links and re-graft
        survivors = [
            inbox(p) for n, p in dep.peers.items() if n not in ("peer-003", "peer-007")
        ]
        dep.peer("peer-000").publish(b"after the crash")
        dep.run(5.0)
        delivered = sum(
            any(m.payload == b"after the crash" for m in got) for got in survivors
        )
        assert delivered == len(survivors)

    def test_late_joining_peer_catches_up(self):
        """A peer registering after traffic started still syncs the tree and
        can publish/validate immediately."""
        config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=8, degree=4, seed=204, config=config)
        dep.register_all(dep.peer_ids()[:7])  # one peer stays out
        dep.form_meshes(5.0)
        tracker = DeliveryTracker(dep)
        dep.peer("peer-000").publish(b"early traffic")
        dep.run(3.0)
        late = dep.peer(dep.peer_ids()[7])
        dep.register_all([late.peer_id])
        assert late.registered
        assert late.group.root == dep.peer("peer-000").group.root
        late.publish(b"late but legit")
        dep.run(3.0)
        assert tracker.delivery_count(b"late but legit") == 8

    def test_spam_detection_survives_detector_crash(self):
        """If some detectors crash before slashing completes, any surviving
        detector still finishes the commit-reveal."""
        config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=10, degree=4, seed=205, config=config)
        dep.register_all()
        dep.form_meshes(5.0)
        spammer = dep.peer("peer-009")
        spammer.publish(b"a", force=True)
        dep.run(2.0)
        spammer.publish(b"b", force=True)
        dep.run(2.0)
        detectors = [
            p for p in dep.peers.values() if p.stats.spam_detected > 0
        ]
        assert detectors
        # Crash all but one detector mid-slash.
        for detector in detectors[:-1]:
            detector.stop()
        dep.run(8 * dep.chain.block_interval)
        assert not dep.contract.is_member(spammer.identity.pk)


class TestPartition:
    def test_partition_heals_and_messages_flow_again(self):
        config = RLNConfig(epoch_length=600.0, max_epoch_gap=3, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=10, degree=4, seed=206, config=config)
        dep.register_all()
        dep.form_meshes(5.0)
        # Split: cut every edge between the two halves.
        names = dep.peer_ids()
        half_a, half_b = set(names[:5]), set(names[5:])
        cut = [
            (a, b)
            for a, b in list(dep.graph.edges)
            if (a in half_a) != (b in half_a)
        ]
        for a, b in cut:
            dep.network.disconnect(a, b)
        dep.run(5.0)
        inboxes = {n: inbox(dep.peer(n)) for n in names}
        tracker = DeliveryTracker(dep)
        dep.peer(names[0]).publish(b"inside partition A")
        dep.run(5.0)
        a_got = sum(
            any(m.payload == b"inside partition A" for m in inboxes[n]) for n in half_a
        )
        b_got = sum(
            any(m.payload == b"inside partition A" for m in inboxes[n]) for n in half_b
        )
        assert a_got == 5 and b_got == 0
        # Heal: restore the cut edges; meshes re-graft on heartbeats.
        for a, b in cut:
            dep.network.connect(a, b)
        dep.run(10.0)
        dep.peer(names[1]).publish(b"after healing")
        dep.run(5.0)
        assert tracker.delivery_count(b"after healing") == 10
