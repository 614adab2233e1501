"""Integration: the §I comparison — RLN vs PoW vs peer scoring vs nothing.

A miniature of experiment E8 with assertions on the qualitative shape the
paper claims; the benchmark version sweeps parameters and prints tables.
"""

import random

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.baselines.botnet import SPAM_PREFIX, BotArmy
from repro.baselines.plain_peer import PlainRelayPeer
from repro.baselines.pow import PoWRelayPeer, expected_mint_seconds
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network
from repro.testing import inbox

DEPTH = 8
PEERS = 10


def spam_received(inboxes) -> int:
    return sum(
        sum(1 for m in got if m.payload.startswith(SPAM_PREFIX)) for got in inboxes
    )


class TestRLNArm:
    def test_rln_bounds_spam_to_one_per_epoch_then_zero(self):
        # Epoch long enough that the whole burst lands in one epoch (the
        # per-epoch quota reset is tested separately in test_protocol).
        config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=PEERS, degree=4, seed=61, config=config)
        dep.register_all()
        dep.form_meshes(5.0)
        tracker = DeliveryTracker(dep)
        spammer = dep.peer("peer-009")
        delivered = []
        for i in range(6):
            payload = SPAM_PREFIX + b"%d" % i
            try:
                spammer.publish(payload, force=True)
            except Exception:
                break  # slashed: cannot publish at all any more
            dep.run(3.0)
            delivered.append(tracker.delivery_count(payload))
        dep.run(6 * dep.chain.block_interval)
        # First message flooded; every subsequent one contained; eventually
        # the spammer lost membership and its deposit.
        assert delivered[0] == PEERS
        assert all(count == 1 for count in delivered[1:])
        assert not dep.contract.is_member(spammer.identity.pk)

    def test_spammer_cost_is_the_deposit(self):
        config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
        dep = RLNDeployment.create(peer_count=6, degree=3, seed=62, config=config)
        dep.register_all()
        dep.form_meshes(4.0)
        spammer = dep.peer("peer-005")
        balance_after_registration = dep.chain.balance_of("peer-005")
        spammer.publish(b"a", force=True)
        dep.run(2.0)
        spammer.publish(b"b", force=True)
        dep.run(6 * dep.chain.block_interval)
        # The deposit is gone for good (now in a slasher's pocket).
        assert dep.chain.balance_of("peer-005") == balance_after_registration
        assert not dep.contract.is_member(spammer.identity.pk)


class TestPoWArm:
    def test_difficulty_tradeoff(self):
        # A difficulty high enough to slow a server spammer to ~1 msg/min
        # costs a phone ~17 minutes per message: the §I exclusion argument.
        server_rate, phone_rate = 1e8, 1e5
        difficulty = 33
        server_time = expected_mint_seconds(difficulty, server_rate)
        phone_time = expected_mint_seconds(difficulty, phone_rate)
        assert 30 <= server_time <= 300
        assert phone_time > 600

    def test_rich_spammer_buys_rate(self):
        sim = Simulator()
        graph = random_regular(8, 4, seed=63)
        network = Network(
            simulator=sim, graph=graph, latency=ConstantLatency(0.02), rng=random.Random(63)
        )
        difficulty = 14
        peers = {}
        for i, name in enumerate(sorted(graph.nodes)):
            rate = 1e8 if name == "peer-000" else 1e5
            peers[name] = PoWRelayPeer(
                name, network, sim, difficulty=difficulty, hash_rate=rate,
                rng=random.Random(63 + i),
            )
            peers[name].start()
        sim.run(3.0)
        inboxes = [inbox(p) for p in peers.values()]
        for i in range(20):
            peers["peer-000"].publish(SPAM_PREFIX + b"%d" % i)
        sim.run(sim.now + 30)
        # All 20 spam messages delivered network-wide: PoW cannot stop a
        # well-resourced spammer, only identify... nothing.
        assert spam_received(inboxes) >= 19 * (len(peers) - 1)


class TestScoringArm:
    def test_bot_rotation_defeats_scoring(self):
        sim = Simulator()
        graph = random_regular(PEERS, 4, seed=64)
        network = Network(
            simulator=sim, graph=graph, latency=ConstantLatency(0.02), rng=random.Random(64)
        )
        rng = random.Random(9)
        classifier = lambda m: m.payload.startswith(SPAM_PREFIX) and rng.random() < 0.6
        victims = {
            name: PlainRelayPeer(
                name, network, sim, score_params=ScoreParams(), classifier=classifier,
                rng=random.Random(64 + i),
            )
            for i, name in enumerate(sorted(graph.nodes))
        }
        for victim in victims.values():
            victim.start()
        sim.run(3.0)
        inboxes = [inbox(v) for v in victims.values()]
        army = BotArmy(
            network=network,
            simulator=sim,
            targets=sorted(victims)[:5],
            send_interval=0.5,
            messages_before_rotation=15,
            rng=random.Random(65),
        )
        army.launch(bot_count=2)
        sim.run(sim.now + 120)
        army.halt()
        # Bots were burned and replaced, and spam kept landing.
        assert army.stats.bots_retired >= 2
        assert spam_received(inboxes) > 20


class TestNoDefenceArm:
    def test_everything_floods(self):
        sim = Simulator()
        graph = random_regular(8, 4, seed=66)
        network = Network(
            simulator=sim, graph=graph, latency=ConstantLatency(0.02), rng=random.Random(66)
        )
        peers = {
            name: PlainRelayPeer(name, network, sim, rng=random.Random(66 + i))
            for i, name in enumerate(sorted(graph.nodes))
        }
        for peer in peers.values():
            peer.start()
        sim.run(3.0)
        inboxes = [inbox(p) for p in peers.values()]
        for i in range(10):
            peers["peer-000"].publish(SPAM_PREFIX + b"%d" % i)
        sim.run(sim.now + 10)
        assert spam_received(inboxes) == 10 * len(peers)
