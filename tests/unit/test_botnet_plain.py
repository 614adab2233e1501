"""Unit tests for the plain-relay baseline and the bot-army attack."""

import random

import pytest

from repro.baselines.botnet import SPAM_PREFIX, BotArmy
from repro.baselines.plain_peer import PlainRelayPeer
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network


def build_victims(count=8, scoring=False, classifier=None, seed=21):
    sim = Simulator()
    graph = random_regular(count, 4, seed=seed)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.02), rng=random.Random(seed)
    )
    victims = {
        p: PlainRelayPeer(
            p,
            network,
            sim,
            score_params=ScoreParams() if scoring else None,
            classifier=classifier,
            rng=random.Random(seed + i),
        )
        for i, p in enumerate(sorted(graph.nodes))
    }
    for victim in victims.values():
        victim.start()
    sim.run(3.0)
    return sim, network, victims


class TestPlainPeer:
    def test_no_defence_relays_everything(self):
        sim, _, victims = build_victims()
        victims["peer-000"].publish(SPAM_PREFIX + b"junk")
        sim.run(sim.now + 3)
        delivered = sum(
            any(m.payload.startswith(SPAM_PREFIX) for m in v.received)
            for v in victims.values()
        )
        assert delivered == len(victims)

    def test_deterministic_classifier_blocks_at_first_hop(self):
        sim, _, victims = build_victims(
            classifier=lambda m: m.payload.startswith(SPAM_PREFIX)
        )
        victims["peer-000"].publish(SPAM_PREFIX + b"junk")
        sim.run(sim.now + 3)
        others = [v for n, v in victims.items() if n != "peer-000"]
        assert all(
            not any(m.payload.startswith(SPAM_PREFIX) for m in v.received)
            for v in others
        )

    def test_censorship_false_positive_pruned(self):
        # §I: scoring is "prone to censorship" — a classifier that flags an
        # honest peer's messages gets that peer graylisted.
        flagged_word = b"controversial"
        sim, _, victims = build_victims(
            scoring=True, classifier=lambda m: flagged_word in m.payload
        )
        honest = victims["peer-000"]
        for i in range(6):
            honest.publish(flagged_word + b" opinion %d" % i)
            sim.run(sim.now + 1.5)
        neighbors = [
            victims[n]
            for n in honest.relay.router.network.neighbors("peer-000")
            if n in victims
        ]
        assert any(
            v.relay.router.scoring.graylisted("peer-000", sim.now) for v in neighbors
        )


class TestBotArmy:
    def probabilistic_classifier(self, rate=0.5, seed=5):
        rng = random.Random(seed)
        return lambda m: m.payload.startswith(SPAM_PREFIX) and rng.random() < rate

    def test_rotation_sustains_spam_despite_scoring(self):
        sim, network, victims = build_victims(
            scoring=True, classifier=self.probabilistic_classifier()
        )
        army = BotArmy(
            network=network,
            simulator=sim,
            targets=sorted(victims)[:4],
            send_interval=0.4,
            messages_before_rotation=12,
            rng=random.Random(77),
        )
        army.launch(bot_count=2)
        sim.run(sim.now + 90)
        army.halt()
        assert army.stats.bots_retired >= 2  # identities were burned...
        assert army.stats.bots_spawned > army.stats.bots_retired - 1  # ...and replaced
        spam_delivered = sum(
            sum(1 for m in v.received if m.payload.startswith(SPAM_PREFIX))
            for v in victims.values()
        )
        # The paper's point: rotation keeps spam flowing through scoring.
        assert spam_delivered > 0

    def test_halt_detaches_bots(self):
        sim, network, victims = build_victims()
        army = BotArmy(
            network=network, simulator=sim, targets=sorted(victims)[:3]
        )
        army.launch(bot_count=3)
        sim.run(sim.now + 5)
        army.halt()
        bot_nodes = [n for n in network.graph.nodes if n.startswith("bot-")]
        assert bot_nodes == []

    def test_identity_cost_is_zero_stake(self):
        # Contrast with RLN where each identity costs a deposit: spawning
        # bots moves no money at all.
        sim, network, victims = build_victims()
        army = BotArmy(network=network, simulator=sim, targets=sorted(victims)[:3])
        army.launch(bot_count=4)
        sim.run(sim.now + 10)
        spawned = army.stats.bots_spawned
        army.halt()
        assert spawned >= 4  # arbitrarily many identities, no stake anywhere
