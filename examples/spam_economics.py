#!/usr/bin/env python3
"""Spam economics — comparing the cost of spamming under each defence (§I).

Reproduces the paper's motivating comparison as a runnable scenario:

* no defence      — spam is free and floods everyone;
* proof-of-work   — cost is CPU: negligible for a server farm, prohibitive
                    for phones (which stops *honest* phone users instead);
* peer scoring    — cost is identities, which are free to mint (bot army);
* WAKU-RLN-RELAY  — cost is a slashed on-chain deposit per identity, paid
                    to whoever catches the spammer.

Run:  python examples/spam_economics.py
"""

import random

from repro.analysis.reporting import format_table
from repro.baselines.botnet import SPAM_PREFIX, BotArmy
from repro.baselines.plain_peer import PlainRelayPeer
from repro.baselines.pow import PoWRelayPeer, expected_mint_seconds
from repro.chain.blockchain import WEI
from repro.core import RLNConfig, RLNDeployment
from repro.gossipsub.scoring import ScoreParams
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network
from repro.testing import inbox

PEERS = 12
SPAM_BURST = 20


def spam_count(inboxes) -> int:
    return sum(
        sum(1 for m in got if m.payload.startswith(SPAM_PREFIX)) for got in inboxes
    )


def plain_network(seed, scoring=False, classifier=None):
    sim = Simulator()
    graph = random_regular(PEERS, 4, seed=seed)
    net = Network(simulator=sim, graph=graph, latency=ConstantLatency(0.03), rng=random.Random(seed))
    peers = {
        n: PlainRelayPeer(n, net, sim, score_params=ScoreParams() if scoring else None, classifier=classifier,
                          rng=random.Random(seed + i))
        for i, n in enumerate(sorted(graph.nodes))
    }
    for p in peers.values():
        p.start()
    sim.run(3.0)
    return sim, net, peers


def arm_none():
    sim, _, peers = plain_network(11)
    inboxes = [inbox(p) for p in peers.values()]
    for i in range(SPAM_BURST):
        peers["peer-000"].publish(SPAM_PREFIX + b"%d" % i)
        sim.run(sim.now + 1)
    sim.run(sim.now + 5)
    return ("no defence", spam_count(inboxes), "nothing")


def arm_pow():
    sim = Simulator()
    graph = random_regular(PEERS, 4, seed=12)
    net = Network(simulator=sim, graph=graph, latency=ConstantLatency(0.03), rng=random.Random(12))
    peers = {}
    for i, n in enumerate(sorted(graph.nodes)):
        rate = 1e8 if n == "peer-000" else 1e5
        peers[n] = PoWRelayPeer(n, net, sim, difficulty=16, hash_rate=rate,
                                rng=random.Random(12 + i))
        peers[n].start()
    sim.run(3.0)
    inboxes = [inbox(p) for p in peers.values()]
    for i in range(SPAM_BURST):
        peers["peer-000"].publish(SPAM_PREFIX + b"%d" % i)
        sim.run(sim.now + 1)
    sim.run(sim.now + 10)
    cpu = expected_mint_seconds(16, 1e8) * SPAM_BURST
    return (
        "proof-of-work",
        spam_count(inboxes),
        f"{cpu:.2f}s server CPU (a phone would need "
        f"{expected_mint_seconds(16, 1e5):.1f}s PER honest message)",
    )


def arm_scoring():
    rng = random.Random(5)
    classifier = lambda m: m.payload.startswith(SPAM_PREFIX) and rng.random() < 0.6
    sim, net, peers = plain_network(13, scoring=True, classifier=classifier)
    inboxes = [inbox(p) for p in peers.values()]
    army = BotArmy(network=net, simulator=sim, targets=sorted(peers)[:5],
                   send_interval=1.0, messages_before_rotation=10, rng=random.Random(14))
    army.launch(bot_count=1)
    sim.run(sim.now + SPAM_BURST * 2)
    army.halt()
    return (
        "peer scoring",
        spam_count(inboxes),
        f"{army.stats.bots_spawned} identities (free) — "
        f"{army.stats.bots_retired} graylisted and simply replaced",
    )


def arm_rln():
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=10)
    dep = RLNDeployment.create(peer_count=PEERS, degree=4, seed=15, config=config)
    dep.register_all()
    dep.form_meshes()
    spammer = dep.peer("peer-000")
    honest = [inbox(p) for n, p in dep.peers.items() if n != "peer-000"]
    for i in range(SPAM_BURST):
        try:
            spammer.publish(SPAM_PREFIX + b"%d" % i, force=True)
        except Exception:
            break
        dep.run(1.0)
    dep.run(6 * dep.chain.block_interval)
    removed = not dep.contract.is_member(spammer.identity.pk)
    return (
        "WAKU-RLN-RELAY",
        spam_count(honest),
        f"{dep.contract.deposit / WEI:.0f} ETH slashed, membership "
        f"{'revoked' if removed else 'intact'}",
    )


def main() -> None:
    print("== what does it cost to spam? ==")
    print(f"(one spammer, {PEERS}-peer network, {SPAM_BURST}-message burst)\n")
    rows = [arm_none(), arm_pow(), arm_scoring(), arm_rln()]
    print(
        format_table(
            ("defence", "spam deliveries to honest apps", "attacker pays"),
            rows,
        )
    )
    print(
        "\nRLN is the only arm where spam is bounded per-identity, the bound is"
        "\nenforced cryptographically, and the attacker's money funds the defenders."
    )


if __name__ == "__main__":
    main()
