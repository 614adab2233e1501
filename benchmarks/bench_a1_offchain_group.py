"""A1 — ablation: contract-based vs DHT-based group management (§IV-A).

The paper's future-work conjecture: replacing the membership contract with
a distributed group management scheme removes the mining-delay bottleneck
from registration (and slashing-related updates).  We measure registration
completion time under both schemes on identical networks.
"""

import random

import pytest

from repro.analysis.reporting import ExperimentReport, format_seconds, summarize
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.crypto.identity import Identity
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network
from repro.offchain.group_registry import DistributedGroupManager
from repro.offchain.kademlia import KademliaNode

PEERS = 16
REGISTRATIONS = 10


def onchain_latencies(seed: int = 5) -> list[float]:
    """Time from sending the registration tx to the membership event."""
    sim = Simulator()
    chain = Blockchain(block_interval=12.0)
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    sim.every(1.0, lambda: chain.advance_time(sim.now))
    rng = random.Random(seed)
    latencies = []
    registered_at = {}
    chain.fund("registrar", 1000 * WEI)

    def on_event(event):
        if event.name == "MemberRegistered":
            latencies.append(sim.now - registered_at[event.data["pk"]])

    chain.subscribe(on_event)
    clock = {"next": 0.0}
    for i in range(REGISTRATIONS):
        identity = Identity.from_secret(100 + i)
        clock["next"] += rng.uniform(2.0, 15.0)

        def submit(identity=identity):
            registered_at[identity.pk.value] = sim.now
            chain.send_transaction(
                "registrar",
                contract.address,
                "register",
                {"pk": identity.pk.value},
                value=1 * WEI,
            )

        sim.schedule_at(clock["next"], submit)
    sim.run(clock["next"] + 30)
    return latencies


def dht_latencies(seed: int = 6) -> list[float]:
    """Time from initiating a DHT registration to replication completing."""
    sim = Simulator()
    graph = random_regular(PEERS, 4, seed=seed)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.05), rng=random.Random(seed)
    )
    names = sorted(graph.nodes)
    managers = {}
    for i, name in enumerate(names):
        dht = KademliaNode(name, network, sim, rng=random.Random(seed + i))
        managers[name] = DistributedGroupManager(name, dht, tree_depth=8)
    for i, name in enumerate(names):
        managers[name].dht.bootstrap([names[0], names[(i + 5) % PEERS]])
    sim.run(3.0)
    rng = random.Random(seed + 99)
    latencies = []
    when = sim.now
    for i in range(REGISTRATIONS):
        identity = Identity.from_secret(200 + i)
        manager = managers[names[i % PEERS]]
        when += rng.uniform(2.0, 15.0)

        def submit(manager=manager, identity=identity):
            start = sim.now
            manager.register(identity.pk, on_done=lambda _s: latencies.append(sim.now - start))

        sim.schedule_at(when, submit)
    sim.run(when + 30)
    return latencies


@pytest.fixture(scope="module")
def measurements():
    return onchain_latencies(), dht_latencies()


def test_dht_registration_avoids_mining_delay(measurements, report_sink, benchmark):
    onchain, dht = measurements
    assert len(onchain) == REGISTRATIONS and len(dht) == REGISTRATIONS
    on = summarize(onchain)
    off = summarize(dht)
    report = ExperimentReport(
        experiment="A1",
        claim="registration latency: membership contract vs DHT group management (§IV-A)",
        headers=("scheme", "mean", "p50", "max"),
    )
    report.add_row(
        "contract (12 s blocks)",
        format_seconds(on.mean),
        format_seconds(on.p50),
        format_seconds(on.maximum),
    )
    report.add_row(
        "DHT (CRDT registry)",
        format_seconds(off.mean),
        format_seconds(off.p50),
        format_seconds(off.maximum),
    )
    report.add_row("speedup", f"{on.mean / off.mean:.0f}x", "-", "-")
    report.add_note(
        "DHT removes the mining wait; what it cannot replace is the deposit/"
        "reward economics (see DESIGN.md)"
    )
    report_sink(report)
    # Blocks vs RTTs: mean waits of ~half a block interval vs sub-second
    # lookup chains.
    assert on.mean > 5 * off.mean
    assert off.maximum < 2.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
