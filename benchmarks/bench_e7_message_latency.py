"""E7 — off-chain relay vs on-chain message store (§III-A adjustment 2).

The paper's argument for decoupling messaging from the chain: a message
stored in the Semaphore contract "will not be visible until blocks
containing those message transactions get mined" (~block interval), while
WAKU-RELAY disseminates in network-latency time.  This benchmark measures
both paths and reports the speedup.
"""

import random

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.analysis.reporting import ExperimentReport, format_seconds, summarize
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.semaphore_contract import SemaphoreContract
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.net.latency import UniformLatency

PEERS = 30
MESSAGES = 8


def run_offchain() -> list[float]:
    """Dissemination times over the RLN-protected WAKU-RELAY mesh."""
    config = RLNConfig(epoch_length=600.0, max_epoch_gap=1, tree_depth=8)
    dep = RLNDeployment.create(
        peer_count=PEERS,
        degree=6,
        seed=17,
        config=config,
        latency=UniformLatency(0.02, 0.2),
    )
    dep.register_all()
    dep.form_meshes(5.0)
    tracker = DeliveryTracker(dep)
    times = []
    for i in range(MESSAGES):
        publisher = dep.peer(dep.peer_ids()[i % PEERS])
        payload = b"latency-%d" % i
        tracker.mark_published(payload)
        publisher.publish(payload)  # distinct publishers: quota untouched
        dep.run(5.0)
        dissemination = tracker.dissemination_time(payload)
        assert tracker.delivery_count(payload) == PEERS
        times.append(dissemination)
    return times


def run_onchain() -> list[float]:
    """Visibility latency of signals stored in the Semaphore contract."""
    chain = Blockchain(block_interval=12.0)
    contract = SemaphoreContract(tree_depth=8)
    chain.deploy(contract)
    chain.fund("publisher", 1000 * WEI)
    rng = random.Random(3)
    latencies = []
    now = 0.0
    for i in range(MESSAGES):
        # Publish at a random point within the block interval.
        now += rng.uniform(1.0, 10.0)
        chain.advance_time(now)
        submitted_at = now
        chain.send_transaction(
            "publisher",
            contract.address,
            "signal",
            {
                "payload": b"onchain-%d" % i,
                "external_nullifier": 1,
                "internal_nullifier": 100 + i,
                "share_x": 1,
                "share_y": 2,
            },
            calldata=b"onchain-%d" % i,
            gas_limit=5_000_000,
        )
        # The message becomes visible when its block is mined.
        while not contract.signals_since(0) or contract.signal_log[-1].payload != b"onchain-%d" % i:
            now += 0.5
            chain.advance_time(now)
        latencies.append(chain.time - submitted_at)
    return latencies


@pytest.fixture(scope="module")
def measurements():
    return run_offchain(), run_onchain()


def test_offchain_beats_onchain(measurements, report_sink, benchmark):
    offchain, onchain = measurements
    off = summarize(offchain)
    on = summarize(onchain)
    report = ExperimentReport(
        experiment="E7",
        claim="off-chain relay vs on-chain store latency (§III-A adjustment 2)",
        headers=("path", "mean", "p50", "max"),
    )
    report.add_row(
        "WAKU-RELAY (off-chain)",
        format_seconds(off.mean),
        format_seconds(off.p50),
        format_seconds(off.maximum),
    )
    report.add_row(
        "Semaphore contract (on-chain)",
        format_seconds(on.mean),
        format_seconds(on.p50),
        format_seconds(on.maximum),
    )
    report.add_row("speedup", f"{on.mean / off.mean:.0f}x", "-", "-")
    report.add_note(
        "30 peers, 20-200 ms links, 12 s blocks; paper claims the on-chain "
        "delay is 'not acceptable for messaging systems'"
    )
    report_sink(report)
    # The qualitative claim: off-chain is at least an order of magnitude faster.
    assert on.mean > 5 * off.mean
    assert off.maximum < 2.0  # multi-hop of sub-second links

    benchmark.pedantic(lambda: summarize(offchain), rounds=1, iterations=1)
