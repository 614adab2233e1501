"""E10 — invalid-proof flood containment (§IV security analysis).

"Malicious participants that may attempt to send messages with invalid
proofs to exhaust the resources of the network will also fail because the
effect of their attack is (1) limited to their direct connections ...
(2) easily addressable by leveraging peer scoring."

Measured here: which peers spend verification work when an attacker
floods invalid proofs, and how scoring eventually silences even the
direct connections.
"""

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.validator import ValidationOutcome
from repro.gossipsub.scoring import ScoreParams
from repro.waku.message import WakuMessage

PEERS = 14
FLOOD = 25


def corrupted_copy(message: WakuMessage) -> WakuMessage:
    return WakuMessage(
        payload=message.payload,
        content_topic=message.content_topic,
        rate_limit_proof=message.rate_limit_proof.forged_copy(),
    )


def run_flood(*, scoring: bool, seed: int):
    config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=8)
    dep = RLNDeployment.create(
        peer_count=PEERS,
        degree=4,
        seed=seed,
        config=config,
        score_params=ScoreParams() if scoring else None,
    )
    dep.register_all()
    dep.form_meshes(5.0)
    attacker = dep.peer("peer-000")
    for i in range(FLOOD):
        honest = attacker._build_message(b"flood-%d" % i, "t", attacker.current_epoch())
        attacker.relay.publish(corrupted_copy(honest))
        dep.run(1.0)
    dep.run(5.0)
    return dep


@pytest.fixture(scope="module")
def flooded():
    return run_flood(scoring=False, seed=101), run_flood(scoring=True, seed=102)


def test_flood_limited_to_direct_connections(flooded, report_sink, benchmark):
    import networkx as nx

    dep, dep_scored = flooded
    distances = nx.single_source_shortest_path_length(dep.graph, "peer-000")
    by_hops: dict[int, list[int]] = {}
    for name, peer in dep.peers.items():
        if name == "peer-000":
            continue
        invalid = peer.validator.stats.count(ValidationOutcome.INVALID_PROOF)
        by_hops.setdefault(distances[name], []).append(invalid)

    report = ExperimentReport(
        experiment="E10",
        claim="invalid-proof flood wastes work only at direct connections (§IV)",
        headers=("hop distance from attacker", "peers", "invalid proofs verified (mean)"),
    )
    for hops in sorted(by_hops):
        counts = by_hops[hops]
        report.add_row(hops, len(counts), round(sum(counts) / len(counts), 1))
    scored_neighbor_rejections = sum(
        p.validator.stats.count(ValidationOutcome.INVALID_PROOF)
        for n, p in dep_scored.peers.items()
        if n != "peer-000"
    )
    report.add_row("with scoring: total rejects", "-", scored_neighbor_rejections)
    # Split counters: real pairing work vs verdicts served from the
    # pipeline's proof-verdict cache (the seed conflated the two).
    pairing_work = sum(
        p.validator.stats.proofs_verified for n, p in dep.peers.items() if n != "peer-000"
    )
    cache_served = sum(
        p.validator.stats.proofs_cached for n, p in dep.peers.items() if n != "peer-000"
    )
    report.add_row("pairing verifications (unscored)", "-", pairing_work)
    report.add_row("cache-served verdicts (unscored)", "-", cache_served)
    report.add_note(
        f"{FLOOD} invalid messages flooded; scoring graylists the attacker, "
        "shrinking even first-hop work"
    )
    report_sink(report)

    # Hop-1 peers did the verification work; everyone farther did none.
    assert all(count > 0 for count in by_hops[1])
    for hops in sorted(by_hops):
        if hops >= 2:
            assert all(count == 0 for count in by_hops[hops])
    # Scoring reduces total wasted verifications (graylist kicks in).
    unscored_total = sum(sum(v) for v in by_hops.values())
    assert scored_neighbor_rejections < unscored_total

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
