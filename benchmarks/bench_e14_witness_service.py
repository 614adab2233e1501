"""E14 — the witness service: light members vs tree-holding publishers.

The §IV-A hybrid architecture promises that light members can publish
without maintaining the membership tree, fetching authentication paths
from resourceful peers on demand.  This harness measures the exchange
rate at 10k / 100k / 1M members:

* **per-member storage** — a whole-tree peer (the seed) vs a shard-scoped
  publisher (home shard + top tree, the E12 status quo) vs a light member
  (top-tree view only: accepted roots, zero leaves);
* **publish-side witness acquisition latency** (simulated) — local
  extraction for tree holders, a request/response round trip for a cold
  light member, and an O(1) cache hit for a light member whose cache the
  executor's BACKGROUND lanes pre-refreshed;
* **late-joiner bootstrap** — a peer whose home-shard history aged out of
  store retention: checkpoint+delta alone fails (the pre-subsystem hard
  error), authenticated snapshot transfer succeeds.

As in E12, tree structure is built over an injected cheap hasher — node
*counts* and message *sizes* are structural invariants, and the million-
member rows would take hours over real Poseidon.
"""

import random

import pytest

from repro import testing
from repro.analysis.reporting import ExperimentReport, format_bytes, format_seconds
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.membership import GroupManager
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleTree
from repro.errors import InconsistentTreeUpdate
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.treesync import ShardSyncManager, ShardedMerkleForest, TreeSyncPublisher
from repro.waku.relay import WakuRelay
from repro.waku.store import StoreClient, StoreNode
from repro.witness import WitnessClient, WitnessResponse, WitnessService

DEPTH = 20
SHARD_DEPTH = 10
SCALES = (10_000, 100_000, 1_000_000)
LINK_LATENCY = 0.05  # one-way, seconds — the deployment default


def cheap_hash(left: FieldElement, right: FieldElement) -> FieldElement:
    """Accounting-only two-to-one mix (structure, not security)."""
    return FieldElement((left.value * 3 + right.value * 5 + 0x9E3779B9) % FIELD_MODULUS)


class StubManager:
    """The slice of GroupManager the witness service reads (benchmark-only)."""

    def __init__(self, forest: ShardedMerkleForest, seq: int) -> None:
        self.tree = forest
        self.event_seq = seq
        self.shard_depth = forest.shard_depth


class OneRootWindow:
    def __init__(self, root: FieldElement) -> None:
        self.root = root

    def is_acceptable_root(self, root: FieldElement) -> bool:
        return root == self.root


@pytest.mark.parametrize("members", SCALES)
def test_light_member_storage_and_latency(report_sink, members):
    leaves = [FieldElement(i + 1) for i in range(members)]
    flat = MerkleTree.from_leaves(leaves, depth=DEPTH, hasher=cheap_hash)
    forest = ShardedMerkleForest.from_leaves(
        leaves, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    assert forest.root == flat.root

    # -- storage: whole tree vs home shard + top vs top only ------------------
    shard_peer = ShardSyncManager(
        home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    light_view = ShardSyncManager(
        home_shard=None, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    for shard_id, root in forest.shard_roots().items():
        shard_peer._pending[shard_id] = root
        light_view._pending[shard_id] = root
    shard_peer.shard = MerkleTree.from_leaves(
        leaves[: forest.shard_capacity], depth=SHARD_DEPTH, hasher=cheap_hash
    )
    shard_peer._pending[0] = shard_peer.shard.root
    shard_peer.seq = light_view.seq = members
    shard_peer.commit()
    light_view.commit()
    assert shard_peer.root == light_view.root == flat.root

    flat_storage = flat.storage_bytes()
    shard_storage = shard_peer.storage_bytes()
    light_storage = light_view.storage_bytes()

    # -- publish-side witness acquisition over a simulated link ----------------
    sim = Simulator()
    graph = full_mesh(2)
    network = Network(
        simulator=sim,
        graph=graph,
        latency=ConstantLatency(LINK_LATENCY),
        rng=random.Random(3),
    )
    server, light = sorted(graph.nodes)
    service = WitnessService(server, StubManager(forest, members), network)
    client = WitnessClient(
        light,
        network,
        sim,
        (server,),
        OneRootWindow(forest.root),
        tree_depth=DEPTH,
        timeout=5.0,
        hasher=cheap_hash,
    )
    member_index = 5

    got = []
    started = sim.now
    client.witness(member_index, got.append)
    sim.run_until_idle(max_time=sim.now + 60.0)
    cold_latency = sim.now - started
    assert got and got[0] == flat.proof(member_index)
    witness_bytes = WitnessResponse(
        request_id=0, found=True, seq=members, proof=got[0]
    ).byte_size()

    # Warm path: the cache (kept fresh by BACKGROUND refreshes) answers
    # synchronously — zero simulated time, zero network attempts.
    attempts_before = client.dispatcher.stats.attempts
    started = sim.now
    warm = []
    client.witness(member_index, warm.append)
    warm_latency = sim.now - started
    assert warm and client.dispatcher.stats.attempts == attempts_before
    assert warm_latency == 0.0

    report = ExperimentReport(
        experiment=f"E14-{members}",
        claim="light members publish without holding a tree (§IV-A)",
        headers=("metric", "whole tree", "home shard+top", "light member"),
    )
    report.add_row(
        "member storage",
        format_bytes(flat_storage),
        format_bytes(shard_storage),
        format_bytes(light_storage),
    )
    report.add_row(
        "witness acquisition",
        "local (~0 s)",
        "local (~0 s)",
        f"cold {format_seconds(cold_latency)} / warm 0 s",
    )
    report.add_row(
        "witness traffic / publish",
        "0 B",
        "0 B",
        f"cold {format_bytes(witness_bytes)} / warm 0 B",
    )
    report.add_row("members", members, members, members)
    cache = client.cache.stats
    report.add_note(
        f"cold fetch = request/response over a {LINK_LATENCY * 1e3:.0f} ms "
        "link through the SERVICE executor class; warm = cache hit; "
        f"service load: {service.stats.served} served, "
        f"{cache.hits + cache.misses} acquisitions at {cache.hit_ratio:.0%} hit rate"
    )
    report_sink(report)
    assert service.stats.served == service.stats.witnesses_served == 1
    assert (cache.hits, cache.misses) == (1, 1)

    # Acceptance: the light member's state is a strict subset — no shard —
    # and the cold fetch costs exactly the round trip, not tree work.
    assert light_storage < shard_storage < flat_storage
    assert light_storage * 50 <= flat_storage
    assert cold_latency >= 2 * LINK_LATENCY
    assert cold_latency < 1.0


def test_late_joiner_bootstrap_arm(report_sink):
    """Checkpoint+delta fails after retention ages the home topic out;
    authenticated snapshot transfer bootstraps the same peer."""
    depth, shard_depth, retention = 8, 3, 48

    def build_history():
        sim = Simulator()
        graph = full_mesh(3)
        network = Network(
            simulator=sim,
            graph=graph,
            latency=ConstantLatency(0.01),
            rng=random.Random(9),
        )
        relays = {
            peer: WakuRelay(peer, network, sim, rng=random.Random(i))
            for i, peer in enumerate(sorted(graph.nodes))
        }
        for relay in relays.values():
            relay.start()
        sim.run(3.0)
        chain = Blockchain()
        contract = RLNMembershipContract(deposit=1 * WEI)
        chain.deploy(contract)
        chain.fund("funder", 500 * WEI)
        manager = GroupManager(
            chain,
            contract,
            tree_depth=depth,
            shard_depth=shard_depth,
        )
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=retention)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)
        for i in range(60):
            testing.register_member(chain, contract, 0x8000 + i)
        return sim, network, names, manager

    # Arm 1 — the pre-subsystem behaviour: a hard failure.
    sim, network, names, manager = build_history()
    late = ShardSyncManager(home_shard=0, depth=depth, shard_depth=shard_depth)
    late.sync_from_store(StoreClient(names[1], network), names[0])
    failed = False
    try:
        sim.run(10.0)
    except InconsistentTreeUpdate:
        failed = True
    assert failed, "checkpoint+delta unexpectedly succeeded"

    # Arm 2 — snapshot transfer bootstraps the same scenario.
    sim, network, names, manager = build_history()
    WitnessService(names[0], manager, network)
    late = ShardSyncManager(home_shard=0, depth=depth, shard_depth=shard_depth)
    witness_client = WitnessClient(
        names[1], network, sim, (names[0],), late, tree_depth=depth
    )
    received_before = network.stats[names[1]].bytes_received
    roots = []
    late.sync_from_store(
        StoreClient(names[1], network),
        names[0],
        snapshot_fetch=witness_client.fetch_snapshot,
        on_done=roots.append,
    )
    sim.run(10.0)
    fetched = network.stats[names[1]].bytes_received - received_before
    assert roots and roots[0] == manager.root
    assert late.stats.snapshots_restored == 1

    report = ExperimentReport(
        experiment="E14-bootstrap",
        claim="snapshot transfer bootstraps where checkpoint+delta cannot",
        headers=("arm", "outcome", "bytes fetched"),
    )
    report.add_row("checkpoint+delta only", "InconsistentTreeUpdate", "-")
    report.add_row(
        "with snapshot transfer",
        f"root restored at seq {late.seq}",
        format_bytes(fetched),
    )
    report.add_note(
        f"store retention {retention} messages; 60 registrations; "
        "home shard 0's full updates evicted before the late joiner arrived"
    )
    report_sink(report)
