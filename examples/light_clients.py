#!/usr/bin/env python3
"""Resource-restricted peers — the heterogeneity story of §I and §IV-A.

The paper designs for "a network of heterogeneous peers with limited
resources".  This example runs the four tiers side by side:

* **full relay peers** — route, validate proofs, hold the whole tree;
* **a storage-limited peer** — runs the protocol but keeps only the
  O(log N) optimised Merkle view (§IV-A / reference [18]), fed one update
  announcement per block by the full peers' tree (the hybrid
  architecture);
* **a bandwidth-limited phone** — no mesh at all; 12/WAKU2-FILTER pushes
  it just the content topic it cares about, and 13/WAKU2-STORE backfills
  history when it comes online;
* **a treeless member** — registered, but holding no tree: it fetches its
  Merkle authentication path from a full peer (§IV-A's hybrid
  architecture) and publishes through 19/WAKU2-LIGHTPUSH, never joining
  the mesh.

Run:  python examples/light_clients.py
"""

from repro import testing
from repro.analysis.metrics import DeliveryTracker
from repro.analysis.reporting import format_bytes
from repro.chain.blockchain import WEI
from repro.core import RLNConfig, RLNDeployment
from repro.core.validator import ValidationOutcome
from repro.crypto.optimized_merkle import OptimizedMerkleView
from repro.treesync import ShardSyncManager
from repro.waku.filter import FilterClient, FilterNode
from repro.waku.lightpush import LightPushClient, LightPushNode
from repro.waku.store import StoreClient, StoreNode
from repro.witness import LightMember, WitnessClient

TOPIC = "/sensor-net/1/readings/proto"


def main() -> None:
    print("== heterogeneous peers: full, storage-limited, bandwidth-limited, "
          "treeless ==\n")
    config = RLNConfig(epoch_length=5.0, max_epoch_gap=2, tree_depth=20)
    dep = RLNDeployment.create(peer_count=8, degree=4, seed=77, config=config)
    tracker = DeliveryTracker(dep)
    serving = dep.peer("peer-000")
    # The treeless member's whole tree-shaped state: a digest-fed light view
    # (top tree only, no shard, no leaves) that follows peer-000's group.
    light_view = ShardSyncManager(
        home_shard=None, depth=config.tree_depth, shard_depth=serving.group.shard_depth
    )
    serving.group.on_shard_update(light_view.apply)
    # peer-007 joins the group later, after the light views exist.
    dep.register_all([p for p in dep.peer_ids() if p != "peer-007"])
    dep.form_meshes()

    # -- storage-limited tier -------------------------------------------------
    # peer-003 swaps its full tree for the optimised O(log N) view the
    # moment it knows its own authentication path.
    lite = dep.peer("peer-003")
    view = OptimizedMerkleView(
        lite.group.merkle_proof(lite.identity.pk), lite.group.root
    )
    # The deployment's full tree serves it each block's pre-block paths
    # (the hybrid architecture).
    dep.group.on_update(view.apply_update)

    full_bytes = lite.group.tree.storage_bytes()
    print("storage-limited peer (optimised Merkle view, §IV-A):")
    print(f"   full tree storage      : {format_bytes(full_bytes)} (sparse), "
          f"{format_bytes(type(lite.group.tree).dense_storage_bytes(20))} dense")
    print(f"   optimised view storage : {format_bytes(view.storage_bytes())}\n")

    # -- bandwidth-limited tier ---------------------------------------------
    FilterNode(dep.peer("peer-001").relay, dep.network)
    StoreNode(dep.peer("peer-002").relay, dep.network, capacity=100)
    dep.network.add_peer("phone", ["peer-001", "peer-002"])
    phone = FilterClient("phone", dep.network)
    phone.subscribe("peer-001", (TOPIC,))
    dep.run(1.0)

    # -- treeless member tier -----------------------------------------------
    # Registered on-chain like any member; peer-000 serves it witnesses and
    # peer-001 publishes for it, checking the proof with its own verifier.
    dep.chain.fund("funder", 10 * WEI)
    identity = testing.register_member(dep.chain, dep.contract, 0x11947)
    dep.run(1.0)
    dep.network.add_peer("member-phone", ["peer-000", "peer-001"])
    serving.witness_service()
    witnesses = WitnessClient(
        "member-phone",
        dep.network,
        dep.simulator,
        ("peer-000",),
        light_view,
        tree_depth=config.tree_depth,
    )
    serving.group.on_shard_update(witnesses.on_shard_event)
    member = LightMember(
        identity,
        serving.group.index_of(identity.pk),
        prover=dep.prover,
        client=witnesses,
        timestamp=serving.unix_now,
    )
    pusher = dep.peer("peer-001")
    push_node = LightPushNode(
        pusher.relay, dep.network, proof_checker=pusher.pipeline.batch_verifier
    )
    push_client = LightPushClient("member-phone", dep.network)
    acks: list = []

    def lightpush(message) -> None:
        push_client.push("peer-001", message, on_response=acks.append)

    def verdicts(outcome: ValidationOutcome) -> int:
        return sum(p.validator.stats.count(outcome) for p in dep.peers.values())

    def push_and_check(payload: bytes) -> None:
        served, valid = push_node.served, verdicts(ValidationOutcome.VALID)
        member.publish(payload, serving.current_epoch(), lightpush)
        dep.run(2.0)
        assert push_node.served == served + 1 and acks[-1].accepted
        # Every relay delivered it: peer-001 after its lightpush proof check,
        # each of the others after its validator judged it VALID.
        assert tracker.delivery_count(payload) == len(dep.peers)
        assert verdicts(ValidationOutcome.VALID) == valid + len(dep.peers) - 1
        assert not verdicts(ValidationOutcome.INVALID_PROOF)

    member.prefetch_witness()
    dep.run(1.0)
    first_epoch = serving.current_epoch()
    push_and_check(b"lightpushed by a treeless member")
    assert light_view.shard is None  # no shard, no leaves, anywhere
    print("treeless member (witness fetched from peer-000, lightpushed via peer-001):")
    print(f"   tree state held        : light view, {len(witnesses.cache)} cached witness, "
          "no shard")
    print(f"   delivered to           : {len(dep.peers)}/{len(dep.peers)} relays, "
          "judged VALID\n")

    # -- traffic ---------------------------------------------------------------
    for round_number in range(3):
        for publisher in ("peer-004", "peer-005", "peer-006"):
            dep.peer(publisher).publish(
                f"reading {round_number} from {publisher}".encode(),
                content_topic=TOPIC,
            )
        dep.run(config.epoch_length + 0.5)

    # Membership keeps changing: a late registration reaches the light view
    # only as an update announcement, which moves its path and root.
    root_before = view.root
    dep.register_all(["peer-007"])
    assert view.root != root_before
    assert view.root == dep.peer("peer-000").group.root
    print("storage-limited peer followed a late registration "
          f"({dep.contract.member_count()} members): root matches")

    # The same registration invalidates the treeless member's cached witness;
    # the client re-fetches it in the background, so the next publish needs
    # no fetch of its own.
    dep.run(1.0)
    stats = witnesses.cache.stats
    assert stats.invalidations == 1 and stats.refreshes == 1
    assert witnesses.cache.root_of(member.index) == serving.group.root
    assert serving.current_epoch() != first_epoch
    fetches = witnesses.dispatcher.stats.attempts
    push_and_check(b"lightpushed after the refresh")
    assert witnesses.dispatcher.stats.attempts == fetches
    print("treeless member's witness was refreshed after it; its next lightpush "
          "needed no fetch\n")

    print(f"phone received {len(phone.received)} pushed readings "
          f"(bandwidth: only {TOPIC})")
    for message in phone.received[:3]:
        print(f"   {message.payload.decode()}")

    # The phone was offline for the first round; backfill via the store.
    history: list = []
    StoreClient("phone", dep.network).query(
        "peer-002", content_topics=(TOPIC,), on_complete=history.extend
    )
    dep.run(2.0)
    print(f"\nstore backfill returned {len(history)} archived readings")

    # The storage-limited peer can still *publish* using its tracked path:
    proof = view.proof()
    assert proof.verify(dep.peer("peer-000").group.root)
    print("\nstorage-limited peer's auth path verifies against the live root — "
          "it can publish without ever holding the tree")


if __name__ == "__main__":
    main()
