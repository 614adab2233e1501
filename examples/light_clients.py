#!/usr/bin/env python3
"""Resource-restricted peers — the heterogeneity story of §I and §IV-A.

The paper designs for "a network of heterogeneous peers with limited
resources".  This example runs the three tiers side by side:

* **full relay peers** — route, validate proofs, hold the whole tree;
* **a storage-limited peer** — runs the protocol but keeps only the
  O(log N) optimised Merkle view (§IV-A / reference [18]), fed by update
  announcements from a full peer (the hybrid architecture);
* **a bandwidth-limited phone** — no mesh at all; 12/WAKU2-FILTER pushes
  it just the content topic it cares about, and 13/WAKU2-STORE backfills
  history when it comes online.

Run:  python examples/light_clients.py
"""

from repro.analysis.reporting import format_bytes
from repro.core import RLNConfig, RLNDeployment
from repro.crypto.optimized_merkle import OptimizedMerkleView
from repro.waku.filter import FilterClient, FilterNode
from repro.waku.store import StoreClient, StoreNode

TOPIC = "/sensor-net/1/readings/proto"


def main() -> None:
    print("== heterogeneous peers: full, storage-limited, bandwidth-limited ==\n")
    config = RLNConfig(epoch_length=5.0, max_epoch_gap=2, tree_depth=20)
    dep = RLNDeployment.create(peer_count=8, degree=4, seed=77, config=config)
    # peer-007 joins the group later, after the light view exists.
    dep.register_all([p for p in dep.peer_ids() if p != "peer-007"])
    dep.form_meshes()

    # -- storage-limited tier -------------------------------------------------
    # peer-003 swaps its full tree for the optimised O(log N) view the
    # moment it knows its own authentication path.
    lite = dep.peer("peer-003")
    view = OptimizedMerkleView(
        lite.group.merkle_proof(lite.identity.pk), lite.group.root
    )
    # A full peer serves update announcements (the hybrid architecture).
    dep.peer("peer-000").group.on_update(view.apply_update)

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
          f"({dep.contract.member_count()} members): root matches\n")

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
