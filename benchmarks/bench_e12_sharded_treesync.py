"""E12 — sharded tree sync vs flat replay at 10k / 100k / 1M members.

The seed's §III-C tree sync makes every routing peer replay every
membership event onto a full depth-20 tree: ``depth`` compressions and a
full :class:`TreeUpdate` (the pre-block path included) consumed per event,
regardless of whether the peer will ever interact with that member.  The
``repro.treesync`` forest changes the exchange rate:

* a **foreign**-shard event is consumed as a
  :class:`~repro.treesync.messages.ShardRootDigest` — ~0.1 KB instead of a
  ~0.7 KB full update, and *zero* immediate compressions (the top tree is
  recommitted once per validation burst, ``top_depth`` compressions per
  dirty shard);
* a **home**-shard event still replays locally (``shard_depth``
  compressions) — but a peer owns one shard in ``2^top_depth``, so at
  scale almost all traffic is foreign;
* peer storage drops from the whole tree to one shard plus the top tree.

Hash work is counted, not timed: compression *counts* are a structural
invariant of the trees, so the trees are built over an injected cheap
hasher (the million-member rows would take hours over real Poseidon at
~0.6 ms per compression; the counts are identical either way).
"""

import pytest

from repro.analysis.reporting import ExperimentReport, format_bytes
from repro.crypto.field import FIELD_MODULUS, FieldElement, ZERO
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.optimized_merkle import TreeUpdate
from repro.treesync import ShardSyncManager, ShardUpdate, ShardedMerkleForest

DEPTH = 20
SHARD_DEPTH = 10
#: Membership events applied per measurement window (one "validation
#: burst" between commits; the sharded peer commits once at its end).
WINDOW = 256

SCALES = (10_000, 100_000, 1_000_000)


def cheap_hash(left: FieldElement, right: FieldElement) -> FieldElement:
    """Accounting-only two-to-one mix (structure, not security)."""
    return FieldElement((left.value * 3 + right.value * 5 + 0x9E3779B9) % FIELD_MODULUS)


def build_members(count: int) -> list[FieldElement]:
    return [FieldElement(i + 1) for i in range(count)]


@pytest.mark.parametrize("members", SCALES)
def test_sharded_vs_flat(report_sink, members):
    leaves = build_members(members)
    flat = MerkleTree.from_leaves(leaves, depth=DEPTH, hasher=cheap_hash)
    forest = ShardedMerkleForest.from_leaves(
        leaves, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    # The tentpole invariant: identical membership, identical root.
    assert forest.root == flat.root

    # A shard-scoped peer whose home shard is 0; the event window appends
    # at the frontier shard, i.e. every event is foreign to it.
    peer = ShardSyncManager(
        home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    # Adopt current state out-of-band (a checkpoint restore without the
    # consistency theatre — home shard replay is exercised in the tests).
    for shard_id, root in forest.shard_roots().items():
        if shard_id != 0:
            peer._pending[shard_id] = root
    peer.shard = MerkleTree.from_leaves(
        leaves[: forest.shard_capacity], depth=SHARD_DEPTH, hasher=cheap_hash
    )
    peer._pending[0] = peer.shard.root
    peer.seq = members
    peer.commit()
    assert peer.root == flat.root
    peer_hash_base = peer.hash_ops
    flat_hash_base = flat.hash_ops

    # -- the event window: WINDOW fresh registrations, one per block ---------
    flat_traffic = 0
    peer_traffic = 0
    seq = members
    for i in range(WINDOW):
        pk = FieldElement(members + i + 1)
        index = flat.leaf_count
        path = flat.proof(index)
        flat.append(pk)
        forest.append(pk)
        seq += 1
        shard_id = forest.shard_of(index)
        announcement = ShardUpdate(
            seq=seq,
            writes=((index, ZERO, pk),),
            shard_roots=((shard_id, forest.shard_root(shard_id)),),
            new_global_root=forest.root,
        )
        # Flat peer: consumes the path-carrying update (it replays the path).
        flat_traffic += TreeUpdate(writes=((path, pk),), new_root=flat.root).byte_size()
        # Sharded peer: consumes the O(1) digest for this foreign shard.
        digest = announcement.digest()
        peer.apply(digest)
        peer_traffic += digest.byte_size()
    committed = peer.root  # one commit closes the burst
    assert committed == flat.root == forest.root

    # The flat appends above *are* the flat peer's replay work (the forest
    # and sync-manager counters are tracked separately).
    flat_hashes = flat.hash_ops - flat_hash_base
    peer_hashes = peer.hash_ops - peer_hash_base

    flat_per_event = flat_hashes / WINDOW
    peer_per_event = peer_hashes / WINDOW

    report = ExperimentReport(
        experiment=f"E12-{members}",
        claim="sharded tree sync: foreign-shard events cost ≥10x less hash work",
        headers=("metric", "flat peer", "sharded peer"),
    )
    report.add_row(
        "hash ops / foreign event", f"{flat_per_event:.1f}", f"{peer_per_event:.3f}"
    )
    report.add_row(
        "sync traffic / event",
        format_bytes(flat_traffic // WINDOW),
        format_bytes(peer_traffic // WINDOW),
    )
    report.add_row(
        "peer storage",
        format_bytes(flat.storage_bytes()),
        format_bytes(peer.storage_bytes()),
    )
    report.add_row("members", members, members)
    report.add_note(
        f"window of {WINDOW} frontier registrations, all foreign to the "
        f"sharded peer's home shard; one top-tree commit per window "
        f"({peer.stats.commits} commits, depth {DEPTH}, shard depth {SHARD_DEPTH})"
    )
    report_sink(report)

    # Acceptance: ≥10x fewer compressions per foreign-shard event.
    assert peer_per_event * 10 <= flat_per_event, (
        f"sharded peer spent {peer_per_event:.3f} hashes/event vs flat "
        f"{flat_per_event:.1f} — less than the required 10x saving"
    )
    # Traffic shrinks by ~9x too (digest vs full path).
    assert peer_traffic * 5 <= flat_traffic
    # Storage: the sharded peer holds one shard + top tree, not the forest
    # (~8x at 10k where the home shard dominates, growing with the group).
    assert peer.storage_bytes() * 8 <= flat.storage_bytes()


def test_witnesses_splice_through_unchanged_circuit(report_sink):
    """Spliced (shard ∥ top) witnesses equal flat paths node-for-node.

    Uses the real Poseidon hasher at a small scale: the witness a sharded
    peer produces is byte-identical to the flat tree's auth path, which is
    why ``rln_circuit`` needs no changes (the full prove/verify round trip
    is pinned in the test suite).
    """
    leaves = build_members(64)
    flat = MerkleTree.from_leaves(leaves, depth=8)
    forest = ShardedMerkleForest.from_leaves(leaves, depth=8, shard_depth=3)
    assert forest.root == flat.root
    for index in (0, 7, 8, 33, 63):
        spliced = forest.proof(index)
        assert isinstance(spliced, MerkleProof)
        assert spliced == flat.proof(index)
        assert spliced.verify(flat.root)
