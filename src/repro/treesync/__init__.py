"""Shard-scoped sync of the identity tree for million-member groups.

A full replica replays every membership event onto the one
:class:`~repro.crypto.merkle.MerkleTree`.  This package reads that tree's
levels as fixed-capacity shards under a small top tree (``forest``: a
view, nothing stored twice), so that a peer which does *not* want the whole
tree can hold only its own shard plus the shard roots (``sync``), fed by
shard-tagged announcements (``messages``) and still able to produce the
standard authentication path (``witness``).  See ``README.md``'s
architecture section for the shard layout, sync flow, and witness splicing.
"""

from repro.treesync.forest import DEFAULT_SHARD_DEPTH, ShardedMerkleForest
from repro.treesync.messages import (
    CHECKPOINT_TOPIC,
    DIGEST_TOPIC,
    ShardRootDigest,
    ShardUpdate,
    TreeCheckpoint,
    shard_topic,
)
from repro.treesync.sync import (
    ShardSyncManager,
    SnapshotFetch,
    TreeSyncPublisher,
    TreeSyncStats,
)
from repro.treesync.witness import splice

__all__ = [
    "CHECKPOINT_TOPIC",
    "DEFAULT_SHARD_DEPTH",
    "DIGEST_TOPIC",
    "ShardRootDigest",
    "ShardSyncManager",
    "ShardUpdate",
    "ShardedMerkleForest",
    "SnapshotFetch",
    "TreeCheckpoint",
    "TreeSyncPublisher",
    "TreeSyncStats",
    "shard_topic",
    "splice",
]
