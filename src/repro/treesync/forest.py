"""Shard geometry over the identity tree — the forest is a *view*.

Splitting the depth-``depth`` identity tree at level ``shard_depth`` gives
fixed-capacity *shards* (subtrees over leaf ranges
``[s * 2^shard_depth, (s+1) * 2^shard_depth)``) under a small *top tree* of
depth ``depth - shard_depth`` that commits to the shard roots.  The split
is a relabeling of the tree's own levels — shard ``s`` is node
``(shard_depth, s)``, the top tree is the levels above it — so nothing is
stored or hashed twice: :class:`ShardedMerkleForest` is a
:class:`~repro.crypto.merkle.MerkleTree` that also answers shard-shaped
questions, with the same root, paths and compression count.

A full replica therefore gains nothing from the split.  The peers that
store and hash less are the ones that hold only *part* of the tree: a
:class:`~repro.treesync.sync.ShardSyncManager` keeps one shard plus the top
tree (two small ``MerkleTree``s) and consumes foreign shards as O(1) root
digests, and a shard path spliced with a top path
(:func:`repro.treesync.witness.splice`) is byte-identical to the full
authentication path, so the RLN circuit and the validators never know.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.field import FIELD_BYTES, FieldElement
from repro.crypto.merkle import DEFAULT_DEPTH, MerkleProof, MerkleTree, NodeHasher
from repro.errors import MerkleError

#: Shard depth used by the paper-scale deployments: 2^10-member shards
#: under a depth-20 tree leave a 2^10-leaf top tree.
DEFAULT_SHARD_DEPTH = 10


def default_shard_depth(depth: int) -> int:
    """The geometry ``shard_depth=None`` means: ``min(10, depth - 1)``, so
    small (test-sized) trees split validly.  A depth-1 tree has no level
    to split at and gets 0 — every leaf its own "shard": announcements are
    still tagged, there is just no shard to snapshot."""
    return min(DEFAULT_SHARD_DEPTH, depth - 1)


def resolve_shard_depth(depth: int, shard_depth: int | None = None) -> int:
    """Default or range-check a shard geometry — the one place that does."""
    if shard_depth is None:
        return default_shard_depth(depth)
    if not 1 <= shard_depth < depth:
        raise MerkleError(f"shard_depth must be in [1, {depth - 1}], got {shard_depth}")
    return shard_depth


def allocated_shard_roots(tree: MerkleTree, shard_depth: int) -> dict[int, FieldElement]:
    """Root of every shard ever allocated (the checkpoint payload).

    Emptied shards are listed too, with the empty-shard root: a consumer
    restoring from the checkpoint must overwrite whatever stale root it
    holds for them.
    """
    count = (tree.leaf_count + (1 << shard_depth) - 1) >> shard_depth
    return {sid: tree.subtree_root(shard_depth, sid) for sid in range(count)}


class ShardedMerkleForest(MerkleTree):
    """A :class:`MerkleTree` that knows where its shards are."""

    def __init__(
        self,
        depth: int = DEFAULT_DEPTH,
        shard_depth: int = DEFAULT_SHARD_DEPTH,
        *,
        hasher: NodeHasher | None = None,
    ) -> None:
        super().__init__(depth, hasher=hasher)
        self.shard_depth = resolve_shard_depth(depth, shard_depth)
        self.top_depth = depth - shard_depth
        self.shard_capacity = 1 << shard_depth
        #: Root of a fully-empty shard (what an untouched shard reads as).
        self.empty_shard_root = self._zeros[shard_depth]

    @classmethod
    def from_leaves(
        cls,
        leaves: Sequence[FieldElement],
        depth: int = DEFAULT_DEPTH,
        shard_depth: int = DEFAULT_SHARD_DEPTH,
        *,
        hasher: NodeHasher | None = None,
    ) -> "ShardedMerkleForest":
        forest = cls(depth, shard_depth, hasher=hasher)
        forest._load(leaves)
        return forest

    @property
    def node_hasher(self) -> NodeHasher:
        """The two-to-one compression this forest folds with (Poseidon
        unless an accounting hasher was injected)."""
        return self._hash

    # ``benchmarks/e2e/trace.py`` wraps and restores these three per class;
    # inherited, the restore would pin MerkleTree's *wrapper* onto this
    # class.  They must stay attributes this class defines itself.

    def append(self, leaf: FieldElement) -> int:
        return super().append(leaf)

    def delete(self, index: int) -> None:
        super().delete(index)

    def proof(self, index: int) -> MerkleProof:
        return super().proof(index)

    # -- shard geometry ---------------------------------------------------------

    def shard_of(self, index: int) -> int:
        return index >> self.shard_depth

    def shard_root(self, shard_id: int) -> FieldElement:
        return self.subtree_root(self.shard_depth, shard_id)

    def shard_roots(self) -> dict[int, FieldElement]:
        return allocated_shard_roots(self, self.shard_depth)

    def shard_proof(self, index: int) -> MerkleProof:
        """Authentication path of a leaf *within its shard* (the lower
        ``shard_depth`` levels of :meth:`proof`)."""
        return self.path(0, index, self.shard_depth)

    def top_proof(self, shard_id: int) -> MerkleProof:
        """Authentication path of a shard root within the top tree (the
        upper ``top_depth`` levels of :meth:`proof`)."""
        return self.path(self.shard_depth, shard_id, self.top_depth)

    def peer_storage_bytes(self, shard_id: int) -> int:
        """Bytes of the nodes a shard-scoped peer needs: its own shard's
        subtree plus every level from the shard roots up."""
        split = self.shard_depth
        held = sum(
            1
            for level, index in self._nodes
            if level >= split or index >> (split - level) == shard_id
        )
        return held * (FIELD_BYTES + 8)
