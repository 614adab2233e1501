"""Storage-optimised Merkle view — reference [18] of the paper.

§IV notes that a full depth-20 tree costs each peer ~67 MB and cites the
vacp2p "storage efficient merkle tree update" proposal, which lets a peer
keep only O(log N) state: its own leaf, its own authentication path, and the
current root.  When other members are inserted or deleted, the peer updates
its path and root from the *update announcement* alone, without storing the
tree.

The announcement must carry each changed leaf's pre-change authentication
path.  In the paper's hybrid architecture (§IV-A "Lowering the storage
overhead per peer"), resourceful peers holding the full tree serve those
paths; :meth:`repro.core.membership.GroupManager.on_update` produces one
:class:`TreeUpdate` per block in this reproduction.

The update rule: the changed leaves' paths and the view's own path together
hold every node a block's rehash reads — each dirty node's other child is a
sibling on some changed leaf's path — so
:meth:`~repro.crypto.merkle.MerkleTree.from_paths` rebuilds just those
nodes, writes the new leaves and rehashes them level by level, giving the
new root and the view's new path.  One write is the classic case: the
changed leaf's ancestor one level below where the two paths merge *is* the
view's sibling there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.field import FIELD_BYTES, FieldElement
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import InconsistentTreeUpdate, MerkleError, SyncError


@dataclass(frozen=True)
class TreeUpdate:
    """Announcement of one block's leaf changes.

    ``writes`` pairs each changed leaf's authentication path *before the
    block* (its ``index`` is the slot, its ``leaf`` the pre-block value)
    with the leaf written there, in block order.  ``new_root`` is the
    announcer's post-block root; consumers recompute it locally and reject
    announcements whose claim disagrees.
    """

    writes: tuple[tuple[MerkleProof, FieldElement], ...]
    new_root: FieldElement

    def byte_size(self) -> int:
        paths = sum(path.byte_size() + FIELD_BYTES for path, _leaf in self.writes)
        return paths + FIELD_BYTES


class OptimizedMerkleView:
    """O(log N)-storage replacement for a peer's local Merkle tree.

    Tracks exactly one member's path.  Raises :class:`SyncError` when an
    update announcement is inconsistent with the tracked root, which is the
    condition under which the paper warns a stale peer "can risk exposing
    the index of their public key".
    """

    def __init__(self, own_proof: MerkleProof, root: FieldElement) -> None:
        if not own_proof.verify(root):
            raise MerkleError("initial proof does not match root")
        self.depth = own_proof.depth
        self.index = own_proof.index
        self.leaf = own_proof.leaf
        self._siblings = list(own_proof.siblings)
        self.root = root

    # -- queries -----------------------------------------------------------

    def proof(self) -> MerkleProof:
        """Current authentication path for the tracked member."""
        return MerkleProof(
            leaf=self.leaf,
            index=self.index,
            siblings=tuple(self._siblings),
            path_bits=_bits(self.index, self.depth),
        )

    def storage_bytes(self) -> int:
        """Persistent state: leaf + root + one sibling per level + index."""
        return FIELD_BYTES * (2 + self.depth) + 8

    # -- updates -----------------------------------------------------------

    def apply_update(self, update: TreeUpdate) -> None:
        """Fold one block's announced leaf changes into the local path and root.

        Every path must be its slot's path and fold to the tracked root, and
        the rehash must reach the announced root; otherwise nothing moves.
        """
        paths = [path for path, _leaf in update.writes]
        for path in paths:
            index, depth = path.index, self.depth
            if path.depth != depth or index >> depth or path.path_bits != _bits(index, depth):
                raise MerkleError("update path is not a slot's path at this depth")
            if path.compute_root() != self.root:
                raise SyncError(
                    "update announcement is inconsistent with the tracked root; "
                    "the local view is stale"
                )
        scratch = MerkleTree.from_paths(
            (self.proof(), *paths),
            [(path.index, leaf) for path, leaf in update.writes],
        )
        if scratch.root != update.new_root:
            raise InconsistentTreeUpdate(
                "announced new root does not match the root recomputed from "
                "the update's own paths"
            )
        moved = scratch.proof(self.index)
        self.leaf, self._siblings = moved.leaf, list(moved.siblings)
        self.root = update.new_root


def _bits(index: int, depth: int) -> tuple[int, ...]:
    return tuple((index >> level) & 1 for level in range(depth))
