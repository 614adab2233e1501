"""Off-chain group management: the §III-C tree-sync protocol.

Each peer maintains the identity-commitment Merkle tree locally, rebuilding
the contract's ordered list into a tree and applying its events:

* ``MemberRegistered``  -> append the commitment at the announced index,
* ``MemberRemoved``     -> zero the announced leaf (the unified deletion
  event both the slash and withdraw paths emit, so one listener handles
  revocation regardless of cause).

A removal is treated as a *security* event: besides zeroing the leaf, the
manager collapses its accepted-root window to the post-removal root, so
proofs built on any tree that still contained the removed member stop
validating immediately instead of surviving until the window ages out —
the §III-F economic argument only closes if a slashed spammer is ejected
everywhere, at once.

"Publishing peers must always stay in sync with the latest state of the
group" (§III-C) — :meth:`GroupManager.assert_synced` cross-checks the local
root against a rebuild from the contract list, and the validator side keeps
a window of recent roots so proofs generated one event behind still verify.

The manager also implements the hybrid architecture of §IV-A: it produces
:class:`~repro.crypto.optimized_merkle.TreeUpdate` announcements that
storage-limited peers running :class:`OptimizedMerkleView` consume instead
of holding the tree.

The manager is a full replica: it holds the whole
:class:`~repro.crypto.merkle.MerkleTree`.  Shards are levels of that tree
(shard ``s`` is its node ``(shard_depth, s)``, see
:mod:`repro.treesync.forest`), so every announcement is tagged with its
shard id, shard root and sequence number as a
:class:`~repro.treesync.messages.ShardUpdate` at no extra hashing, and
shard-scoped peers (:class:`~repro.treesync.sync.ShardSyncManager`) can
consume the O(1) digest for foreign shards.

Two things keep N in-process replicas from repeating each other's (and
their own) hashing without sharing any state that could mask a divergence:
``hasher=`` is the tree's two-to-one compression, which a deployment fills
with one :class:`~repro.crypto.merkle.MemoHasher` for all its managers (the
manager neither builds nor owns it; ``None`` is plain Poseidon); and
:meth:`GroupManager.merkle_proof` hands back the path object it built last
(and folded through that hasher) for as long as ``(index, root)`` is what it
was built against — any registration, removal or slash moves the root and so
drops it.
"""

from __future__ import annotations

from typing import Callable

from repro.chain.blockchain import Blockchain, Event
from repro.chain.rln_contract import RLNMembershipContract
from repro.crypto.field import FieldElement, ZERO
from repro.crypto.merkle import MerkleProof, MerkleTree, NodeHasher, RootWindow
from repro.crypto.optimized_merkle import TreeUpdate
from repro.errors import NotRegistered, SyncError
from repro.treesync.forest import allocated_shard_roots, resolve_shard_depth
from repro.treesync.messages import ShardRemoval, ShardUpdate, TreeCheckpoint


class GroupManager:
    """One peer's locally maintained view of the membership group."""

    def __init__(
        self,
        chain: Blockchain,
        contract: RLNMembershipContract,
        *,
        tree_depth: int = 20,
        root_window: int = 5,
        shard_depth: int | None = None,
        hasher: NodeHasher | None = None,
    ) -> None:
        self.chain = chain
        self.contract = contract
        self._hasher = hasher
        self.tree = MerkleTree(depth=tree_depth, hasher=hasher)
        #: The last path :meth:`merkle_proof` built and the root it was
        #: built under.
        self._witness: tuple[FieldElement, MerkleProof] | None = None
        #: Shard geometry used to *tag* announcements (0 on a depth-1 tree,
        #: which has no level to split at: every leaf is its own "shard").
        self.shard_depth = resolve_shard_depth(tree_depth, shard_depth)
        self._window = RootWindow(root_window, [self.tree.root])
        self._index_of_pk: dict[int, int] = {}
        self._update_listeners: list[Callable[[TreeUpdate], None]] = []
        self._shard_listeners: list[
            Callable[[ShardUpdate | ShardRemoval], None]
        ] = []
        #: Contiguous membership-event sequence number (0 = genesis); the
        #: shard-sync protocol orders announcements by it.
        self.event_seq = 0
        self._bootstrap()
        self._unsubscribe = chain.subscribe(self._on_event)

    def close(self) -> None:
        self._unsubscribe()

    # -- bootstrap & events -----------------------------------------------------

    def _bootstrap(self) -> None:
        """Sync a freshly joined peer from the contract's current list.

        Deleted members appear as zero slots; they must still occupy their
        index so every live member's tree position matches the contract.
        """
        leaves = [FieldElement(pk) for pk in self.contract.commitment_list()]
        if not leaves:
            return
        self.tree = MerkleTree.from_leaves(
            leaves, depth=self.tree.depth, hasher=self._hasher
        )
        for index, leaf in enumerate(leaves):
            if leaf != ZERO:
                self._index_of_pk[leaf.value] = index
        # Every slot was one registration event, and every zeroed slot was
        # additionally one deletion event (the contract only ever appends,
        # so a zero slot means registered-then-removed) — a bootstrapped
        # manager must agree on seq with peers that watched from genesis.
        self.event_seq = len(leaves) + sum(1 for leaf in leaves if leaf == ZERO)
        self._window.push(self.tree.root, collapse=True)

    def _on_event(self, event: Event) -> None:
        if event.contract != self.contract.address:
            return
        if event.name == "MemberRegistered":
            self._insert_at(event.data["index"], FieldElement(event.data["pk"]))
        elif event.name == "MemberRemoved":
            # The unified deletion event: slash and withdraw both land
            # here, so revocation needs exactly one handler.  (The
            # cause-specific MemberSlashed/MemberWithdrawn events carry
            # economics for other observers and are ignored for sync —
            # handling them too would be a harmless no-op second delete.)
            self._delete_at(event.data["index"])

    def _insert_at(self, index: int, pk: FieldElement) -> None:
        if index < self.tree.leaf_count:
            return  # already applied (bootstrap overlapped with live events)
        if index != self.tree.leaf_count:
            raise SyncError(
                f"registration event index {index} skips local frontier "
                f"{self.tree.leaf_count}"
            )
        path = self._announced_path(index)
        applied_index = self.tree.append(pk)
        assert applied_index == index
        self._index_of_pk[pk.value] = index
        self._window.push(self.tree.root)
        self._notify(index, pk, path)

    def _delete_at(self, index: int) -> None:
        leaf = self.tree.leaf(index)
        if leaf == ZERO:
            return  # already deleted
        path = self._announced_path(index)
        self.tree.delete(index)
        self._index_of_pk.pop(leaf.value, None)
        # A removal collapses the window: every root that still contained
        # this member stops being acceptable *now*, so the removed
        # member's stale witnesses are rejected against the current root
        # instead of riding the window until it ages out.  Honest members
        # with in-flight proofs against an evicted root simply refresh
        # their witness and republish — the price of prompt revocation.
        self._window.push(self.tree.root, collapse=True)
        self._notify(index, ZERO, path, removed_leaf=leaf)

    # -- queries --------------------------------------------------------------------

    @property
    def root(self) -> FieldElement:
        return self.tree.root

    def recent_roots(self) -> list[FieldElement]:
        """Most recent roots, newest last (the validator's window)."""
        return self._window.roots()

    def is_acceptable_root(self, root: FieldElement) -> bool:
        return root.value in self._window.values

    def member_count(self) -> int:
        return self.tree.member_count

    def index_of(self, pk: FieldElement) -> int:
        try:
            return self._index_of_pk[pk.value]
        except KeyError:
            raise NotRegistered(f"commitment {pk.value} not in local tree") from None

    def merkle_proof(self, pk: FieldElement) -> MerkleProof:
        """Current authentication path for a member's commitment (§II-B auth).

        A new path is folded here, through the manager's own ``hasher`` —
        in a deployment the memo the tree update just filled with exactly
        these ``(left, right)`` pairs — and is the same object while
        ``(index, root)`` is unchanged, so the prover's
        :meth:`MerkleProof.compute_root` finds the fold done.
        """
        index, root = self.index_of(pk), self.tree.root
        witness = self._witness
        if witness is None or witness[0] != root or witness[1].index != index:
            proof = self.tree.proof(index)
            proof.compute_root(self._hasher)
            witness = self._witness = (root, proof)
        return witness[1]

    # -- shard geometry ---------------------------------------------------------------

    def shard_of(self, index: int) -> int:
        return index >> self.shard_depth

    def shard_root(self, shard_id: int) -> FieldElement:
        """Root of one shard: the tree's own node at level ``shard_depth``."""
        return self.tree.subtree_root(self.shard_depth, shard_id)

    def checkpoint(self) -> TreeCheckpoint:
        """Snapshot of every allocated shard's root (the store-archived state)."""
        return TreeCheckpoint(
            seq=self.event_seq,
            depth=self.tree.depth,
            shard_depth=self.shard_depth,
            leaf_count=self.tree.leaf_count,
            shard_roots=tuple(
                allocated_shard_roots(self.tree, self.shard_depth).items()
            ),
            global_root=self.tree.root,
        )

    # -- hybrid architecture: serving storage-limited peers (§IV-A) -----------------

    def on_update(self, listener: Callable[[TreeUpdate], None]) -> None:
        """Subscribe to TreeUpdate announcements (for OptimizedMerkleView)."""
        self._update_listeners.append(listener)

    def on_shard_update(
        self, listener: Callable[[ShardUpdate | ShardRemoval], None]
    ) -> None:
        """Subscribe to shard-tagged announcements (for ShardSyncManager).

        Registrations arrive as :class:`ShardUpdate`; deletions as the
        compact :class:`ShardRemoval` (no path — the zero leaf needs
        none, and the removal semantics must survive the digest feed).
        """
        self._shard_listeners.append(listener)

    def _announced_path(self, index: int) -> MerkleProof | None:
        """The pre-change path an announcement carries; none without a listener."""
        listening = self._update_listeners or self._shard_listeners
        return self.tree.proof(index) if listening else None

    def _notify(
        self,
        index: int,
        new_leaf: FieldElement,
        path: MerkleProof | None,
        *,
        removed_leaf: FieldElement | None = None,
    ) -> None:
        """Package one applied event for both announcement channels.

        ``path`` is the pre-change authentication path (captured before the
        tree mutated); the update carries the post-change root so consumers
        can reject forged announcements
        (:class:`~repro.errors.InconsistentTreeUpdate`).  ``removed_leaf``
        marks the event as a deletion: the legacy
        :class:`~repro.crypto.optimized_merkle.TreeUpdate` channel is
        unchanged (those consumers need the path either way), but the
        shard channel carries a :class:`ShardRemoval` so shard-scoped and
        light consumers learn that a leaf *died*, not merely changed.
        Without a listener (``path`` is ``None``) only ``event_seq`` moves.
        """
        self.event_seq += 1
        if path is None:
            return
        update = TreeUpdate(
            index=index, new_leaf=new_leaf, path=path, new_root=self.tree.root
        )
        for listener in list(self._update_listeners):
            listener(update)
        if self._shard_listeners:
            shard_id = self.shard_of(index)
            announcement: ShardUpdate | ShardRemoval
            if removed_leaf is not None:
                announcement = ShardRemoval(
                    seq=self.event_seq,
                    shard_id=shard_id,
                    index=index,
                    removed_leaf=removed_leaf,
                    new_shard_root=self.shard_root(shard_id),
                    new_global_root=self.tree.root,
                )
            else:
                announcement = ShardUpdate(
                    seq=self.event_seq,
                    shard_id=shard_id,
                    update=update,
                    new_shard_root=self.shard_root(shard_id),
                    new_global_root=self.tree.root,
                )
            for listener in list(self._shard_listeners):
                listener(announcement)

    # -- sync verification (§III-C) ----------------------------------------------------

    def assert_synced(self) -> None:
        """Raise :class:`SyncError` if the local tree diverged from the contract.

        The rebuild is the bottom-up bulk build, an independent route to
        the root the event-by-event replay arrived at.
        """
        rebuilt = MerkleTree.from_leaves(
            [FieldElement(pk) for pk in self.contract.commitment_list()],
            depth=self.tree.depth,
        )
        if rebuilt.root != self.tree.root:
            raise SyncError(
                "local tree root diverged from the contract's commitment list; "
                "proofs made against it risk exposing the member's leaf index"
            )
