"""Off-chain group management: the §III-C tree-sync protocol.

Each peer maintains the identity-commitment Merkle tree locally, rebuilding
the contract's ordered list into a tree and applying its events:

* ``MemberRegistered``  -> append the commitment at the announced index,
* ``MemberRemoved``     -> zero the announced leaf (the unified deletion
  event both the slash and withdraw paths emit, so one listener handles
  revocation regardless of cause).

A block's events are one transaction, applied at the chain's ``BLOCK_END``
marker by one :meth:`~repro.crypto.merkle.MerkleTree.apply` in each
manager; the window gains **one root per block**, as Waku's RLN-relay keeps
it (https://rfc.vac.dev/spec/17/) — a registrant learns its index only after
its block, so nobody holds a mid-block root.  Listeners change nothing but
what is built for them: one announcement per block.

A removal is treated as a *security* event: besides zeroing the leaf, the
manager collapses its accepted-root window to the block's root, so proofs
built on any tree that still contained the removed member stop validating
immediately instead of surviving until the window ages out — the §III-F
economic argument only closes if a slashed spammer is ejected everywhere,
at once.

"Publishing peers must always stay in sync with the latest state of the
group" (§III-C) — :meth:`GroupManager.assert_synced` cross-checks the local
root against a rebuild from the contract list, and the validator side keeps
a window of recent roots so proofs generated a block behind still verify.

The manager also implements the hybrid architecture of §IV-A: it produces
:class:`~repro.crypto.optimized_merkle.TreeUpdate` announcements (each
written leaf's pre-block path, read only while such a listener exists) that
storage-limited peers running :class:`OptimizedMerkleView` consume instead
of holding the tree.

The manager is a full replica: it holds the whole
:class:`~repro.crypto.merkle.MerkleTree`.  Shards are levels of that tree
(shard ``s`` is its node ``(shard_depth, s)``, see
:mod:`repro.treesync.forest`), so a block's writes are announced with the
roots of the shards they touched and the block's last event number as a
path-free :class:`~repro.treesync.messages.ShardUpdate` at no extra
hashing, and shard-scoped peers
(:class:`~repro.treesync.sync.ShardSyncManager`) can consume the O(1)
digest for foreign shards.

A deployment follows its contract once: its peers subscribe to one chain,
which hands every subscriber each event in the same order, so
:meth:`~repro.core.deployment.RLNDeployment.create` builds one manager and
gives every peer that object.  ``hasher=`` is the tree's two-to-one
compression; a deployment passes a :class:`~repro.crypto.merkle.MemoHasher`
(``None`` is plain Poseidon), which holds the digests each block's rehash
computed.  :meth:`GroupManager.merkle_proof` keeps one path per member index
for the current root, folded through that hasher, so each publisher's path
is built once per root; any registration, removal or slash moves the root
and drops them all.
"""

from __future__ import annotations

from typing import Callable

from repro.chain.blockchain import BLOCK_END, Blockchain, Event
from repro.chain.rln_contract import RLNMembershipContract
from repro.crypto.field import FieldElement, ZERO
from repro.crypto.merkle import MerkleProof, MerkleTree, NodeHasher, RootWindow
from repro.crypto.optimized_merkle import TreeUpdate
from repro.errors import NotRegistered, SyncError
from repro.treesync.forest import allocated_shard_roots, resolve_shard_depth
from repro.treesync.messages import ShardUpdate, TreeCheckpoint


class GroupManager:
    """The locally maintained view of the membership group (§III-C)."""

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
        self.hasher = hasher
        self.tree = MerkleTree(depth=tree_depth, hasher=hasher)
        #: The paths :meth:`merkle_proof` built, by index, and the root
        #: they were built under.
        self._witness_root: FieldElement | None = None
        self._witnesses: dict[int, MerkleProof] = {}
        #: Shard geometry used to *tag* announcements (0 on a depth-1 tree,
        #: which has no level to split at: every leaf is its own "shard").
        self.shard_depth = resolve_shard_depth(tree_depth, shard_depth)
        self._window = RootWindow(root_window, [self.tree.root])
        self._index_of_pk: dict[int, int] = {}
        #: This block's tree events, applied at its BLOCK_END marker.
        self._block: list[Event] = []
        self._update_listeners: list[Callable[[TreeUpdate], None]] = []
        self._shard_listeners: list[Callable[[ShardUpdate], None]] = []
        #: Contiguous membership-event sequence number (0 = genesis); the
        #: shard-sync protocol orders announcements by it.
        self.event_seq = 0
        self._bootstrap()
        chain.subscribe(self._on_event)

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
            leaves, depth=self.tree.depth, hasher=self.hasher
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
        """Queue this contract's tree events; apply them at ``BLOCK_END``.
        ``MemberRemoved`` is the one deletion event slash and withdraw emit."""
        if event.contract == self.contract.address:
            if event.name in ("MemberRegistered", "MemberRemoved"):
                self._block.append(event)
        elif event.contract == BLOCK_END and self._block:
            events, self._block = self._block, []
            self._apply(events)

    def _apply(self, events: list[Event]) -> None:
        """Apply a block's events as one tree write, or raise having moved nothing.

        Each event is checked against the tree as the earlier ones leave it
        before anything is written.  Then the tree, the index map and
        ``event_seq`` move, and the window admits the block's one root,
        collapsing to it if the block removed anyone (honest members with
        in-flight proofs against an evicted root refresh and republish).
        """
        frontier = self.tree.leaf_count
        writes: dict[int, FieldElement] = {}
        changes: list[tuple[int, FieldElement, FieldElement]] = []  # index, old, new
        for event in events:
            index = event.data["index"]
            if event.name == "MemberRemoved":
                old = writes[index] if index in writes else self.tree.leaf(index)
                new = ZERO
                if old == ZERO:
                    continue  # already deleted
            elif index < frontier:
                continue  # already applied (bootstrap overlapped with live events)
            elif index != frontier:
                raise SyncError(
                    f"registration event index {index} skips local frontier {frontier}"
                )
            else:
                old, new = ZERO, FieldElement(event.data["pk"])
                frontier += 1
            writes[index] = new
            changes.append((index, old, new))
        if not changes:
            return
        paths = (
            [self.tree.proof(index) for index, _old, _new in changes]
            if self._update_listeners
            else None
        )
        self.tree.apply(writes.items())
        for index, old, new in changes:
            if new is ZERO:
                self._index_of_pk.pop(old.value, None)
            else:
                self._index_of_pk[new.value] = index
        self.event_seq += len(changes)
        removed = any(new is ZERO for _index, _old, new in changes)
        self._window.push(self.tree.root, collapse=removed)
        self._notify(changes, paths)

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
        if root != self._witness_root:
            self._witness_root, self._witnesses = root, {}
        proof = self._witnesses.get(index)
        if proof is None:
            proof = self._witnesses[index] = self.tree.proof(index)
            proof.compute_root(self.hasher)
        return proof

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

    def on_shard_update(self, listener: Callable[[ShardUpdate], None]) -> None:
        """Subscribe to shard-tagged announcements (for ShardSyncManager)."""
        self._shard_listeners.append(listener)

    def _notify(
        self,
        changes: list[tuple[int, FieldElement, FieldElement]],
        paths: list[MerkleProof] | None,
    ) -> None:
        """Announce the block just applied, once on each channel.

        ``paths`` are the written slots' pre-block paths; both
        announcements carry the post-block root, so consumers can reject
        forged ones (:class:`~repro.errors.InconsistentTreeUpdate`).
        """
        root = self.tree.root
        if paths is not None:
            update = TreeUpdate(
                writes=tuple(zip(paths, (new for _index, _old, new in changes))),
                new_root=root,
            )
            for listener in list(self._update_listeners):
                listener(update)
        if self._shard_listeners:
            shards = sorted({self.shard_of(index) for index, _old, _new in changes})
            announcement = ShardUpdate(
                seq=self.event_seq,
                writes=tuple(changes),
                shard_roots=tuple((shard, self.shard_root(shard)) for shard in shards),
                new_global_root=root,
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
