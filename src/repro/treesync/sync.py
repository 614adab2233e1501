"""Shard-scoped tree sync: materialize your shard, commit to the rest.

§III-C requires publishing peers to stay in sync with the group; at a
million members the seed's answer — replay every event onto a full local
tree — costs every peer O(group) storage and ``depth`` compressions per
event.  :class:`ShardSyncManager` is the sharded answer:

* the peer fully materialises only its *home shard* (a depth-``shard_depth``
  subtree) plus the small top tree over shard roots;
* a home-shard event applies the leaf write locally (``shard_depth``
  compressions) and cross-checks the announced shard root;
* a **foreign**-shard event is consumed as a
  :class:`~repro.treesync.messages.ShardRootDigest` — recording the new
  shard root is O(1), *zero* compressions; the top tree is rehashed once
  per :meth:`commit` (at validation time), not once per event.  This
  amortisation is the ≥10× per-event saving experiment E12 measures;
* events carry a contiguous sequence number.  A gap raises
  :class:`~repro.errors.TreeSyncGap`, and :meth:`sync_from_store` recovers
  by fetching the latest :class:`TreeCheckpoint` plus per-shard deltas
  from a Waku store node (13/WAKU2-STORE) — the checkpoint+delta fallback
  for missed epochs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.codec import size_of
from repro.crypto.field import FieldElement, ZERO
from repro.crypto.engine import default_engine
from repro.crypto.merkle import MerkleProof, MerkleTree, NodeHasher, zero_hashes
from repro.errors import (
    InconsistentTreeUpdate,
    MerkleError,
    ProtocolError,
    SnapshotAheadOfArchive,
    SyncError,
    TreeSyncGap,
)
from repro.net.request import RequestFailure
from repro.treesync.forest import DEFAULT_SHARD_DEPTH, resolve_shard_depth
from repro.treesync.messages import (
    CHECKPOINT_TOPIC,
    DIGEST_TOPIC,
    ShardRemoval,
    ShardRootDigest,
    ShardUpdate,
    TreeCheckpoint,
    shard_topic,
)
from repro.treesync.witness import splice
from repro.telemetry import resolve as resolve_telemetry
from repro.waku.message import WakuMessage

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.waku.store import StoreClient

#: Fallback snapshot source for :meth:`ShardSyncManager.sync_from_store`:
#: called with (shard_id, deliver) and expected to eventually invoke
#: ``deliver`` with a shard-leaf snapshot (anything shaped like
#: :class:`repro.witness.messages.SnapshotResponse`), or ``None`` once
#: every provider is exhausted.  ``deliver`` returning ``False`` means
#: the snapshot failed authentication — the fetcher should fail over to
#: its next provider.  A callable type rather than the concrete client
#: keeps ``treesync`` free of a dependency on the witness subsystem
#: built on it.
SnapshotFetch = Callable[[int, Callable[[object], object]], None]


@dataclass
class TreeSyncStats:
    """Per-peer sync accounting (experiment E12's measurement surface)."""

    home_events: int = 0
    foreign_events: int = 0
    commits: int = 0
    checkpoints_restored: int = 0
    snapshots_restored: int = 0
    bytes_consumed: int = 0
    #: Member deletions folded into this view (home replay or foreign
    #: digest recording) — the E15 revocation-propagation surface.
    removals_applied: int = 0
    #: Writes undone after a failed cross-check: a home-shard replay, a
    #: commit fold, or a whole snapshot adoption.
    rollbacks: int = 0


class ShardSyncManager:
    """One peer's shard-scoped view of the identity forest.

    ``home_shard=None`` is the **light view**: the peer materialises *no*
    shard at all, consumes every event as an O(1) digest, and keeps only
    the top tree — enough state to track the accepted-root window (and so
    to verify fetched witnesses against it) without ever holding member
    leaves.  A light view cannot produce witnesses locally; it fetches
    them from a :class:`~repro.witness.service.WitnessService`.
    """

    def __init__(
        self,
        home_shard: int | None,
        *,
        depth: int = 20,
        shard_depth: int = DEFAULT_SHARD_DEPTH,
        root_window: int = 5,
        hasher: NodeHasher | None = None,
        telemetry=None,
        peer_id: str = "",
    ) -> None:
        self.depth = depth
        self.shard_depth = shard_depth = resolve_shard_depth(depth, shard_depth)
        self.top_depth = depth - shard_depth
        if home_shard is not None and not 0 <= home_shard < (1 << self.top_depth):
            raise MerkleError(f"home shard {home_shard} out of range")
        self.home_shard = home_shard
        self.shard_capacity = 1 << shard_depth
        self._hash: NodeHasher = hasher or default_engine().hash2
        zeros = zero_hashes(depth, hasher)
        self.empty_shard_root = zeros[shard_depth]
        #: Fully materialised home shard (``None`` for the light view).
        self.shard: MerkleTree | None = (
            None if home_shard is None else MerkleTree(depth=shard_depth, hasher=hasher)
        )
        #: Top tree over shard roots (the only cross-shard state held):
        #: the identity tree's upper levels, so its empty leaf is the
        #: empty-shard root.
        self.top = MerkleTree(self.top_depth, hasher=hasher, zeros=zeros[shard_depth:])
        #: Shard roots recorded since the last commit — O(1) per event.
        self._pending: dict[int, FieldElement] = {}
        #: Last applied global event sequence number (0 = genesis).
        self.seq = 0
        #: Home-shard events at or below this seq are subsumed by an
        #: authenticated snapshot: their full updates are not needed (the
        #: store aged them out), their digests suffice.
        self._snapshot_floor = 0
        #: Compressions spent on shards this view no longer holds (a
        #: snapshot restore replaces the shard object; the counter must
        #: stay monotone for E12/E14 accounting).
        self._retired_hash_ops = 0
        self._announced_root: FieldElement | None = None
        self._recent_roots: deque[FieldElement] = deque(maxlen=root_window)
        self._recent_roots.append(self.top.root)
        self._root_values: set[int] = {self.top.root.value}
        #: A removal was folded since the last successful commit: the
        #: accepted-root window must collapse to the post-removal root
        #: (stale witnesses crossing the dead leaf stop validating now).
        self._collapse_window = False
        self.stats = TreeSyncStats()
        self.telemetry = resolve_telemetry(telemetry)
        registry = self.telemetry.registry
        stats, bind = self.stats, partial(registry.bind, peer=peer_id)
        bind("treesync_events_total", lambda: stats.home_events, kind="home")
        bind("treesync_events_total", lambda: stats.foreign_events, kind="foreign")
        bind("treesync_commits_total", lambda: stats.commits)
        bind("treesync_rollbacks_total", lambda: stats.rollbacks)
        bind("treesync_checkpoints_restored_total", lambda: stats.checkpoints_restored)
        bind("treesync_snapshots_restored_total", lambda: stats.snapshots_restored)
        bind("treesync_removals_total", lambda: stats.removals_applied)
        bind("treesync_bytes_consumed_total", lambda: stats.bytes_consumed)
        #: Wall-clock (not simulated) seconds: checkpoint replay is real
        #: local hash work, the one place wall time is the honest measure.
        self._m_replay_seconds = registry.histogram(
            "treesync_checkpoint_replay_wall_seconds", peer=peer_id
        )

    # -- event consumption -----------------------------------------------------

    def apply(self, item: "ShardUpdate | ShardRemoval | ShardRootDigest") -> None:
        """Fold one announced membership event into the local view.

        Events must arrive in contiguous ``seq`` order; replays are ignored
        and a gap raises :class:`TreeSyncGap` (fall back to
        :meth:`sync_from_store`).  Home-shard registrations need the full
        :class:`ShardUpdate`; home-shard deletions arrive as the compact
        :class:`ShardRemoval` (replayed as a zero write, cross-checked
        the same way); foreign events of either kind are O(1) root
        recordings — but a removal additionally schedules a root-window
        collapse for the next :meth:`commit`.
        """
        if item.seq <= self.seq:
            return  # already applied (store replay overlapped with live feed)
        if item.seq != self.seq + 1:
            raise TreeSyncGap(
                f"event seq {item.seq} skips local frontier {self.seq}; "
                "checkpoint+delta sync required"
            )
        if not 0 <= item.shard_id < (1 << self.top_depth):
            # Rejected before anything is recorded: a forged id must not
            # plant an entry commit() cannot fold.
            raise SyncError(f"shard id {item.shard_id} out of range")
        if (
            self.home_shard is not None
            and item.shard_id == self.home_shard
            and item.seq > self._snapshot_floor
        ):
            if isinstance(item, ShardRemoval):
                assert self.shard is not None
                self._remove_home(item)
            elif isinstance(item, ShardUpdate):
                assert self.shard is not None
                self._write_home(item)
            else:
                raise SyncError(
                    "home-shard events need the full ShardUpdate or "
                    "ShardRemoval, not a digest"
                )
            self._pending[self.home_shard] = self.shard.root
        else:
            digest = item.digest() if isinstance(item, ShardUpdate) else item
            # A genuine membership event always changes its shard's root
            # (one leaf changed), so a digest re-announcing the root we
            # already hold is a forged no-op trying to squat this seq.
            current = self._pending.get(digest.shard_id)
            if current is None:
                current = self.top.leaf(digest.shard_id)
            if digest.new_shard_root == current:
                raise InconsistentTreeUpdate(
                    "digest announces no shard-root change; every membership "
                    "event changes its shard's root"
                )
            self._pending[digest.shard_id] = digest.new_shard_root
            self.stats.foreign_events += 1
            if isinstance(item, ShardRemoval):
                self.stats.removals_applied += 1
        if isinstance(item, ShardRemoval):
            self._collapse_window = True
        self.stats.bytes_consumed += item.byte_size()
        self.seq = item.seq
        self._announced_root = item.new_global_root

    def _write_home(self, item: ShardUpdate) -> None:
        """Replay one home-shard leaf write and cross-check the shard root."""
        assert self.home_shard is not None and self.shard is not None
        if item.update.index >> self.shard_depth != self.home_shard:
            raise SyncError(
                f"update index {item.update.index} is not in home shard "
                f"{self.home_shard}"
            )
        local = item.update.index & (self.shard_capacity - 1)
        old_leaf = self.shard.leaf(local)
        if old_leaf == item.update.new_leaf:
            # A genuine event always changes the leaf (register: zero ->
            # pk, removal: pk -> zero); a no-op write is a forged attempt
            # to squat the sequence number without tripping a root check.
            raise InconsistentTreeUpdate(
                "update does not change the leaf; every membership event "
                "changes its slot"
            )
        self._replay_home(local, old_leaf, item.update.new_leaf, item.new_shard_root)

    def _remove_home(self, item: ShardRemoval) -> None:
        """Replay one home-shard deletion (a zero write, no path needed).

        The removal must name both an occupied slot and the commitment
        that occupies it — a forged removal cannot blank a slot whose
        content the forger does not know — and the post-removal shard
        root is cross-checked exactly like a registration's.
        """
        assert self.home_shard is not None and self.shard is not None
        if item.index >> self.shard_depth != self.home_shard:
            raise SyncError(
                f"removal index {item.index} is not in home shard "
                f"{self.home_shard}"
            )
        local = item.index & (self.shard_capacity - 1)
        old_leaf = self.shard.leaf(local)
        if old_leaf == ZERO:
            raise InconsistentTreeUpdate(
                "removal targets an empty slot; every deletion zeroes an "
                "occupied leaf"
            )
        if old_leaf != item.removed_leaf:
            raise InconsistentTreeUpdate(
                "removal names a different commitment than the slot holds"
            )
        self._replay_home(local, old_leaf, ZERO, item.new_shard_root)
        self.stats.removals_applied += 1
        # Local to the replay, not just to apply(): a removal replayed
        # from the store archive must collapse the window too.
        self._collapse_window = True

    def _replay_home(
        self,
        local: int,
        old_leaf: FieldElement,
        new_leaf: FieldElement,
        announced_root: FieldElement,
    ) -> None:
        """Write one home-shard leaf; keep it only if the shard then folds
        to the announced shard root."""
        assert self.shard is not None
        self.shard.write_leaf(local, new_leaf)
        if self.shard.root != announced_root:
            # Roll the write back before rejecting: a forged announcement
            # must not poison the shard (the genuine event for this seq
            # still has to apply cleanly).
            self.shard.write_leaf(local, old_leaf)
            self.stats.rollbacks += 1
            raise InconsistentTreeUpdate(
                "announced shard root does not match the locally replayed shard"
            )
        self.stats.home_events += 1

    # -- committing ------------------------------------------------------------

    def commit(self) -> FieldElement:
        """Fold pending shard roots into the top tree; return the new root.

        Called at validation/witness time, not per event — k events across
        d distinct shards cost d·``top_depth`` compressions, amortised
        ~0 when events cluster (the E12 claim).  Cross-checks the result
        against the latest announced global root; on a mismatch (a forged
        foreign digest slipped into the window) the fold is rolled back so
        the view stays at its last good commit, and the peer should
        recover via :meth:`sync_from_store` (a later event or checkpoint
        for the poisoned shard supersedes the forged root).

        If the committed span contained a :class:`ShardRemoval`, the
        accepted-root window collapses to the post-removal root: proofs
        over any tree that still held the removed member become
        unacceptable immediately (the collapse is deferred to here — the
        same place new roots enter the window — so a removal that fails
        its cross-check never evicts good roots).
        """
        previous = {
            shard_id: self.top.leaf(shard_id) for shard_id in self._pending
        }
        for shard_id in sorted(self._pending):
            self.top.write_leaf(shard_id, self._pending[shard_id])
        root = self.top.root
        if self._announced_root is not None and root != self._announced_root:
            for shard_id, value in previous.items():
                self.top.write_leaf(shard_id, value)
            # _pending is kept: a genuine later recording can supersede it.
            # _collapse_window is kept too: the removal still awaits its
            # successful commit.
            self.stats.rollbacks += 1
            raise InconsistentTreeUpdate(
                "committed top-tree root does not match the announced global root"
            )
        self._pending.clear()
        if self._collapse_window:
            self._recent_roots.clear()
            self._collapse_window = False
        if not self._recent_roots or self._recent_roots[-1] != root:
            self._recent_roots.append(root)
            self._root_values = {value.value for value in self._recent_roots}
        self.stats.commits += 1
        return root

    @property
    def root(self) -> FieldElement:
        """Current global root (commits pending shard roots first)."""
        if self._pending:
            return self.commit()
        return self.top.root

    def recent_roots(self) -> list[FieldElement]:
        """Most recent committed roots, newest last (the validator's window)."""
        return list(self._recent_roots)

    def is_acceptable_root(self, root: FieldElement) -> bool:
        """Validator root acceptance (the §III-F item-2 check).

        Never raises into the relay callback: if the pending fold fails
        its announced-root cross-check, no new root enters the window and
        the bundle is simply not acceptable until the view resyncs.
        """
        if self._pending:
            try:
                self.commit()
            except InconsistentTreeUpdate:
                return False
        return root.value in self._root_values

    # -- witnesses -------------------------------------------------------------

    def witness(self, index: int) -> MerkleProof:
        """Full-depth spliced auth path for a *home-shard* member."""
        if self.home_shard is None or self.shard is None:
            raise MerkleError(
                "light view holds no shard; fetch witnesses from a "
                "witness service instead"
            )
        if index >> self.shard_depth != self.home_shard:
            raise MerkleError(
                f"index {index} is outside home shard {self.home_shard}; "
                "only the materialised shard can produce witnesses"
            )
        if self._pending:
            self.commit()
        local = index & (self.shard_capacity - 1)
        return splice(
            self.shard.proof(local),
            self.top.proof(self.home_shard),
            hasher=self._hash,
        )

    # -- checkpoint + delta fallback (§III-C over 13/WAKU2-STORE) ---------------

    def restore(self, checkpoint: TreeCheckpoint) -> None:
        """Adopt foreign-shard state from an archived checkpoint.

        The home shard is *not* overwritten — it must already be replayed
        up to ``checkpoint.seq`` (from the home shard topic), and its root
        is cross-checked against the checkpoint's entry.
        """
        if checkpoint.depth != self.depth or checkpoint.shard_depth != self.shard_depth:
            raise SyncError("checkpoint geometry does not match this view")
        if checkpoint.seq < self.seq:
            raise SyncError(
                f"checkpoint seq {checkpoint.seq} is older than local seq {self.seq}"
            )
        roots = dict(checkpoint.shard_roots)
        if self.home_shard is not None:
            assert self.shard is not None
            expected_home = roots.get(self.home_shard, self.empty_shard_root)
            if self.shard.root != expected_home:
                raise InconsistentTreeUpdate(
                    "home shard replay does not match the checkpoint's shard root"
                )
        self._install_checkpoint(checkpoint)
        self.stats.checkpoints_restored += 1

    def _install_checkpoint(self, checkpoint: TreeCheckpoint) -> None:
        """Record the checkpoint's shard roots as pending and move the
        frontier to the checkpoint.  The caller has already checked (or
        rebuilt) the home shard against the checkpoint's entry for it."""
        roots = dict(checkpoint.shard_roots)
        if self.home_shard is not None:
            roots.setdefault(self.home_shard, self.empty_shard_root)
        self._pending.update(roots)
        if checkpoint.seq > self.seq:
            # The checkpoint covers events this view never saw one by
            # one, so it cannot rule out removals inside the gap — and a
            # removal inside the gap means every root currently in the
            # window may still contain the removed member.  Collapse
            # conservatively: a recovering peer's pre-outage window is
            # exactly the surface a slashed member's stale witness would
            # exploit.
            self._collapse_window = True
        self.seq = checkpoint.seq
        self._announced_root = checkpoint.global_root

    def sync_from_store(
        self,
        client: "StoreClient",
        store_peer: str,
        *,
        page_size: int = 64,
        snapshot_fetch: "SnapshotFetch | None" = None,
        on_done: Callable[[FieldElement], None] | None = None,
        _snapshot_retries: int = 2,
    ) -> None:
        """Recover missed epochs from a store node: checkpoint, then deltas.

        Three queries over the store protocol: the newest checkpoint
        (descending, single message), the home shard's update history, and
        the global digest feed.  Home events up to the checkpoint are
        replayed into the shard, the checkpoint supplies foreign roots, and
        everything after it is applied in sequence order.  The delta
        queries page newest-first and stop at the first event this view
        already holds (home) or the checkpoint covers (digests), so a
        peer that missed a handful of events fetches a handful of
        messages, not the archive.

        When the home topic's history has aged out of the store's
        retention window, checkpoint+delta replay cannot rebuild the home
        shard (the root cross-checks fail).  ``snapshot_fetch`` — e.g.
        :meth:`repro.witness.client.WitnessClient.fetch_snapshot` — is the
        fallback: an authenticated shard-leaf snapshot is fetched from a
        resourceful peer and adopted only if its recomputed shard root
        matches the root this view's accepted checkpoint+digest stream
        commits to (never trust the server).  Without a fallback the
        original :class:`~repro.errors.InconsistentTreeUpdate` propagates,
        exactly as before.

        A light view (``home_shard=None``) skips the home topic entirely.

        A store query that goes unanswered (:mod:`repro.waku.store`'s
        failure contract) raises :class:`~repro.errors.SyncError` out of
        the simulator step that noticed, like every other failure here.
        """
        state: dict[str, object] = {}
        initial_seq = self.seq

        def store_failed(failure: RequestFailure) -> None:
            raise SyncError(
                f"store node {store_peer!r} did not answer: {failure.reason}"
            )

        query = partial(client.query, store_peer, on_error=store_failed)

        def seq_floor_reached(floor: int):
            """Stop paginating once a page reaches an already-covered seq."""

            def check(messages: tuple[WakuMessage, ...]) -> bool:
                for message in messages:
                    payload = message.payload
                    try:
                        seq = int.from_bytes(payload[:8], "big")
                    except (TypeError, IndexError):
                        continue
                    if seq <= floor:
                        return True
                return False

            return check

        def decode_each(messages: list[WakuMessage], *types: type) -> list:
            """Every payload one of ``types`` decodes (strict decoders: at
            most one does); undecodable payloads are skipped."""
            decoded = []
            for message in messages:
                for cls in types:
                    try:
                        decoded.append(cls.from_bytes(message.payload))
                    except ProtocolError:
                        continue
                    break
            return decoded

        def have_checkpoint(messages: list[WakuMessage]) -> None:
            state["checkpoint"] = max(
                decode_each(messages, TreeCheckpoint),
                key=lambda candidate: candidate.seq,
                default=None,
            )
            if self.home_shard is None:
                # Light view: no shard to replay, straight to the digests.
                have_home([])
                return
            query(
                content_topics=(shard_topic(self.home_shard),),
                page_size=page_size,
                descending=True,
                stop_when=seq_floor_reached(self.seq),
                on_complete=have_home,
            )

        def have_home(messages: list[WakuMessage]) -> None:
            # The shard topic carries registrations and deletions.
            updates = decode_each(messages, ShardUpdate, ShardRemoval)
            state["home"] = sorted(updates, key=lambda u: u.seq)
            checkpoint = state["checkpoint"]
            floor = max(
                self.seq,
                checkpoint.seq if isinstance(checkpoint, TreeCheckpoint) else 0,
            )
            query(
                content_topics=(DIGEST_TOPIC,),
                page_size=page_size,
                descending=True,
                stop_when=seq_floor_reached(floor),
                on_complete=have_digests,
            )

        def have_digests(messages: list[WakuMessage]) -> None:
            # Removals travel the digest feed as themselves (their
            # window-collapse semantics must survive projection).
            digests = decode_each(messages, ShardRootDigest, ShardRemoval)
            checkpoint = state["checkpoint"]
            home_updates = state["home"]
            ordered = sorted(digests, key=lambda d: d.seq)
            try:
                root = self._replay_archive(
                    checkpoint,  # type: ignore[arg-type]
                    home_updates,  # type: ignore[arg-type]
                    ordered,
                )
            except SyncError:
                if (
                    snapshot_fetch is None
                    or self.home_shard is None
                    or not isinstance(checkpoint, TreeCheckpoint)
                ):
                    raise
                # Home-topic history aged out of store retention: fetch an
                # authenticated shard snapshot instead of the lost replay.
                # Returning False (snapshot failed authentication) tells
                # the fetcher to fail over to its next provider.  The
                # trigger is deliberately broad — aged-out history and a
                # forged digest both surface as InconsistentTreeUpdate, so
                # narrowing it would strand genuine late joiners; when a
                # snapshot cannot cure the failure, every adoption fails
                # its cross-check and rejection[-1] re-raises below, at
                # the cost of the wasted provider round trips.
                rejection: list[SyncError] = []

                def have_snapshot(snapshot: object | None) -> object:
                    if snapshot is None:
                        # Every provider exhausted.  One benign cause: a
                        # registration raced the fetch, so every (honest)
                        # snapshot was cut past the digests this pass
                        # collected — re-run the whole sync so the store
                        # queries see the newer events, bounded so a
                        # registration flood cannot loop us forever.
                        if _snapshot_retries > 0 and any(
                            isinstance(error, SnapshotAheadOfArchive)
                            for error in rejection
                        ):
                            self.sync_from_store(
                                client,
                                store_peer,
                                page_size=page_size,
                                snapshot_fetch=snapshot_fetch,
                                on_done=on_done,
                                _snapshot_retries=_snapshot_retries - 1,
                            )
                            return True
                        # Surface the most informative error — the last
                        # authentication failure if any snapshot was
                        # delivered at all.
                        if rejection:
                            raise rejection[-1]
                        raise SyncError(
                            "home-shard history aged out of store retention "
                            "and no snapshot provider answered"
                        )
                    try:
                        rebuilt = self._authenticate_snapshot(
                            checkpoint,
                            snapshot,
                            home_updates,  # type: ignore[arg-type]
                            ordered,
                            initial_seq=initial_seq,
                        )
                    except SyncError as error:
                        rejection.append(error)
                        return False
                    # Adoption can still fail — the final commit
                    # cross-check is what catches a snapshot colluding
                    # with a forged digest — so snapshot the view's state
                    # and roll back on failure: the next provider must
                    # start from a clean view, not a half-adopted one.
                    prior = (
                        self.shard,
                        self.seq,
                        self._snapshot_floor,
                        dict(self._pending),
                        self._announced_root,
                        self._retired_hash_ops,
                        self._collapse_window,
                    )
                    prior_stats = vars(self.stats).copy()
                    try:
                        root = self._adopt_snapshot(
                            checkpoint,
                            snapshot,
                            rebuilt,
                            home_updates,  # type: ignore[arg-type]
                            ordered,
                        )
                    except SyncError as error:
                        (
                            self.shard,
                            self.seq,
                            self._snapshot_floor,
                            pending,
                            self._announced_root,
                            self._retired_hash_ops,
                            self._collapse_window,
                        ) = prior
                        self._pending.clear()
                        self._pending.update(pending)
                        # The replayed deltas' event/byte counters must
                        # roll back too, or a failed-over adoption
                        # double-counts the window in E12/E14 traffic —
                        # all but the rollbacks themselves.
                        vars(self.stats).update(
                            prior_stats, rollbacks=self.stats.rollbacks + 1
                        )
                        rejection.append(error)
                        return False
                    if on_done is not None:
                        on_done(root)
                    return True

                snapshot_fetch(self.home_shard, have_snapshot)
                return
            if on_done is not None:
                on_done(root)

        query(
            content_topics=(CHECKPOINT_TOPIC,),
            page_size=1,
            descending=True,
            limit=1,
            on_complete=have_checkpoint,
        )

    def _replay_archive(
        self,
        checkpoint: TreeCheckpoint | None,
        home_updates: "Sequence[ShardUpdate | ShardRemoval]",
        digests: "Sequence[ShardRootDigest | ShardRemoval]",
    ) -> FieldElement:
        started = time.perf_counter()
        if checkpoint is not None and checkpoint.seq > self.seq:
            # Home history up to the checkpoint replays into the shard
            # (foreign events in that range are subsumed by the checkpoint).
            for update in home_updates:
                if self.seq < update.seq <= checkpoint.seq:
                    if isinstance(update, ShardRemoval):
                        self._remove_home(update)
                    else:
                        self._write_home(update)
                    self.stats.bytes_consumed += update.byte_size()
            self.restore(checkpoint)
        root = self._replay_deltas(home_updates, digests)
        self._m_replay_seconds.observe(time.perf_counter() - started)
        return root

    def _replay_deltas(
        self,
        home_updates: "Sequence[ShardUpdate | ShardRemoval]",
        digests: "Sequence[ShardRootDigest | ShardRemoval]",
    ) -> FieldElement:
        """Apply everything past the current frontier in contiguous seq
        order (full home updates take precedence over their digests),
        then commit — the shared tail of both recovery paths."""
        merged: dict[int, ShardUpdate | ShardRemoval | ShardRootDigest] = {}
        for digest in digests:
            merged[digest.seq] = digest
        for update in home_updates:
            merged[update.seq] = update
        for seq in sorted(merged):
            if seq > self.seq:
                self.apply(merged[seq])
        return self.commit()

    # -- snapshot fallback (home topic aged out of store retention) -------------

    def _authenticate_snapshot(
        self,
        checkpoint: TreeCheckpoint,
        snapshot: object,
        home_updates: "Sequence[ShardUpdate | ShardRemoval]",
        digests: "Sequence[ShardRootDigest | ShardRemoval]",
        *,
        initial_seq: int | None = None,
    ) -> MerkleTree:
        """Verify a fetched snapshot without touching any state.

        Trust model: the snapshot server is *never* trusted.  The shard
        tree is rebuilt locally from the snapshot's leaves and its root
        must equal the root this view's own accepted stream — the
        checkpoint entry, advanced by any home-shard digests up to the
        snapshot's seq — commits to.  Raises :class:`SyncError` (or the
        :class:`InconsistentTreeUpdate` subclass for a bad fold) on any
        mismatch, so the caller can fail over to another provider with
        the view untouched; returns the rebuilt shard for
        :meth:`_adopt_snapshot`.
        """
        assert self.home_shard is not None
        shard_id = getattr(snapshot, "shard_id", None)
        shard_depth = getattr(snapshot, "shard_depth", None)
        snapshot_seq = getattr(snapshot, "seq", None)
        leaves = getattr(snapshot, "leaves", None)
        if (
            shard_id != self.home_shard
            or shard_depth != self.shard_depth
            or not isinstance(snapshot_seq, int)
            or leaves is None
        ):
            raise SyncError("snapshot geometry does not match this view")
        # Compare against the frontier this sync *started* from: a failed
        # partial replay may have advanced self.seq past the checkpoint.
        floor = self.seq if initial_seq is None else initial_seq
        if checkpoint.seq < floor:
            raise SyncError(
                f"checkpoint seq {checkpoint.seq} is older than local seq {floor}"
            )
        if snapshot_seq < checkpoint.seq:
            raise InconsistentTreeUpdate(
                "stale snapshot: cut before the checkpoint it must extend"
            )
        newest_known = max(
            [checkpoint.seq]
            + [d.seq for d in digests]
            + [u.seq for u in home_updates]
        )
        if snapshot_seq > newest_known:
            raise SnapshotAheadOfArchive(
                "snapshot is newer than any archived event; its shard root "
                "cannot be authenticated against the accepted stream"
            )
        # The root our own accepted stream says the home shard has at
        # snapshot_seq: checkpoint entry, advanced by later home digests.
        roots = dict(checkpoint.shard_roots)
        expected = roots.get(self.home_shard, self.empty_shard_root)
        for digest in digests:
            if (
                checkpoint.seq < digest.seq <= snapshot_seq
                and digest.shard_id == self.home_shard
            ):
                expected = digest.new_shard_root
        # Rebuild locally; reject any snapshot that does not fold to it.
        full = [ZERO] * self.shard_capacity
        for local, leaf in leaves:
            if not 0 <= local < self.shard_capacity:
                raise SyncError(f"snapshot leaf index {local} out of shard range")
            full[local] = leaf
        # Trim the trailing-zero tail so the bulk build costs occupancy,
        # not capacity (from_leaves covers the rest with the zero ladder).
        while full and full[-1] == ZERO:
            full.pop()
        rebuilt = MerkleTree.from_leaves(
            full, depth=self.shard_depth, hasher=self._hash
        )
        if rebuilt.root != expected:
            raise InconsistentTreeUpdate(
                "snapshot does not fold to the shard root the accepted "
                "checkpoint+digest stream commits to"
            )
        return rebuilt

    def _adopt_snapshot(
        self,
        checkpoint: TreeCheckpoint,
        snapshot: object,
        rebuilt: MerkleTree,
        home_updates: "Sequence[ShardUpdate | ShardRemoval]",
        digests: "Sequence[ShardRootDigest | ShardRemoval]",
    ) -> FieldElement:
        """Install an authenticated snapshot and replay the deltas.

        The final :meth:`commit` cross-checks the whole top tree against
        the announced global root, so a forged snapshot cannot survive
        even if it colludes with a forged digest (the roots would not
        fold together).
        """
        assert self.home_shard is not None
        if self.shard is not None:
            self._retired_hash_ops += self.shard.hash_ops
        self.shard = rebuilt
        self._snapshot_floor = int(getattr(snapshot, "seq"))
        # A clean restore: pending state from before the failed replay (or
        # from a partial one) is superseded by the checkpoint wholesale.
        self._pending.clear()
        self._install_checkpoint(checkpoint)
        # Post-checkpoint events replay as usual; home events at or below
        # the snapshot floor are consumed as digests (apply() knows).
        root = self._replay_deltas(home_updates, digests)
        # Accounted only once the whole adoption survived its commit
        # cross-check — a rolled-back attempt is not a restore.
        self.stats.checkpoints_restored += 1
        self.stats.snapshots_restored += 1
        self.stats.bytes_consumed += size_of(snapshot, 0)
        return root

    # -- accounting -------------------------------------------------------------

    @property
    def hash_ops(self) -> int:
        """Compressions performed by this peer (home shard + top tree)."""
        shard_ops = 0 if self.shard is None else self.shard.hash_ops
        return shard_ops + self.top.hash_ops + self._retired_hash_ops

    def storage_bytes(self) -> int:
        """Persistent state: the home shard (if any) plus the top tree."""
        shard_bytes = 0 if self.shard is None else self.shard.storage_bytes()
        return shard_bytes + self.top.storage_bytes()


class TreeSyncPublisher:
    """Bridges a group manager's shard announcements onto Waku topics.

    A resourceful peer (the §IV-A hybrid role) holding the full tree runs
    this: every membership event is published as a full
    :class:`ShardUpdate` on its shard's topic and as a
    :class:`ShardRootDigest` on the global digest topic, and every
    ``checkpoint_interval`` events a :class:`TreeCheckpoint` is published
    for store archival.  ``publish`` is any sink that accepts a
    :class:`WakuMessage` — a relay's publish, or a store node's direct
    ``archive``.
    """

    def __init__(
        self,
        manager,
        publish: Callable[[WakuMessage], None],
        *,
        checkpoint_interval: int = 64,
        timestamp: Callable[[], float] | None = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ProtocolError("checkpoint_interval must be >= 1")
        self.manager = manager
        self.publish = publish
        self.checkpoint_interval = checkpoint_interval
        self._timestamp = timestamp or (lambda: 0.0)
        self._since_checkpoint = 0
        self.updates_published = 0
        self.removals_published = 0
        self.checkpoints_published = 0
        manager.on_shard_update(self._on_update)

    def _on_update(self, update: "ShardUpdate | ShardRemoval") -> None:
        now = self._timestamp()
        self.publish(
            WakuMessage(
                payload=update.to_bytes(),
                content_topic=shard_topic(update.shard_id),
                timestamp=now,
            )
        )
        # A ShardRemoval is its own digest (same bytes on both topics):
        # projecting it down to a plain ShardRootDigest would strip the
        # removal semantics foreign peers need to collapse their windows.
        self.publish(
            WakuMessage(
                payload=update.digest().to_bytes(),
                content_topic=DIGEST_TOPIC,
                timestamp=now,
            )
        )
        self.updates_published += 1
        if isinstance(update, ShardRemoval):
            self.removals_published += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self.publish_checkpoint()

    def publish_checkpoint(self) -> TreeCheckpoint:
        """Snapshot the manager's forest state onto the checkpoint topic."""
        checkpoint = self.manager.checkpoint()
        self.publish(
            WakuMessage(
                payload=checkpoint.to_bytes(),
                content_topic=CHECKPOINT_TOPIC,
                timestamp=self._timestamp(),
            )
        )
        self._since_checkpoint = 0
        self.checkpoints_published += 1
        return checkpoint
