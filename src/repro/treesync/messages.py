"""Shard-scoped tree-sync announcements and their wire encoding.

Four artefacts flow between peers (§III-C, sharded):

* :class:`ShardUpdate` — one membership event, tagged with its shard:
  carries the full pre-change path (for members of that shard and for
  flat/optimized-view consumers) plus the post-change shard and global
  roots;
* :class:`ShardRemoval` — one member *deletion* (slash or withdraw),
  compact by construction: the new leaf is the zero leaf by definition
  and home-shard peers hold their shard materialised, so no path needs
  to travel — just the slot index and the claimed post-removal roots the
  local replay is cross-checked against.  A removal is a security event:
  consumers collapse their accepted-root window to the post-removal root
  so the removed member's stale witnesses stop validating immediately,
  instead of surviving until the window ages out (§III-F economics).
  It travels on *both* the shard topic and the digest topic (it is its
  own O(1) digest — foreign peers must also learn that the event was a
  removal, or their windows would stay open);
* :class:`ShardRootDigest` — the O(1) projection of a :class:`ShardUpdate`
  that peers *outside* the shard consume: no path, just the new roots.
  This is the object whose small size and zero hash cost experiment E12
  measures;
* :class:`TreeCheckpoint` — a periodic snapshot of every non-empty shard
  root, archived by Waku store nodes so a peer that missed events can
  restore foreign-shard state without replaying history.

Each type serialises to bytes through :mod:`repro.codec` (it declares its
layout once to write and once to read) so it can travel as a
:class:`~repro.waku.message.WakuMessage` payload on the tree-sync content
topics and be archived/queried like any other Waku traffic.  Every
``from_bytes`` rejects bytes past the end of its value, so types sharing
a topic (:class:`ShardUpdate`/:class:`ShardRemoval` on the shard topics,
:class:`ShardRootDigest`/:class:`ShardRemoval` on the digest topic) are
discriminated by their wire sizes: no payload decodes as two of them,
whichever is tried first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Reader, Wire, Writer
from repro.crypto.field import FieldElement
from repro.crypto.optimized_merkle import TreeUpdate

def shard_topic(shard_id: int) -> str:
    """Content topic carrying full :class:`ShardUpdate`s for one shard."""
    return f"/treesync/1/shard-{shard_id}/proto"


#: Content topic carrying every event's :class:`ShardRootDigest`.
DIGEST_TOPIC = "/treesync/1/roots/proto"

#: Content topic carrying periodic :class:`TreeCheckpoint`s.
CHECKPOINT_TOPIC = "/treesync/1/checkpoint/proto"


@dataclass(frozen=True)
class ShardRootDigest(Wire):
    """What a foreign-shard peer needs from one membership event: the roots."""

    seq: int
    shard_id: int
    new_shard_root: FieldElement
    new_global_root: FieldElement

    def _write(self, w: Writer) -> None:
        w.pack(">QI", self.seq, self.shard_id)
        w.field(self.new_shard_root)
        w.field(self.new_global_root)

    @classmethod
    def _read(cls, r: Reader) -> "ShardRootDigest":
        seq, shard_id = r.unpack(">QI")
        return cls(seq, shard_id, new_shard_root=r.field(), new_global_root=r.field())


@dataclass(frozen=True)
class ShardRemoval(Wire):
    """One member deletion, scoped to its shard — the revocation artefact.

    ``index`` is the *global* leaf index whose slot was zeroed;
    ``removed_leaf`` is the commitment that died there (home peers
    cross-check it against their shard before zeroing, so a forged
    removal cannot blank an arbitrary slot it does not know the content
    of).  Carries no path: home-shard members replay the zero write on
    their materialised shard and cross-check ``new_shard_root``; everyone
    else records the roots in O(1), exactly like a digest — but, unlike
    a digest, a removal also collapses the consumer's accepted-root
    window (see :meth:`~repro.treesync.sync.ShardSyncManager.commit`).
    """

    seq: int
    shard_id: int
    index: int
    removed_leaf: FieldElement
    new_shard_root: FieldElement
    new_global_root: FieldElement

    def digest(self) -> "ShardRemoval":
        """A removal is already O(1) — it is its own digest projection.

        Returning ``self`` (rather than a :class:`ShardRootDigest`) is
        deliberate: the digest feed must preserve removal semantics or
        foreign peers would never collapse their root windows.
        """
        return self

    def _write(self, w: Writer) -> None:
        w.pack(">QIQ", self.seq, self.shard_id, self.index)
        w.field(self.removed_leaf)
        w.field(self.new_shard_root)
        w.field(self.new_global_root)

    @classmethod
    def _read(cls, r: Reader) -> "ShardRemoval":
        seq, shard_id, index = r.unpack(">QIQ")
        removed_leaf, shard_root, global_root = r.field(), r.field(), r.field()
        return cls(seq, shard_id, index, removed_leaf, shard_root, global_root)


@dataclass(frozen=True)
class ShardUpdate(Wire):
    """One membership event scoped to its shard.

    ``update`` carries the *global*-index pre-change path (the flat-tree
    splice), so legacy :class:`~repro.crypto.optimized_merkle.OptimizedMerkleView`
    consumers can apply it unchanged; shard members only replay the leaf
    write and cross-check ``new_shard_root``.
    """

    seq: int
    shard_id: int
    update: TreeUpdate
    new_shard_root: FieldElement
    new_global_root: FieldElement

    def digest(self) -> ShardRootDigest:
        """The O(1) foreign-shard projection of this event."""
        return ShardRootDigest(
            seq=self.seq,
            shard_id=self.shard_id,
            new_shard_root=self.new_shard_root,
            new_global_root=self.new_global_root,
        )

    def _write(self, w: Writer) -> None:
        # The global root is stored once — it doubles as the TreeUpdate's
        # new_root on decode.
        w.pack(">QIQ", self.seq, self.shard_id, self.update.index)
        w.field(self.update.new_leaf)
        w.field(self.new_shard_root)
        w.field(self.new_global_root)
        w.proof(self.update.path)

    @classmethod
    def _read(cls, r: Reader) -> "ShardUpdate":
        seq, shard_id, index = r.unpack(">QIQ")
        new_leaf, shard_root, global_root = r.field(), r.field(), r.field()
        return cls(
            seq=seq,
            shard_id=shard_id,
            update=TreeUpdate(
                index=index, new_leaf=new_leaf, path=r.proof(), new_root=global_root
            ),
            new_shard_root=shard_root,
            new_global_root=global_root,
        )


@dataclass(frozen=True)
class TreeCheckpoint(Wire):
    """Snapshot of the tree's shard-root commitments at event ``seq``.

    Lists every shard ever allocated — one that was since emptied
    included, carrying the empty-shard root, which
    :meth:`~repro.treesync.sync.ShardSyncManager.restore` relies on to
    overwrite the stale root it may hold for it.  Only shards past the
    frontier are absent (they are the empty-shard constant).  A consumer
    restores foreign-shard state from this and replays only the deltas
    after ``seq``.
    """

    seq: int
    depth: int
    shard_depth: int
    leaf_count: int
    shard_roots: tuple[tuple[int, FieldElement], ...]
    global_root: FieldElement

    def _write(self, w: Writer) -> None:
        head = (self.seq, self.depth, self.shard_depth, self.leaf_count)
        w.pack(">QBBQI", *head, len(self.shard_roots))
        for shard_id, root in self.shard_roots:
            w.pack(">I", shard_id)
            w.field(root)
        w.field(self.global_root)

    @classmethod
    def _read(cls, r: Reader) -> "TreeCheckpoint":
        *head, count = r.unpack(">QBBQI")
        roots = tuple((r.unpack(">I")[0], r.field()) for _ in range(count))
        return cls(*head, shard_roots=roots, global_root=r.field())
