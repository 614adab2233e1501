"""Shard-scoped tree-sync announcements and their wire encoding.

Three artefacts flow between peers (§III-C, sharded):

* :class:`ShardUpdate` — one block's membership events as the tree writes
  they made.  Each write names its global slot, the leaf it expects to
  find there and the leaf it leaves: a registration writes a commitment
  over the zero leaf, a deletion (slash or withdraw) writes the zero leaf
  over the commitment that died, so the wire carries a removal flag and
  the one non-zero leaf.  No path travels: home-shard peers hold their
  shard and replay the writes, and naming the old leaf keeps a forger
  who does not know a slot's content from blanking it.  The update also
  carries the post-block root of every shard the block touched and the
  post-block global root, which the local replay is cross-checked
  against;
* :class:`ShardRootDigest` — the O(1) projection of a :class:`ShardUpdate`
  that peers *outside* its shards consume: the roots, the block's event
  count and whether it removed anyone.  A removal is a security event:
  every consumer collapses its accepted-root window to the post-block
  root, so the removed member's stale witnesses stop validating at once
  instead of surviving until the window ages out (§III-F economics).
  This is the object whose small size and zero hash cost experiment E12
  measures;
* :class:`TreeCheckpoint` — a periodic snapshot of every non-empty shard
  root, archived by Waku store nodes so a peer that missed events can
  restore foreign-shard state without replaying history.

Each type serialises to bytes through :mod:`repro.codec` (it declares its
layout once to write and once to read) so it can travel as a
:class:`~repro.waku.message.WakuMessage` payload on the tree-sync content
topics — one type per topic — and be archived/queried like any other Waku
traffic.  Every ``from_bytes`` rejects bytes past the end of its value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Reader, Wire, Writer, flag, varint
from repro.crypto.field import FieldElement, ZERO
from repro.errors import ProtocolError

#: ``(shard_id, root)`` pairs, in shard order.
ShardRoots = tuple[tuple[int, FieldElement], ...]


def shard_topic(shard_id: int) -> str:
    """Content topic carrying the :class:`ShardUpdate`s that touch one shard."""
    return f"/treesync/1/shard-{shard_id}/proto"


#: Content topic carrying every block's :class:`ShardRootDigest`.
DIGEST_TOPIC = "/treesync/1/roots/proto"

#: Content topic carrying periodic :class:`TreeCheckpoint`s.
CHECKPOINT_TOPIC = "/treesync/1/checkpoint/proto"


def _write_roots(w: Writer, roots: ShardRoots) -> None:
    for shard_id, root in roots:
        w.pack(">I", shard_id)
        w.field(root)


def _read_roots(r: Reader, count: int) -> ShardRoots:
    return tuple((r.unpack(">I")[0], r.field()) for _ in range(count))


@dataclass(frozen=True)
class ShardRootDigest(Wire):
    """What a peer outside a block's shards needs from it: the roots.

    The block covered ``events`` membership events and ends at ``seq``, so
    a consumer still sees a gap; ``removed`` says it removed a member.
    """

    seq: int
    events: int
    removed: bool
    shard_roots: ShardRoots
    new_global_root: FieldElement

    def _write(self, w: Writer) -> None:
        w.pack(">Q", self.seq)
        w.raw(varint(self.events, 32))
        w.pack(">B", self.removed)
        w.raw(varint(len(self.shard_roots), 32))
        _write_roots(w, self.shard_roots)
        w.field(self.new_global_root)

    @classmethod
    def _read(cls, r: Reader) -> "ShardRootDigest":
        (seq,), events, (removed,) = r.unpack(">Q"), r.varint(32), r.unpack(">B")
        return cls(seq, events, flag(removed), _read_roots(r, r.varint(32)), r.field())


@dataclass(frozen=True)
class ShardUpdate(Wire):
    """One block's tree writes, ``(index, old_leaf, new_leaf)`` in block
    order, one per membership event, ending at event number ``seq``.

    Every write fills a zero slot or zeroes a full one, so only its
    non-zero leaf travels, behind a removal flag byte.
    """

    seq: int
    writes: tuple[tuple[int, FieldElement, FieldElement], ...]
    shard_roots: ShardRoots
    new_global_root: FieldElement

    @property
    def events(self) -> int:
        return len(self.writes)

    @property
    def removed(self) -> bool:
        return any(new == ZERO for _index, _old, new in self.writes)

    def digest(self) -> ShardRootDigest:
        """The O(1) foreign-shard projection of this block."""
        return ShardRootDigest(
            self.seq, self.events, self.removed, self.shard_roots, self.new_global_root
        )

    def _write(self, w: Writer) -> None:
        w.pack(">Q", self.seq)
        w.raw(varint(len(self.writes), 32))
        for index, old, new in self.writes:
            removal = new == ZERO
            leaf, other = (old, new) if removal else (new, old)
            if leaf == ZERO or other != ZERO:
                raise ProtocolError(f"write to slot {index} neither fills nor zeroes it")
            w.pack(">BQ", removal, index)
            w.field(leaf)
        w.raw(varint(len(self.shard_roots), 32))
        _write_roots(w, self.shard_roots)
        w.field(self.new_global_root)

    @classmethod
    def _read(cls, r: Reader) -> "ShardUpdate":
        (seq,) = r.unpack(">Q")
        writes = []
        for _ in range(r.varint(32)):
            removal, index = r.unpack(">BQ")
            leaf = r.field()
            if leaf == ZERO:
                raise ProtocolError(f"write to slot {index} carries the zero leaf")
            writes.append((index, leaf, ZERO) if flag(removal) else (index, ZERO, leaf))
        return cls(seq, tuple(writes), _read_roots(r, r.varint(32)), r.field())


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
    shard_roots: ShardRoots
    global_root: FieldElement

    def _write(self, w: Writer) -> None:
        head = (self.seq, self.depth, self.shard_depth, self.leaf_count)
        w.pack(">QBBQI", *head, len(self.shard_roots))
        _write_roots(w, self.shard_roots)
        w.field(self.global_root)

    @classmethod
    def _read(cls, r: Reader) -> "TreeCheckpoint":
        *head, count = r.unpack(">QBBQI")
        return cls(*head, shard_roots=_read_roots(r, count), global_root=r.field())
