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

Each type serialises to bytes so it can travel as a
:class:`~repro.waku.message.WakuMessage` payload on the tree-sync content
topics and be archived/queried like any other Waku traffic.  Every
``from_bytes`` rejects bytes past the end of its value, so types sharing
a topic (:class:`ShardUpdate`/:class:`ShardRemoval` on the shard topics,
:class:`ShardRootDigest`/:class:`ShardRemoval` on the digest topic) are
discriminated by their wire sizes: no payload decodes as two of them,
whichever is tried first.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.crypto.field import FIELD_BYTES, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.crypto.optimized_merkle import TreeUpdate
from repro.errors import ProtocolError

#: Content topic carrying full :class:`ShardUpdate`s for one shard.
def shard_topic(shard_id: int) -> str:
    return f"/treesync/1/shard-{shard_id}/proto"


#: Content topic carrying every event's :class:`ShardRootDigest`.
DIGEST_TOPIC = "/treesync/1/roots/proto"

#: Content topic carrying periodic :class:`TreeCheckpoint`s.
CHECKPOINT_TOPIC = "/treesync/1/checkpoint/proto"


def encode_field(value: FieldElement) -> bytes:
    return value.to_bytes()


def decode_field(data: bytes, offset: int) -> tuple[FieldElement, int]:
    end = offset + FIELD_BYTES
    if end > len(data):
        raise ProtocolError("truncated field element")
    return FieldElement(int.from_bytes(data[offset:end], "big")), end


@contextmanager
def decoding(what: str) -> Iterator[None]:
    """Whatever goes wrong while decoding ``what`` is one ProtocolError."""
    try:
        yield
    except (struct.error, IndexError, ProtocolError) as exc:
        raise ProtocolError(f"malformed {what}: {exc}") from exc


def expect_end(data: bytes, offset: int) -> None:
    """A value ends where its bytes do; anything after it is malformed."""
    if offset != len(data):
        raise ProtocolError(f"{len(data) - offset} trailing bytes")


def encode_proof(proof: MerkleProof) -> bytes:
    head = struct.pack(">QH", proof.index, proof.depth)
    return head + proof.leaf.to_bytes() + b"".join(s.to_bytes() for s in proof.siblings)


def decode_proof(data: bytes, offset: int) -> tuple[MerkleProof, int]:
    index, depth = struct.unpack_from(">QH", data, offset)
    offset += 10
    leaf, offset = decode_field(data, offset)
    siblings = []
    for _ in range(depth):
        sibling, offset = decode_field(data, offset)
        siblings.append(sibling)
    bits = tuple((index >> level) & 1 for level in range(depth))
    return (
        MerkleProof(leaf=leaf, index=index, siblings=tuple(siblings), path_bits=bits),
        offset,
    )


@dataclass(frozen=True)
class ShardRootDigest:
    """What a foreign-shard peer needs from one membership event: the roots."""

    seq: int
    shard_id: int
    new_shard_root: FieldElement
    new_global_root: FieldElement

    def byte_size(self) -> int:
        return 8 + 4 + 2 * FIELD_BYTES

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">QI", self.seq, self.shard_id)
            + self.new_shard_root.to_bytes()
            + self.new_global_root.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardRootDigest":
        with decoding("ShardRootDigest"):
            seq, shard_id = struct.unpack_from(">QI", data, 0)
            shard_root, offset = decode_field(data, 12)
            global_root, offset = decode_field(data, offset)
            expect_end(data, offset)
        return cls(
            seq=seq,
            shard_id=shard_id,
            new_shard_root=shard_root,
            new_global_root=global_root,
        )


@dataclass(frozen=True)
class ShardRemoval:
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

    def byte_size(self) -> int:
        # (seq, shard, index) header, removed leaf, shard root, global root.
        return 20 + 3 * FIELD_BYTES

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">QIQ", self.seq, self.shard_id, self.index)
            + self.removed_leaf.to_bytes()
            + self.new_shard_root.to_bytes()
            + self.new_global_root.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardRemoval":
        with decoding("ShardRemoval"):
            seq, shard_id, index = struct.unpack_from(">QIQ", data, 0)
            removed_leaf, offset = decode_field(data, 20)
            shard_root, offset = decode_field(data, offset)
            global_root, offset = decode_field(data, offset)
            expect_end(data, offset)
        return cls(
            seq=seq,
            shard_id=shard_id,
            index=index,
            removed_leaf=removed_leaf,
            new_shard_root=shard_root,
            new_global_root=global_root,
        )


@dataclass(frozen=True)
class ShardUpdate:
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

    def byte_size(self) -> int:
        # Mirrors to_bytes() exactly: (seq, shard, index) header, the new
        # leaf, both roots (the global root is stored once — it doubles as
        # the TreeUpdate's new_root on decode), and the encoded path.
        return 20 + 3 * FIELD_BYTES + 10 + (1 + self.update.path.depth) * FIELD_BYTES

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">QIQ", self.seq, self.shard_id, self.update.index)
            + self.update.new_leaf.to_bytes()
            + self.new_shard_root.to_bytes()
            + self.new_global_root.to_bytes()
            + encode_proof(self.update.path)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardUpdate":
        with decoding("ShardUpdate"):
            seq, shard_id, index = struct.unpack_from(">QIQ", data, 0)
            offset = 20
            new_leaf, offset = decode_field(data, offset)
            shard_root, offset = decode_field(data, offset)
            global_root, offset = decode_field(data, offset)
            path, offset = decode_proof(data, offset)
            expect_end(data, offset)
        return cls(
            seq=seq,
            shard_id=shard_id,
            update=TreeUpdate(
                index=index, new_leaf=new_leaf, path=path, new_root=global_root
            ),
            new_shard_root=shard_root,
            new_global_root=global_root,
        )


@dataclass(frozen=True)
class TreeCheckpoint:
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

    def byte_size(self) -> int:
        return 8 + 1 + 1 + 8 + 4 + len(self.shard_roots) * (4 + FIELD_BYTES) + FIELD_BYTES

    def to_bytes(self) -> bytes:
        out = [
            struct.pack(
                ">QBBQI",
                self.seq,
                self.depth,
                self.shard_depth,
                self.leaf_count,
                len(self.shard_roots),
            )
        ]
        for shard_id, root in self.shard_roots:
            out.append(struct.pack(">I", shard_id) + root.to_bytes())
        out.append(self.global_root.to_bytes())
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TreeCheckpoint":
        with decoding("TreeCheckpoint"):
            seq, depth, shard_depth, leaf_count, count = struct.unpack_from(
                ">QBBQI", data, 0
            )
            offset = 22
            roots = []
            for _ in range(count):
                (shard_id,) = struct.unpack_from(">I", data, offset)
                offset += 4
                root, offset = decode_field(data, offset)
                roots.append((shard_id, root))
            global_root, offset = decode_field(data, offset)
            expect_end(data, offset)
        return cls(
            seq=seq,
            depth=depth,
            shard_depth=shard_depth,
            leaf_count=leaf_count,
            shard_roots=tuple(roots),
            global_root=global_root,
        )
