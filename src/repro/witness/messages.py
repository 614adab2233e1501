"""Wire types of the witness & snapshot protocol.

Two request/response pairs travel on the ``witness`` protocol channel
(one more libp2p-style stream next to 13/WAKU2-STORE and
19/WAKU2-LIGHTPUSH):

* :class:`WitnessRequest` → :class:`WitnessResponse` — a light member asks
  a resourceful peer for the full-depth authentication path of one leaf;
  the server answers with the spliced (shard ∥ top) path.  The response
  deliberately carries **no claimed root**: the client folds the path
  itself and accepts only if the result is a root it already trusts.
* :class:`SnapshotRequest` → :class:`SnapshotResponse` — a late joiner
  whose home-topic history aged out of store retention asks for the leaf
  content of one shard.  Again no claimed root travels: the client
  rebuilds the shard tree locally and compares against the root its own
  accepted checkpoint+digest stream commits to.

Every type serialises to bytes (the same conventions as the tree-sync
artefacts) so the protocol could ride real transport frames; the
simulated network carries the dataclasses and bills ``byte_size()``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.field import FIELD_BYTES, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.telemetry.disttrace import SpanContext
from repro.treesync.messages import (
    decode_field,
    decode_proof,
    decoding,
    encode_proof,
    expect_end,
)

#: Protocol channel witness and snapshot *requests* travel on.
WITNESS_PROTOCOL = "witness"

#: Channel the responses come back on.  Distinct from the request channel
#: so one peer can run a service (registered on the request channel) and
#: a client (registered here) simultaneously — a resourceful peer is
#: explicitly allowed to fetch rather than hold.
WITNESS_REPLY_PROTOCOL = "witness-reply"


@dataclass(frozen=True)
class WitnessRequest:
    """Ask for the authentication path of the leaf at global ``index``.

    ``trace`` is an optional distributed-tracing span context (PR 9):
    when a traced publish needs a witness fetch first, the request
    carries the publish span so the server's serve span joins the same
    propagation tree.  It rides as *trailing* bytes — an untraced
    request encodes exactly the 16 bytes it always did, and old decoders
    (``unpack_from``) simply ignore the extension.
    """

    request_id: int
    index: int
    trace: "SpanContext | None" = None

    def byte_size(self) -> int:
        return 16 + (0 if self.trace is None else self.trace.byte_size())

    def to_bytes(self) -> bytes:
        head = struct.pack(">QQ", self.request_id, self.index)
        if self.trace is None:
            return head
        return head + self.trace.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "WitnessRequest":
        with decoding("WitnessRequest"):
            request_id, index = struct.unpack_from(">QQ", data, 0)
            trace = SpanContext.decode(data, 16)[0] if len(data) > 16 else None
        return cls(request_id=request_id, index=index, trace=trace)


@dataclass(frozen=True)
class WitnessResponse:
    """The spliced full-depth path, or a miss (``found=False``).

    ``seq`` is the server's membership-event frontier when the path was
    extracted — diagnostic only; the client's acceptance decision rests
    exclusively on folding ``proof`` to a locally accepted root.
    """

    request_id: int
    found: bool
    seq: int = 0
    proof: MerkleProof | None = None

    def byte_size(self) -> int:
        proof_bytes = (
            0 if self.proof is None else 10 + (1 + self.proof.depth) * FIELD_BYTES
        )
        return 18 + proof_bytes

    def to_bytes(self) -> bytes:
        head = struct.pack(">QBQ", self.request_id, int(self.found), self.seq)
        if self.proof is None:
            return head + struct.pack(">B", 0)
        return head + struct.pack(">B", 1) + encode_proof(self.proof)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WitnessResponse":
        with decoding("WitnessResponse"):
            request_id, found, seq = struct.unpack_from(">QBQ", data, 0)
            (has_proof,) = struct.unpack_from(">B", data, 17)
            proof, offset = decode_proof(data, 18) if has_proof else (None, 18)
            expect_end(data, offset)
        return cls(request_id=request_id, found=bool(found), seq=seq, proof=proof)


@dataclass(frozen=True)
class SnapshotRequest:
    """Ask for the leaf content of one shard (late-joiner bootstrap)."""

    request_id: int
    shard_id: int

    def byte_size(self) -> int:
        return 12

    def to_bytes(self) -> bytes:
        return struct.pack(">QI", self.request_id, self.shard_id)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SnapshotRequest":
        with decoding("SnapshotRequest"):
            request_id, shard_id = struct.unpack_from(">QI", data, 0)
            expect_end(data, 12)
        return cls(request_id=request_id, shard_id=shard_id)


@dataclass(frozen=True)
class SnapshotResponse:
    """Sparse leaf content of one shard at the server's event ``seq``.

    ``leaves`` lists only occupied slots as ``(local_index, leaf)`` pairs;
    absent slots are the zero leaf.  The requester rebuilds the depth-
    ``shard_depth`` subtree from them and must reject the snapshot unless
    the rebuilt root equals the shard root its *own* accepted stream
    (checkpoint + digests) commits to.
    """

    request_id: int
    found: bool
    shard_id: int = 0
    shard_depth: int = 0
    seq: int = 0
    leaves: tuple[tuple[int, FieldElement], ...] = ()

    def byte_size(self) -> int:
        return 26 + len(self.leaves) * (4 + FIELD_BYTES)

    def to_bytes(self) -> bytes:
        out = [
            struct.pack(
                ">QBIBQI",
                self.request_id,
                int(self.found),
                self.shard_id,
                self.shard_depth,
                self.seq,
                len(self.leaves),
            )
        ]
        for local, leaf in self.leaves:
            out.append(struct.pack(">I", local) + leaf.to_bytes())
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SnapshotResponse":
        with decoding("SnapshotResponse"):
            request_id, found, shard_id, shard_depth, seq, count = struct.unpack_from(
                ">QBIBQI", data, 0
            )
            offset = 26
            leaves = []
            for _ in range(count):
                (local,) = struct.unpack_from(">I", data, offset)
                offset += 4
                leaf, offset = decode_field(data, offset)
                leaves.append((local, leaf))
            expect_end(data, offset)
        return cls(
            request_id=request_id,
            found=bool(found),
            shard_id=shard_id,
            shard_depth=shard_depth,
            seq=seq,
            leaves=tuple(leaves),
        )
