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

Every type serialises to bytes through :mod:`repro.codec` so the
protocol could ride real transport frames; the simulated network carries
the dataclasses and bills ``byte_size()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Reader, Wire, Writer, flag
from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleProof
from repro.telemetry.disttrace import SpanContext

#: Protocol channel witness and snapshot *requests* travel on.
WITNESS_PROTOCOL = "witness"

#: Channel the responses come back on.  Distinct from the request channel
#: so one peer can run a service (registered on the request channel) and
#: a client (registered here) simultaneously — a resourceful peer is
#: explicitly allowed to fetch rather than hold.
WITNESS_REPLY_PROTOCOL = "witness-reply"


@dataclass(frozen=True)
class WitnessRequest(Wire):
    """Ask for the authentication path of the leaf at global ``index``.

    ``trace`` is an optional distributed-tracing span context (PR 9):
    when a traced publish needs a witness fetch first, the request
    carries the publish span so the server's serve span joins the same
    propagation tree.  It rides as *trailing* bytes — an untraced
    request encodes exactly the 16 bytes it always did; whatever follows
    them must be exactly one span context.
    """

    request_id: int
    index: int
    trace: "SpanContext | None" = None

    def _write(self, w: Writer) -> None:
        w.pack(">QQ", self.request_id, self.index)
        if self.trace is not None:
            self.trace._write(w)

    @classmethod
    def _read(cls, r: Reader) -> "WitnessRequest":
        request_id, index = r.unpack(">QQ")
        trace = SpanContext._read(r) if r.remaining else None
        return cls(request_id=request_id, index=index, trace=trace)


@dataclass(frozen=True)
class WitnessResponse(Wire):
    """The spliced full-depth path, or a miss (``found=False``).

    ``seq`` is the server's membership-event frontier when the path was
    extracted — diagnostic only; the client's acceptance decision rests
    exclusively on folding ``proof`` to a locally accepted root.
    """

    request_id: int
    found: bool
    seq: int = 0
    proof: MerkleProof | None = None

    def _write(self, w: Writer) -> None:
        w.pack(">QBQB", self.request_id, self.found, self.seq, self.proof is not None)
        if self.proof is not None:
            w.proof(self.proof)

    @classmethod
    def _read(cls, r: Reader) -> "WitnessResponse":
        request_id, found, seq, has_proof = r.unpack(">QBQB")
        proof = r.proof() if flag(has_proof) else None
        return cls(request_id=request_id, found=flag(found), seq=seq, proof=proof)


@dataclass(frozen=True)
class SnapshotRequest(Wire):
    """Ask for the leaf content of one shard (late-joiner bootstrap)."""

    request_id: int
    shard_id: int

    def _write(self, w: Writer) -> None:
        w.pack(">QI", self.request_id, self.shard_id)

    @classmethod
    def _read(cls, r: Reader) -> "SnapshotRequest":
        request_id, shard_id = r.unpack(">QI")
        return cls(request_id, shard_id)


@dataclass(frozen=True)
class SnapshotResponse(Wire):
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

    def _write(self, w: Writer) -> None:
        head = (self.request_id, self.found, self.shard_id, self.shard_depth, self.seq)
        w.pack(">QBIBQI", *head, len(self.leaves))
        for local, leaf in self.leaves:
            w.pack(">I", local)
            w.field(leaf)

    @classmethod
    def _read(cls, r: Reader) -> "SnapshotResponse":
        request_id, found, *rest, count = r.unpack(">QBIBQI")
        leaves = tuple((r.unpack(">I")[0], r.field()) for _ in range(count))
        return cls(request_id, flag(found), *rest, leaves)
