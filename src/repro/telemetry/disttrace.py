"""Span tracing on the simulated clock, local and cross-peer: one model.

Every traced activity — a bundle's trip through the §III-F pipeline, a
publish, a witness fetch, a slashing case — is a *span*: ids, a kind, a
start/end and a trail of (stage, simulated-time) marks.  Marks stamp the
*simulated* clock, so stage durations measure exactly the queueing and
service delays the discrete-event model charges (batch deadlines, lane
waits, pairing service time), not Python wall time.

* :class:`SpanContext` — the compact wire extension (128-bit trace id,
  the sender's 64-bit span id, the sender's hop count, the origin peer)
  minted at publish time and carried inside
  :class:`~repro.waku.message.WakuMessage` through GossipSub forwarding.
  Each relay hop re-stamps the context with its *own* span id before
  forwarding, so the receiver's span always points at the true causal
  parent (including mcache/IWANT re-serves, which serve the re-stamped
  copy).
* :class:`DistTracer` — one peer's span mint and ring buffer.
  ``begin_publish`` decides **head sampling** once, at the root
  (probability ``sample``; the decision rides the wire, downstream peers
  honour it regardless of their own rate).  ``begin`` opens a markable
  span — the child of an inbound context, or a *local* root when the
  bundle arrived untraced — and ``finish`` archives it and folds its
  stage deltas into the registry's ``trace_stage_seconds{kind,stage}``
  histograms, which is where the E-benches read an exact stage-latency
  waterfall from.  ``link`` attaches unmarked leaf spans (witness
  fetches, spam evidence) to any live context.  Sampling draws from a
  **dedicated** per-peer RNG — never the router's — so enabling tracing
  perturbs no mesh shuffle, and ``sample=0.0`` puts no context on any
  message: zero wire bytes, bit-identical seed behaviour.
* :class:`SpanRecord` — the finished-span wire type shipped in
  :class:`~repro.telemetry.otlp.TelemetryBatch` (bounded per tick,
  drop-oldest, per-tracer cursor — the same discipline as metric
  deltas).
* :class:`TraceAssembler` — the collector side: stitch per-peer spans
  into rooted :class:`PropagationTree` objects and answer the questions
  merged histograms cannot — per-hop latency, fan-out degree, duplicate
  deliveries, the end-to-end critical path, and fleet p50/p99
  publish→verdict latency *per assembled trace*.

The two wire types declare their byte layouts on :mod:`repro.codec`
(``SpanRecord``'s as a symbol-table ``Framed`` body), like every other.

Like the registry, the tracer has a no-op twin
(:data:`NULL_DISTTRACER` / :data:`NULL_TRACE`) so instrumentation is
unconditional and a disabled run does no work and allocates nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, sub
from struct import Struct
from typing import Callable, Iterator, NamedTuple

from repro.codec import Framed, Reader, Symbol, Symbols, Wire, Writer, varint
from repro.errors import ProtocolError
from repro.telemetry.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.telemetry.tracing import EVIDENCE, INGRESS

#: The head-sampled root span's kind.
PUBLISH = "publish"

#: Parent sentinel of a root span (a real span id is never 0).
NO_PARENT = 0

Marks = tuple[tuple[str, float], ...]

_CONTEXT_HEAD = Struct(">QH")
_STAMP = Struct(">d")


@lru_cache(maxsize=4096)
def local_prefix(peer_id: str) -> int:
    """High 64 bits of every local-root trace id ``peer_id`` mints (its
    sampling seed): the wire recomputes it rather than carry the id."""
    return int.from_bytes(hashlib.sha256(peer_id.encode()).digest()[:8], "big") << 64


def _is_local_root(ids: tuple) -> bool:
    """Whether a span's ids are what :meth:`DistTracer.begin` gives an untraced bundle."""
    trace_id, span_id, parent_id, _, peer, origin, kind, hop = ids
    return parent_id == NO_PARENT and kind != PUBLISH and hop == 0 and origin == peer and (
        trace_id == local_prefix(peer) | span_id
    )


# -- wire types ---------------------------------------------------------------


class _ContextFields(NamedTuple):
    trace_id: int
    span_id: int
    hop: int
    origin: str


class SpanContext(_ContextFields, Wire):
    """The on-the-wire trace context: who to hang the next span under.

    ``span_id`` is the *sender's* span (the causal parent of whatever the
    receiver mints); ``hop`` is the sender's hop count (the receiver's
    span sits at ``hop + 1``); ``origin`` is the publishing peer.  An
    immutable slotted record, like :class:`SpanRecord`: every traced
    receipt mints one for the copy it forwards.
    """

    __slots__ = ()

    def child_hop(self) -> int:
        return self.hop + 1

    def _write(self, w: Writer) -> None:
        w.raw(self.trace_id.to_bytes(16, "big"))
        w.raw(_CONTEXT_HEAD.pack(self.span_id, self.hop))
        w.str(self.origin)

    @classmethod
    def _read(cls, r: Reader) -> "SpanContext":
        trace_id = int.from_bytes(r.raw(16), "big")
        span_id, hop = r.unpack(">QH")
        return cls(trace_id=trace_id, span_id=span_id, hop=hop, origin=r.str())

    def byte_size(self) -> int:
        # Every traced hop bills this: arithmetic, not an encode.
        return 26 + 2 + len(self.origin.encode("utf-8"))


class SpanRecord(tuple, Framed):
    """One finished span as exported to the collector.

    ``seq`` is the minting peer's local monotone counter (the exporter's
    cursor key — ring eviction shows up as a ``seq`` gap); ``parent_id``
    is :data:`NO_PARENT` for a root: a sampled ``publish``, or a local
    span whose bundle arrived untraced.

    Fields: ``trace_id``, ``span_id``, ``parent_id``, ``seq`` and
    ``hop`` (ints); ``peer``, ``origin`` and ``kind`` (strs); ``start``
    and ``end`` (simulated seconds); ``stage_path`` and ``stamps``.  An
    immutable slotted record (a tuple, fields by name) with no
    per-instance ``__dict__``: every span a peer finishes is one, and the
    rings and the collector keep thousands.  Its marks are built with
    ``marks=`` and read back as :attr:`marks` — ``(stage,
    simulated-time)`` pairs — but held as two tuples: ``stage_path``,
    the stage names in order (one object per distinct path, shared by
    every span that took it), and ``stamps``, the times.  So a finished
    span is two objects, not one per mark.
    """

    __slots__ = ()

    trace_id = property(itemgetter(0))
    span_id = property(itemgetter(1))
    parent_id = property(itemgetter(2))
    seq = property(itemgetter(3))
    peer = property(itemgetter(4))
    origin = property(itemgetter(5))
    kind = property(itemgetter(6))
    hop = property(itemgetter(7))
    start = property(itemgetter(8))
    end = property(itemgetter(9))
    stage_path = property(itemgetter(10))
    stamps = property(itemgetter(11))

    def __new__(
        cls,
        trace_id: int,
        span_id: int,
        parent_id: int,
        seq: int,
        peer: str,
        origin: str,
        kind: str,
        hop: int,
        start: float,
        end: float,
        marks: Marks = (),
    ) -> "SpanRecord":
        path = tuple(stage for stage, _ in marks)
        stamps = tuple(stamp for _, stamp in marks)
        fields = (trace_id, span_id, parent_id, seq, peer, origin, kind, hop, start, end)
        return tuple.__new__(cls, (*fields, path, stamps))

    def __getnewargs__(self) -> tuple:
        return (*self[:10], self.marks)

    @property
    def marks(self) -> Marks:
        """The ``(stage, simulated-time)`` trail, in mark order."""
        return tuple(zip(self.stage_path, self.stamps))

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def local(self) -> bool:
        """A local root: its bundle arrived untraced, so it belongs to no
        propagation tree (a sampled ``publish`` root does)."""
        return self.parent_id == NO_PARENT and self.kind != PUBLISH

    def stages(self) -> Iterator[tuple[str, float]]:
        """Consecutive-mark deltas: this span's (stage, seconds) waterfall."""
        stamps = self.stamps
        return zip(
            itertools.islice(self.stage_path, 1, None),
            map(sub, itertools.islice(stamps, 1, None), stamps),
        )

    def _write_body(self, w: Writer, refs: Symbols) -> None:
        """Flags (local root 1, end repeats 2), seq, span id, peer, kind;
        unless a local root, trace id (16 bytes), parent (8), hop, origin;
        start; the stages, counted; a mask with bit i set when stamp i's bytes
        equal the one before (start, for the first); the stamps not masked."""
        trace_id, span_id, parent_id, seq, peer, origin, kind, hop, start, end, path, stamps = self
        pack = _STAMP.pack
        previous = first = pack(start)
        value, mask, bit, kept = start, 0, 1, []
        for stamp in (*stamps, end):
            # Equal non-zero floats have equal bytes; zeros and NaNs compare bytes.
            if stamp == value and stamp or (packed := pack(stamp)) == previous:
                mask |= bit
            else:
                kept.append(packed)
                previous, value = packed, stamp
            bit <<= 1
        local, count = parent_id == NO_PARENT and _is_local_root(self[:8]), len(stamps)
        w += bytes((local | (mask >> count) << 1,)), varint(seq), varint(span_id), refs[peer]
        w.raw(refs[kind])
        if not local:
            w += trace_id.to_bytes(16, "big") + parent_id.to_bytes(8, "big"), varint(hop)
            w.raw(refs[origin])
        w += first, varint(count)
        w.extend(map(refs.__getitem__, path))
        w.raw(varint(mask & ~(1 << count), count))
        w.extend(kept)

    @classmethod
    def _read_body(cls, r: Reader, symbol: Symbol) -> "SpanRecord":
        (flags,) = r.raw(1)
        seq, span_id, peer, kind = r.varint(), r.varint(), symbol(), symbol()
        if flags & 1:
            trace_id, parent_id, hop, origin = local_prefix(peer) | span_id, NO_PARENT, 0, peer
        else:
            trace_id, parent_id = int.from_bytes(r.raw(16), "big"), int.from_bytes(r.raw(8), "big")
            hop, origin = r.varint(), symbol()
        fields = (trace_id, span_id, parent_id, seq, peer, origin, kind, hop)
        if flags >> 2 or (flags & 1) != _is_local_root(fields):
            raise ProtocolError(f"span flags {flags:#04x} are not the ones its ids call for")
        times = [r.raw(8)]
        path = tuple(symbol() for _ in range(r.varint()))
        mask = r.varint(len(path)) | (flags >> 1) << len(path)
        for bit in range(len(path) + 1):
            written = not mask >> bit & 1
            times.append(r.raw(8) if written else times[-1])
            if written and times[-1] == times[-2]:
                raise ProtocolError("a repeated stamp written in full")
        start, *stamps, end = (value for (value,) in _STAMP.iter_unpack(b"".join(times)))
        return tuple.__new__(cls, (*fields, start, end, path, tuple(stamps)))


_SPAN_FIELDS = (
    "trace_id", "span_id", "parent_id", "seq", "peer", "origin", "kind", "hop",
    "start", "end", "stage_path", "stamps",
)

#: A stage path and the histograms its consecutive-mark deltas fold into.
_Path = tuple[tuple[str, ...], tuple[Histogram, ...]]


class ActiveSpan:
    """A live span: ids fixed at :meth:`DistTracer.begin`, marks stamped since.

    ``stages`` and ``stamps`` are the (stage, simulated-time) trail; a
    span minted by ``begin`` carries its start as the first mark, so
    stage durations are always deltas between *consecutive* marks and a
    verdict that short-circuits (gate drop, cache hit) simply has fewer
    of them.
    """

    __slots__ = (
        "kind", "trace_id", "span_id", "parent_id", "hop", "origin",
        "start", "stages", "stamps", "_clock",
    )

    def __init__(
        self,
        kind: str,
        trace_id: int,
        span_id: int,
        parent_id: int,
        hop: int,
        origin: str,
        clock: Callable[[], float],
    ) -> None:
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.hop = hop
        self.origin = origin
        self._clock = clock
        self.start = clock()
        self.stages: list[str] = []
        self.stamps: list[float] = []

    @property
    def context(self) -> SpanContext:
        """What a message (or request) carries to hang work under this span."""
        return SpanContext(self.trace_id, self.span_id, self.hop, self.origin)

    def mark(self, stage: str) -> None:
        """Stamp ``stage`` as completed now (simulated clock)."""
        self.stages.append(stage)
        self.stamps.append(self._clock())


class NullTrace:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def mark(self, stage: str) -> None:
        return None


NULL_TRACE = NullTrace()


class DistTracer:
    """One peer's span mint, ring buffer, and route table."""

    enabled = True

    def __init__(
        self,
        peer_id: str,
        *,
        registry: "MetricsRegistry | NullRegistry" = NULL_REGISTRY,
        sample: float = 0.0,
        clock: Callable[[], float] | None = None,
        capacity: int = 256,
        route_capacity: int = 4096,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ProtocolError(f"trace_sample must be in [0, 1], got {sample}")
        self.peer_id = peer_id
        self.registry = registry
        self.sample = sample
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        #: Local roots take their ids from a counter under this peer's
        #: 64-bit prefix: unique fleet-wide without hashing per bundle,
        #: and sampled traces keep the ids they would have had alone.
        self._local_prefix = local_prefix(peer_id)
        # Dedicated sampling RNG: drawing from a shared router RNG would
        # perturb mesh shuffles and break every bit-identity comparison.
        self._rng = random.Random(self._local_prefix >> 64)
        self._mint = itertools.count()
        self._local = itertools.count(1)
        self._seq = itertools.count()
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        #: msg_id -> the context *this* peer forwards (its own span as
        #: parent), written at ingress, read by the router's rewriter.
        self._outbound: dict[bytes, SpanContext] = {}
        self._outbound_order: deque[bytes] = deque()
        self._route_capacity = route_capacity
        #: Live revocation-case contexts, keyed by whatever the caller
        #: uses to correlate (the evidence's (nullifier, epoch) case).
        self._revocations: dict[object, SpanContext] = {}
        self._revocation_order: deque[object] = deque()
        #: Contexts the rewriter could not resolve (route table evicted):
        #: the trace is truncated rather than misattributed.
        self.rewrites_missed = 0
        #: What :meth:`finish` needs per kind: for each stage path a span
        #: took, the path itself (one shared tuple) and the histograms its
        #: consecutive-mark deltas fold into, in order; and the kind's
        #: total and count.  Safe to keep: ``registry`` is fixed at
        #: construction and a registry never drops a series.
        self._paths: dict[str, dict[tuple[str, ...], _Path]] = {}
        self._kind_series: dict[str, tuple[Histogram, Counter]] = {}

    # -- id minting ------------------------------------------------------------

    def _mint_id(self, width: int) -> int:
        seed = f"{self.peer_id}:{next(self._mint)}".encode()
        return int.from_bytes(hashlib.sha256(seed).digest()[:width], "big") or 1

    # -- span lifecycle ---------------------------------------------------------

    def begin_publish(self) -> ActiveSpan | None:
        """Head-sampling decision + root span mint (None: not sampled).

        The root covers publish intent to mesh injection — for a light
        member the witness fetch too (it rides as a linked child), so the
        root's duration is the member-observed publish cost.
        """
        if self.sample <= 0.0:
            return None
        if self.sample < 1.0 and self._rng.random() >= self.sample:
            return None
        return ActiveSpan(
            PUBLISH, self._mint_id(16), self._mint_id(8), NO_PARENT, 0,
            self.peer_id, self.clock,
        )

    def begin(
        self,
        kind: str = "bundle",
        *,
        parent: SpanContext | None = None,
        key: bytes | None = None,
    ) -> ActiveSpan:
        """Open a span at the current simulated instant.

        With an inbound ``parent`` the span is that hop's child, and
        ``key`` (the pubsub msg id) registers the context the router's
        trace rewriter forwards: it carries *this* peer's new span id, so
        downstream spans attach to the true causal parent.  Without one
        the span is a *local* root — never in the route table, never on
        a relayed message — so an unsampled bundle costs no wire bytes.
        """
        if parent is None:
            number = next(self._local)
            span = ActiveSpan(
                kind, self._local_prefix | number, number, NO_PARENT, 0,
                self.peer_id, self.clock,
            )
        else:
            span = ActiveSpan(
                kind, parent.trace_id, self._mint_id(8), parent.span_id,
                parent.child_hop(), parent.origin, self.clock,
            )
            if key is not None:
                if key not in self._outbound:
                    self._outbound_order.append(key)
                    if len(self._outbound_order) > self._route_capacity:
                        self._outbound.pop(self._outbound_order.popleft(), None)
                self._outbound[key] = span.context
        span.stages.append(INGRESS if kind == "bundle" else EVIDENCE)
        span.stamps.append(span.start)
        return span

    def finish(self, span: ActiveSpan) -> SpanRecord:
        """Close ``span`` now: archive its record, fold its stage deltas.

        Publish roots are head-sampled, so they are archived but never
        folded — the stage histograms count every bundle, not a sample.
        The fold is one pass over the marks, in mark order: each
        consecutive-mark delta goes to its stage's histogram.
        """
        kind, start, end, stamps = span.kind, span.start, self.clock(), tuple(span.stamps)
        path, series = self._path(kind, tuple(span.stages))
        # Stored fields as they are: there are no ``marks`` pairs to split.
        record = tuple.__new__(SpanRecord, (
            span.trace_id, span.span_id, span.parent_id, next(self._seq),
            self.peer_id, span.origin, kind, span.hop, start, end, path, stamps,
        ))
        self._ring.append(record)
        if kind == PUBLISH:
            return record
        if stamps:
            previous = stamps[0]
            for histogram, stamp in zip(series, itertools.islice(stamps, 1, None)):
                histogram.observe(stamp - previous)
                previous = stamp
        totals = self._kind_series.get(kind)
        if totals is None:
            totals = self._kind_series[kind] = (
                self.registry.histogram("trace_total_seconds", kind=kind),
                self.registry.counter("traces_finished_total", kind=kind),
            )
        total, finished = totals
        total.observe(end - start)
        finished.inc()
        return record

    def _path(self, kind: str, stages: tuple[str, ...]) -> "_Path":
        """The shared copy of ``stages`` and the stage histograms a span
        of ``kind`` that took it folds into (none for a publish root)."""
        paths = self._paths.get(kind)
        if paths is None:
            paths = self._paths[kind] = {}
        known = paths.get(stages)
        if known is None:
            series: tuple[Histogram, ...] = ()
            if kind != PUBLISH:
                series = tuple(
                    self.registry.histogram("trace_stage_seconds", kind=kind, stage=stage)
                    for stage in stages[1:]
                )
            known = paths[stages] = (stages, series)
        return known

    def link(
        self,
        parent: SpanContext,
        *,
        kind: str,
        start: float,
        end: float,
    ) -> SpanContext:
        """Record a linked leaf span (witness fetch, evidence, …) and
        return its context so follow-up work can hang further spans."""
        span_id = self._mint_id(8)
        self._ring.append(
            SpanRecord(
                trace_id=parent.trace_id,
                span_id=span_id,
                parent_id=parent.span_id,
                seq=next(self._seq),
                peer=self.peer_id,
                origin=parent.origin,
                kind=kind,
                hop=parent.hop,
                start=start,
                end=end,
            )
        )
        return SpanContext(parent.trace_id, span_id, parent.hop, parent.origin)

    # -- routing ----------------------------------------------------------------

    def outbound_context(self, key: bytes) -> SpanContext | None:
        return self._outbound.get(key)

    # -- revocation correlation --------------------------------------------------

    def set_revocation_context(self, key: object, ctx: SpanContext) -> None:
        if key not in self._revocations:
            self._revocation_order.append(key)
            if len(self._revocation_order) > 256:
                self._revocations.pop(self._revocation_order.popleft(), None)
        self._revocations[key] = ctx

    def revocation_context(self, key: object) -> SpanContext | None:
        return self._revocations.get(key)

    # -- export -----------------------------------------------------------------

    def recent(self, kind: str | None = None) -> tuple[SpanRecord, ...]:
        """The ring's contents, oldest first (optionally one kind only)."""
        if kind is None:
            return tuple(self._ring)
        return tuple(record for record in self._ring if record.kind == kind)

    def finished_since(self, seq: int) -> list[SpanRecord]:
        """The ring's records newer than ``seq``, oldest first.

        Read from the newest end back, so a caller that keeps a cursor
        pays for what is new, not for the ring.  The first record's
        ``seq`` shows how many were evicted unread.
        """
        fresh: list[SpanRecord] = []
        for record in reversed(self._ring):
            if record.seq <= seq:
                break
            fresh.append(record)
        fresh.reverse()
        return fresh


class NullDistTracer:
    """The disabled twin: mints nothing, routes nothing, keeps nothing."""

    enabled = False
    sample = 0.0
    peer_id = ""
    rewrites_missed = 0
    clock = staticmethod(lambda: 0.0)

    def begin_publish(self) -> None:
        return None

    def begin(self, kind: str = "bundle", *, parent=None, key=None) -> NullTrace:
        return NULL_TRACE

    def finish(self, span: object) -> None:
        return None

    def link(self, parent: object, **kwargs: object) -> None:
        return None

    def outbound_context(self, key: object) -> None:
        return None

    def set_revocation_context(self, key: object, ctx: object) -> None:
        return None

    def revocation_context(self, key: object) -> None:
        return None

    def recent(self, kind: str | None = None) -> tuple[SpanRecord, ...]:
        return ()


NULL_DISTTRACER = NullDistTracer()


# -- assembly (collector side) -------------------------------------------------


@dataclass
class PropagationTree:
    """One trace's spans stitched into a rooted causal tree."""

    trace_id: int
    root: SpanRecord
    spans: dict[int, SpanRecord]
    children: dict[int, tuple[SpanRecord, ...]]
    #: Every non-root span's parent resolved and exactly one root found.
    complete: bool = True

    # -- structure ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def hops(self) -> int:
        """Deepest relay hop in the tree (root is hop 0)."""
        return max((span.hop for span in self.relay_spans()), default=0)

    @property
    def peers(self) -> frozenset[str]:
        return frozenset(span.peer for span in self.spans.values())

    def relay_spans(self) -> tuple[SpanRecord, ...]:
        """The per-hop validation spans (publish root and linked leaves
        excluded)."""
        return tuple(
            span
            for span in self.spans.values()
            if span.parent_id != NO_PARENT and span.kind not in LINKED_KINDS
        )

    def fanout(self, span_id: int) -> int:
        """Relay fan-out degree of one span (linked leaf spans excluded)."""
        return sum(
            1 for child in self.children.get(span_id, ())
            if child.kind not in LINKED_KINDS
        )

    @property
    def max_fanout(self) -> int:
        return max(
            (self.fanout(span_id) for span_id in self.spans), default=0
        )

    @property
    def duplicate_deliveries(self) -> int:
        """Relay spans beyond the first per peer — a peer that judged the
        same bundle twice (seen-cache expiry, IWANT refetch)."""
        seen: set[str] = set()
        duplicates = 0
        for span in self.relay_spans():
            if span.peer in seen:
                duplicates += 1
            else:
                seen.add(span.peer)
        return duplicates

    # -- latency -----------------------------------------------------------------

    @property
    def end_to_end(self) -> float:
        """Publish to the last relay verdict (the trace's full spread)."""
        ends = [span.end for span in self.relay_spans()]
        return (max(ends) - self.root.start) if ends else self.root.duration

    def critical_path(self) -> list[SpanRecord]:
        """Root → the last-finishing relay span, via parent links."""
        relay = self.relay_spans()
        if not relay:
            return [self.root]
        tip = max(relay, key=lambda span: (span.end, span.hop))
        path = [tip]
        while path[-1].parent_id != NO_PARENT:
            parent = self.spans.get(path[-1].parent_id)
            if parent is None:
                break
            path.append(parent)
        return list(reversed(path))

    # -- rendering ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "trace_id": f"{self.trace_id:032x}",
            "origin": self.root.peer,
            "complete": self.complete,
            "spans": self.span_count,
            "peers": len(self.peers),
            "hops": self.hops,
            "max_fanout": self.max_fanout,
            "duplicate_deliveries": self.duplicate_deliveries,
            "end_to_end_seconds": self.end_to_end,
            "critical_path": [
                {"peer": span.peer, "kind": span.kind, "hop": span.hop,
                 "start": span.start, "end": span.end}
                for span in self.critical_path()
            ],
            "tree": self._json_node(self.root),
        }

    def _json_node(self, span: SpanRecord) -> dict:
        return {
            "peer": span.peer,
            "kind": span.kind,
            "hop": span.hop,
            "start": span.start,
            "end": span.end,
            "children": [
                self._json_node(child)
                for child in sorted(
                    self.children.get(span.span_id, ()),
                    key=lambda s: (s.start, s.peer),
                )
            ],
        }

    def render(self) -> str:
        """Human-readable propagation tree (the example's output)."""
        lines: list[str] = []

        def walk(span: SpanRecord, depth: int) -> None:
            latency = span.start - self.root.start
            lines.append(
                f"{'  ' * depth}{span.peer:<12} {span.kind:<14} hop={span.hop} "
                f"+{latency * 1e3:7.2f}ms  ({span.duration * 1e3:.2f}ms)"
            )
            for child in sorted(
                self.children.get(span.span_id, ()), key=lambda s: (s.start, s.peer)
            ):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


#: Span kinds that are linked leaves, not relay hops (they never widen
#: the propagation tree's fan-out or delivery accounting).
LINKED_KINDS = frozenset(
    {"witness-fetch", "witness-serve", "evidence", "revocation"}
)


class TraceAssembler:
    """Stitch exported spans into propagation trees, fleet-wide."""

    def __init__(self) -> None:
        self._spans: dict[int, dict[int, SpanRecord]] = {}
        #: Retransmitted spans dropped on arrival (same trace + span id).
        self.duplicates = 0

    def add(self, record: SpanRecord) -> None:
        spans = self._spans.get(record.trace_id)
        if spans is None:
            spans = self._spans[record.trace_id] = {}
        if record.span_id in spans:
            self.duplicates += 1
            return
        spans[record.span_id] = record

    @property
    def span_count(self) -> int:
        return sum(len(spans) for spans in self._spans.values())

    def trace_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._spans))

    def spans(self, trace_id: int) -> tuple[SpanRecord, ...]:
        return tuple(
            sorted(self._spans.get(trace_id, {}).values(), key=lambda s: s.start)
        )

    def tree(self, trace_id: int) -> PropagationTree | None:
        """Assemble one trace; ``None`` when no root span arrived yet."""
        spans = self._spans.get(trace_id)
        if not spans:
            return None
        roots = [span for span in spans.values() if span.parent_id == NO_PARENT]
        if len(roots) != 1:
            return None
        children: dict[int, list[SpanRecord]] = {}
        complete = True
        for span in spans.values():
            if span.parent_id == NO_PARENT:
                continue
            if span.parent_id not in spans:
                complete = False
                continue
            children.setdefault(span.parent_id, []).append(span)
        return PropagationTree(
            trace_id=trace_id,
            root=roots[0],
            spans=dict(spans),
            children={k: tuple(v) for k, v in children.items()},
            complete=complete,
        )

    def trees(self) -> list[PropagationTree]:
        found = (self.tree(trace_id) for trace_id in self.trace_ids())
        return [tree for tree in found if tree is not None]

    # -- fleet latency ------------------------------------------------------------

    def latencies(self) -> list[float]:
        """Publish→verdict per relay span across every assembled trace."""
        out: list[float] = []
        for tree in self.trees():
            root_start = tree.root.start
            out.extend(span.end - root_start for span in tree.relay_spans())
        return out

    def quantiles(self) -> dict[str, float | int]:
        """Fleet publish→verdict p50/p99 from assembled traces."""
        samples = sorted(self.latencies())
        if not samples:
            return {"count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}

        def at(q: float) -> float:
            return samples[min(len(samples) - 1, int(q * len(samples)))]

        return {
            "count": len(samples),
            "p50": at(0.50),
            "p99": at(0.99),
            "max": samples[-1],
        }
