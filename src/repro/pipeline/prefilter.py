"""Pipeline stage 1 — stateless ingress gates plus a per-topic dedup LRU.

Maps onto the *front* of the §III-F routing decision: everything here runs
before any field arithmetic, so an invalid-proof flood (experiment E10/E11)
that fails these gates costs a routing peer only integer comparisons and a
hash-table probe:

* **framing** — the message must be a well-formed Waku message carrying a
  well-formed :class:`~repro.core.messages.RateLimitProof` bundle (§III-E's
  ``(m, (x, y), phi, epoch, tau, pi)``; a missing bundle is §III-F's
  implicit "no proof, no relay" drop);
* **size** — payloads over the configured ceiling are dropped before they
  are hashed (``x = H(m)`` later in the pipeline costs per-byte work);
* **epoch window** — §III-F item 1: more than ``Thr`` epochs from the local
  clock's epoch in either direction is dropped (integer subtraction only);
* **dedup** — a bounded per-topic LRU of message ids; a re-broadcast never
  reaches the rate limiter, let alone a pairing check.  This backstops the
  router's seen-cache for paths that bypass it (light push, store sync) and
  for ids the seen-cache already expired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.messages import RateLimitProof
from repro.errors import ProtocolError
from repro.pipeline.lru import BoundedLRU
from repro.waku.message import WakuMessage

#: Message ids the dedup LRU remembers per topic; a pipeline's prefilter
#: is this size.
DEDUP_CAPACITY = 4096

#: Largest payload a relayed bundle may carry (1 MiB); a pipeline's
#: prefilter drops anything bigger before any field arithmetic.
MAX_PAYLOAD_BYTES = 1 << 20


class PrefilterOutcome(Enum):
    """Verdict of the stateless gates, in the order they are applied."""

    PASS = "pass"
    MALFORMED = "malformed"
    MISSING_PROOF = "missing-proof"
    TOO_LARGE = "too-large"
    STALE_EPOCH = "stale-epoch"
    DUPLICATE_ID = "duplicate-id"

    def __init__(self, value: str) -> None:
        #: Index into per-gate tables (see ``ValidationOutcome.slot``).
        self.slot = len(type(self)._member_names_)


@dataclass
class PrefilterStats:
    """Per-gate drop counters (all drops here cost zero field operations)."""

    passed: int = 0
    #: Drops per gate, indexed by :attr:`PrefilterOutcome.slot` (PASS stays 0).
    counts: list[int] = field(default_factory=lambda: [0] * len(PrefilterOutcome))

    @property
    def dropped(self) -> dict[PrefilterOutcome, int]:
        """Drops per gate, every gate but PASS present."""
        return {
            outcome: self.counts[outcome.slot]
            for outcome in PrefilterOutcome
            if outcome is not PrefilterOutcome.PASS
        }

    def total_dropped(self) -> int:
        return sum(self.counts)


class DedupLRU:
    """Bounded per-topic LRU of message ids (one :class:`BoundedLRU` each).

    ``witness`` returns True when the id was already present (and refreshes
    its recency); insertion past capacity evicts the least-recently-seen id
    of that topic.  Allocation-free on the hot path beyond the id entry
    itself.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError("dedup capacity must be >= 1")
        self.capacity = capacity
        self._topics: dict[str, BoundedLRU[bytes, None]] = {}

    def witness(self, topic: str, msg_id: bytes) -> bool:
        """Record ``msg_id`` under ``topic``; True iff it was seen before."""
        lru = self._topics.get(topic)
        if lru is None:
            lru = self._topics[topic] = BoundedLRU(self.capacity)
        return lru.put(msg_id, None)  # a seen id is refreshed to most recent

    def forget(self, topic: str, msg_id: bytes) -> None:
        """Drop an id (a message witnessed but never actually judged)."""
        lru = self._topics.get(topic)
        if lru is not None:
            lru.discard(msg_id)

    def seen(self, topic: str, msg_id: bytes) -> bool:
        """Non-mutating membership probe."""
        lru = self._topics.get(topic)
        return lru is not None and msg_id in lru

    def size(self, topic: str) -> int:
        lru = self._topics.get(topic)
        return 0 if lru is None else len(lru)

    @property
    def evictions(self) -> int:
        """Total ids evicted across all topic LRUs."""
        return sum(lru.evictions for lru in self._topics.values())


class Prefilter:
    """The stateless gates plus the dedup LRU, applied in §III-F order."""

    def __init__(
        self,
        *,
        max_epoch_gap: int,
        max_payload_bytes: int = MAX_PAYLOAD_BYTES,
        dedup_capacity: int = DEDUP_CAPACITY,
    ) -> None:
        if max_epoch_gap < 1:
            raise ProtocolError("max_epoch_gap must be >= 1")
        if max_payload_bytes < 1:
            raise ProtocolError("max_payload_bytes must be >= 1")
        self.max_epoch_gap = max_epoch_gap
        self.max_payload_bytes = max_payload_bytes
        self.dedup = DedupLRU(dedup_capacity)
        self.stats = PrefilterStats()

    def check(
        self, message: object, local_epoch: int, msg_id: bytes, topic: str
    ) -> PrefilterOutcome:
        """Classify one incoming bundle against the cheap gates."""
        if not isinstance(message, WakuMessage) or not isinstance(
            message.payload, (bytes, bytearray)
        ):
            outcome = PrefilterOutcome.MALFORMED
        elif not isinstance(proof := message.rate_limit_proof, RateLimitProof):
            outcome = PrefilterOutcome.MISSING_PROOF
        elif len(message.payload) > self.max_payload_bytes:
            outcome = PrefilterOutcome.TOO_LARGE
        # §III-F item 1's core.epoch.epoch_gap, spelled out on the hot path.
        elif abs(local_epoch - proof.epoch) > self.max_epoch_gap:
            outcome = PrefilterOutcome.STALE_EPOCH
        elif self.dedup.witness(topic, msg_id):
            outcome = PrefilterOutcome.DUPLICATE_ID
        else:
            self.stats.passed += 1
            return PrefilterOutcome.PASS
        self.stats.counts[outcome.slot] += 1
        return outcome
