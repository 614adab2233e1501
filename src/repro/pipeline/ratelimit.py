"""Pipeline stage 2 — token buckets per peer and per topic.

RLN's proof-of-membership rate limit (one message per member per epoch,
§III-D) is enforced *after* proof verification; these buckets bound how
much verification work a single forwarding peer or topic can demand in the
first place.  That is the layer §IV's security analysis leaves to "peer
scoring": a neighbour that exceeds its budget is throttled before the
pairing check, and each overflow feeds a GossipSub behaviour penalty.
With scoring on, a persistent offender's score falls until the mesh
heartbeat prunes it and its GRAFTs are refused; with scoring off, its
bucket alone caps the verification work it can demand.

The buckets are deterministic and allocation-free on the hot path: fixed
``__slots__``, refill computed from the simulator clock handed in by the
caller (no wall-clock reads), one bucket per peer and one per topic created
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ProtocolError


class RateLimitVerdict(Enum):
    """Admission result, naming the tier that said no.

    The distinction matters for fairness: a per-peer denial is the
    forwarding peer's own doing (penalisable), while a shared topic-bucket
    denial is aggregate back-pressure that is nobody's fault in particular
    — penalising the unlucky forwarder would graylist honest peers.
    """

    ALLOWED = "allowed"
    PEER_LIMITED = "peer-limited"
    TOPIC_LIMITED = "topic-limited"


@dataclass(frozen=True)
class BucketSpec:
    """Token-bucket parameters: burst ``capacity``, steady ``refill_per_second``."""

    capacity: float
    refill_per_second: float

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.refill_per_second <= 0:
            raise ProtocolError("bucket capacity and refill rate must be positive")


class TokenBucket:
    """One deterministic token bucket (starts full)."""

    __slots__ = ("capacity", "refill_per_second", "tokens", "updated_at")

    def __init__(self, spec: BucketSpec, now: float = 0.0) -> None:
        self.capacity = spec.capacity
        self.refill_per_second = spec.refill_per_second
        self.tokens = spec.capacity
        self.updated_at = now

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Accrue tokens for the time elapsed since the last touch, then
        consume ``cost`` of them if available; False (no consumption)
        otherwise."""
        if now > self.updated_at:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self.updated_at) * self.refill_per_second,
            )
            self.updated_at = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def level(self, now: float) -> float:
        """Current token level after refill (observability only)."""
        self.allow(now, 0.0)
        return self.tokens


@dataclass
class RateLimitStats:
    """Admission counters, split by which bucket said no."""

    allowed: int = 0
    limited_by_peer: int = 0
    limited_by_topic: int = 0

    def total_limited(self) -> int:
        return self.limited_by_peer + self.limited_by_topic


class IngressRateLimiter:
    """Per-peer and per-topic buckets checked in that order.

    A denied admission does not roll back tokens already consumed from the
    peer bucket — conservative accounting, matching production limiters
    (partial rollback opens a probing side-channel on bucket levels).
    Either tier can be disabled by passing ``None`` for its spec.
    """

    def __init__(
        self,
        *,
        peer_spec: BucketSpec | None,
        topic_spec: BucketSpec | None,
    ) -> None:
        self.peer_spec = peer_spec
        self.topic_spec = topic_spec
        self.stats = RateLimitStats()
        self._peer_buckets: dict[str, TokenBucket] = {}
        self._topic_buckets: dict[str, TokenBucket] = {}

    def allow(
        self, peer: str, topic: str, now: float, cost: float = 1.0
    ) -> RateLimitVerdict:
        """Admit one message from ``peer`` on ``topic`` at simulated ``now``."""
        if self.peer_spec is not None:
            bucket = self._peer_buckets.get(peer)
            if bucket is None:
                bucket = self._peer_buckets[peer] = TokenBucket(self.peer_spec, now)
            if not bucket.allow(now, cost):
                self.stats.limited_by_peer += 1
                return RateLimitVerdict.PEER_LIMITED
        if self.topic_spec is not None:
            bucket = self._topic_buckets.get(topic)
            if bucket is None:
                bucket = self._topic_buckets[topic] = TokenBucket(self.topic_spec, now)
            if not bucket.allow(now, cost):
                self.stats.limited_by_topic += 1
                return RateLimitVerdict.TOPIC_LIMITED
        self.stats.allowed += 1
        return RateLimitVerdict.ALLOWED

    def prune(self, peers_alive: set[str], now: float) -> int:
        """Drop departed peers' buckets once fully refilled; returns count.

        A drained bucket still *remembers* misbehaviour: deleting it would
        hand a briefly-disconnecting attacker a fresh full-capacity burst
        on reconnect.  So departed peers' buckets are only swept once they
        have refilled to capacity — at which point the bucket carries no
        information and removal is free.  Memory stays bounded: any idle
        bucket becomes sweepable after ``capacity / refill_per_second``
        seconds.
        """
        stale = [
            peer
            for peer, bucket in self._peer_buckets.items()
            if peer not in peers_alive and bucket.level(now) >= bucket.capacity
        ]
        for peer in stale:
            del self._peer_buckets[peer]
        return len(stale)
