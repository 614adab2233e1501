"""Unit tests for pipeline stage 2: token-bucket ingress rate limiting."""

import random

import pytest

from repro.errors import ProtocolError
from repro.pipeline.ratelimit import (
    BucketSpec,
    IngressRateLimiter,
    RateLimitVerdict,
    TokenBucket,
)

ALLOWED = RateLimitVerdict.ALLOWED


class TestTokenBucket:
    def test_starts_full_and_burst_drains(self):
        bucket = TokenBucket(BucketSpec(capacity=4.0, refill_per_second=2.0))
        for _ in range(4):
            assert bucket.allow(now=0.0)
        assert not bucket.allow(now=0.0)

    def test_refill_math_is_rate_times_elapsed(self):
        bucket = TokenBucket(BucketSpec(capacity=4.0, refill_per_second=2.0))
        for _ in range(4):
            bucket.allow(now=0.0)
        # 1.0 s at 2 tokens/s accrues exactly 2 tokens.
        assert bucket.allow(now=1.0, cost=0.0) and bucket.tokens == pytest.approx(2.0)
        assert bucket.allow(now=1.0)
        assert bucket.allow(now=1.0)
        assert not bucket.allow(now=1.0)

    def test_refill_capped_at_capacity(self):
        bucket = TokenBucket(BucketSpec(capacity=4.0, refill_per_second=2.0))
        bucket.allow(now=0.0)
        assert bucket.allow(now=1000.0, cost=0.0) and bucket.tokens == pytest.approx(4.0)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(BucketSpec(capacity=4.0, refill_per_second=2.0), now=5.0)
        for _ in range(4):
            bucket.allow(now=5.0)
        # An earlier timestamp must not mint tokens (or crash).
        assert not bucket.allow(now=1.0)
        assert bucket.updated_at == 5.0

    def test_denied_consumes_nothing(self):
        bucket = TokenBucket(BucketSpec(capacity=2.0, refill_per_second=1.0))
        assert bucket.allow(now=0.0, cost=2.0)
        assert not bucket.allow(now=0.0, cost=1.0)
        # Half a second mints 0.5 tokens; a denied attempt must not have
        # pushed the level below zero meanwhile.
        assert bucket.allow(now=0.5, cost=0.0) and bucket.tokens == pytest.approx(0.5)

    def test_fractional_costs(self):
        bucket = TokenBucket(BucketSpec(capacity=1.0, refill_per_second=1.0))
        assert bucket.allow(now=0.0, cost=0.75)
        assert not bucket.allow(now=0.0, cost=0.5)
        assert bucket.allow(now=0.25, cost=0.5)

    def test_spec_validation(self):
        with pytest.raises(ProtocolError):
            BucketSpec(capacity=0.0, refill_per_second=1.0)
        with pytest.raises(ProtocolError):
            BucketSpec(capacity=1.0, refill_per_second=-1.0)


class TestIngressRateLimiter:
    def test_per_peer_isolation(self):
        limiter = IngressRateLimiter(
            peer_spec=BucketSpec(capacity=2.0, refill_per_second=1.0),
            topic_spec=None,
        )
        assert limiter.allow("alice", "t", now=0.0) is ALLOWED
        assert limiter.allow("alice", "t", now=0.0) is ALLOWED
        assert limiter.allow("alice", "t", now=0.0) is RateLimitVerdict.PEER_LIMITED
        # Bob has his own bucket.
        assert limiter.allow("bob", "t", now=0.0) is ALLOWED
        assert limiter.stats.limited_by_peer == 1
        assert limiter.stats.allowed == 3

    def test_topic_bucket_shared_across_peers(self):
        limiter = IngressRateLimiter(
            peer_spec=None,
            topic_spec=BucketSpec(capacity=2.0, refill_per_second=1.0),
        )
        assert limiter.allow("alice", "t", now=0.0) is ALLOWED
        assert limiter.allow("bob", "t", now=0.0) is ALLOWED
        assert limiter.allow("carol", "t", now=0.0) is RateLimitVerdict.TOPIC_LIMITED
        assert limiter.stats.limited_by_topic == 1

    def test_recovery_after_refill(self):
        limiter = IngressRateLimiter(
            peer_spec=BucketSpec(capacity=1.0, refill_per_second=1.0),
            topic_spec=None,
        )
        assert limiter.allow("alice", "t", now=0.0) is ALLOWED
        assert limiter.allow("alice", "t", now=0.5) is RateLimitVerdict.PEER_LIMITED
        assert limiter.allow("alice", "t", now=1.6) is ALLOWED

    def test_disabled_tiers_always_allow(self):
        limiter = IngressRateLimiter(peer_spec=None, topic_spec=None)
        for _ in range(100):
            assert limiter.allow("alice", "t", now=0.0) is ALLOWED

    def test_prune_drops_departed_peers_once_refilled(self):
        limiter = IngressRateLimiter(
            peer_spec=BucketSpec(capacity=2.0, refill_per_second=1.0),
            topic_spec=BucketSpec(capacity=2.0, refill_per_second=1.0),
        )
        limiter.allow("alice", "t", now=0.0)
        limiter.allow("bob", "t", now=1.5)
        # 2.0 s refills alice's one consumed token: her bucket is full
        # again and carries no information, so it can be swept; bob's and
        # the topic's are still half a token short.
        assert limiter.prune(now=2.0) == 1
        assert "alice" not in limiter._peer_buckets
        assert "bob" in limiter._peer_buckets and "t" in limiter._topic_buckets
        assert limiter.prune(now=2.5) == 2
        assert not limiter._peer_buckets and not limiter._topic_buckets

    def test_prune_keeps_drained_buckets_of_departed_peers(self):
        # Deleting a drained bucket would hand a reconnecting attacker a
        # fresh full burst: the bucket must survive until it refills.
        limiter = IngressRateLimiter(
            peer_spec=BucketSpec(capacity=4.0, refill_per_second=1.0),
            topic_spec=None,
        )
        for _ in range(4):
            limiter.allow("mallory", "t", now=0.0)
        assert limiter.prune(now=1.0) == 0
        bucket = limiter._peer_buckets["mallory"]
        assert (bucket.tokens, bucket.updated_at) == (0.0, 0.0)  # no refill stored
        assert limiter.prune(now=4.0) == 1
        assert "mallory" not in limiter._peer_buckets

    def test_sweeps_change_no_admission(self):
        # The same admissions, swept between each two and never swept.
        specs = dict(
            peer_spec=BucketSpec(capacity=3.0, refill_per_second=2.0),
            topic_spec=BucketSpec(capacity=5.0, refill_per_second=4.0),
        )
        swept, unswept = IngressRateLimiter(**specs), IngressRateLimiter(**specs)
        rng = random.Random(5)
        now, dropped = 0.0, 0
        for _ in range(2000):
            now += rng.choice((0.0, 0.05, 0.3, 1.1, 2.5))
            peer, topic, cost = rng.choice("abcd"), rng.choice("xy"), rng.choice((0.5, 1.0))
            assert swept.allow(peer, topic, now, cost) is unswept.allow(peer, topic, now, cost)
            dropped += swept.prune(now)
        assert dropped > 100 and swept.stats == unswept.stats
