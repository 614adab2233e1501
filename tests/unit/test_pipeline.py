"""Unit tests for the composed ValidationPipeline (§III-F, staged)."""

import pytest

from repro.core.validator import ValidationOutcome
from repro.gossipsub.router import ValidationResult
from repro.net.simulator import Simulator
from repro.net.promise import Promise
from repro.pipeline.batch_verifier import VERDICT_CACHE_CAPACITY, BatchVerifier
from repro.pipeline.lru import BoundedLRU
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline, Verdict
from repro.pipeline.prefilter import MAX_PAYLOAD_BYTES
from repro.pipeline.ratelimit import BucketSpec
from repro.testing import RLN_TEST_EPOCH as EPOCH
from repro.waku.message import WakuMessage


def make_pipeline(rln_env, config=None, **kwargs) -> ValidationPipeline:
    return ValidationPipeline(
        rln_env.make_validator(),
        rln_env.prover,
        Simulator(),
        config or PipelineConfig(),
        **kwargs,
    )


def corrupt(message: WakuMessage) -> WakuMessage:
    return WakuMessage(
        payload=message.payload,
        content_topic=message.content_topic,
        rate_limit_proof=message.rate_limit_proof.forged_copy(),
    )


class TestSynchronousPath:
    def test_valid_message_accepted(self, rln_env):
        pipeline = make_pipeline(rln_env)
        verdict = pipeline.validate(
            "peer", rln_env.make_message(b"hello"), EPOCH, b"id1"
        )
        assert isinstance(verdict, Verdict)
        assert verdict.action is ValidationResult.ACCEPT
        assert verdict.outcome is ValidationOutcome.VALID
        assert pipeline.stats.admitted == 1

    def test_batch_size_one_matches_seed_validator_bitwise(self, rln_env):
        # The acceptance criterion: the same message stream through the
        # seed BundleValidator and through ValidationPipeline(batch_size=1)
        # produces identical outcome sequences and identical stats.
        spammer = rln_env.register(0x888)
        stream = [
            rln_env.make_message(b"valid"),
            WakuMessage(payload=b"bare", content_topic="t"),  # missing proof
            rln_env.make_message(b"stale", epoch=EPOCH - 50),
            corrupt(rln_env.make_message(b"forged")),
            rln_env.make_message(b"spam-1", member=spammer),
            rln_env.make_message(b"spam-2", member=spammer),  # same epoch: spam
        ]
        seed = rln_env.make_validator()
        pipeline = make_pipeline(rln_env)

        seed_outcomes, pipeline_outcomes = [], []
        for index, message in enumerate(stream):
            msg_id = b"id-%d" % index
            outcome, _ = seed.validate(message, EPOCH, msg_id)
            seed_outcomes.append(outcome)
            verdict = pipeline.validate("peer", message, EPOCH, msg_id)
            assert isinstance(verdict, Verdict)  # batch_size=1 never defers
            pipeline_outcomes.append(verdict.outcome)

        assert pipeline_outcomes == seed_outcomes
        assert pipeline.validator.stats.outcomes == seed.stats.outcomes
        assert pipeline.validator.stats.proofs_verified == seed.stats.proofs_verified

    def test_spam_verdict_carries_evidence(self, rln_env):
        pipeline = make_pipeline(rln_env)
        pipeline.validate("p", rln_env.make_message(b"one"), EPOCH, b"s1")
        verdict = pipeline.validate("p", rln_env.make_message(b"two"), EPOCH, b"s2")
        assert verdict.outcome is ValidationOutcome.SPAM
        assert verdict.evidence is not None
        assert verdict.action is ValidationResult.REJECT


class TestVerdictCache:
    def test_rebroadcast_never_reverifies(self, rln_env):
        pipeline = make_pipeline(rln_env)
        message = rln_env.make_message(b"cached")
        stats = pipeline.validator.stats
        pipeline.validate("p", message, EPOCH, b"first-id")
        assert (stats.proofs_verified, stats.proofs_cached) == (1, 0)
        # The same bundle again, here under a different message id: the
        # verdict comes from the cache.
        verdict = pipeline.validate("p", message, EPOCH, b"second-id")
        assert (stats.proofs_verified, stats.proofs_cached) == (1, 1)
        assert pipeline.stats.drops == {"verdict-cache": 1}
        # The nullifier log still runs: same share twice is a duplicate.
        assert verdict.outcome is ValidationOutcome.DUPLICATE

    def test_negative_verdicts_cached_too(self, rln_env):
        pipeline = make_pipeline(rln_env)
        bad = corrupt(rln_env.make_message(b"bad"))
        assert (
            pipeline.validate("p", bad, EPOCH, b"b1").outcome
            is ValidationOutcome.INVALID_PROOF
        )
        verdict = pipeline.validate("p", bad, EPOCH, b"b2")
        assert verdict.outcome is ValidationOutcome.INVALID_PROOF
        assert pipeline.stats.drops == {"verify": 1, "verdict-cache": 1}
        stats = pipeline.validator.stats
        assert (stats.proofs_verified, stats.proofs_cached) == (1, 1)

    def test_cache_bounded_lru(self, rln_env):
        checker = BatchVerifier(rln_env.prover, cache=BoundedLRU(2))
        for i in range(4):
            message = rln_env.make_message(b"m%d" % i, epoch=EPOCH + i)
            assert checker.check_deferred(message).value is True
        assert checker.verified == 4 and len(checker.cache) == 2
        assert make_pipeline(rln_env).batch_verifier.cache.capacity == VERDICT_CACHE_CAPACITY


class TestRateLimit:
    def test_overflow_ignored_with_behaviour_penalty_only(self, rln_env):
        penalized = []
        config = PipelineConfig(
            peer_bucket=BucketSpec(capacity=2.0, refill_per_second=1.0),
            topic_bucket=None,
        )
        pipeline = make_pipeline(
            rln_env,
            config,
            on_shed=lambda sender, _, penalise: penalise and penalized.append(sender),
        )
        for i in range(3):
            verdict = pipeline.validate(
                "flooder", rln_env.make_message(b"f%d" % i, epoch=EPOCH + i),
                EPOCH + i, b"f%d" % i, now=0.0,
            )
        # IGNORE, not REJECT: the router must not stack an invalid-message
        # penalty on content whose validity was never checked.
        assert verdict.action is ValidationResult.IGNORE
        assert verdict.outcome is None  # pipeline-only drop
        assert pipeline.stats.rate_limited == 1
        assert penalized == ["flooder"]
        # Pipeline-only drops leave the §III-F stats untouched.
        assert pipeline.validator.stats.count(ValidationOutcome.VALID) == 2

    def test_topic_bucket_overflow_carries_no_penalty(self, rln_env):
        # A shared topic-bucket denial is aggregate back-pressure, not the
        # forwarder's misbehaviour: no GossipSub penalty may be applied.
        penalized = []
        config = PipelineConfig(
            peer_bucket=None,
            topic_bucket=BucketSpec(capacity=1.0, refill_per_second=0.001),
        )
        pipeline = make_pipeline(
            rln_env,
            config,
            on_shed=lambda sender, _, penalise: penalise and penalized.append(sender),
        )
        pipeline.validate("alice", rln_env.make_message(b"a"), EPOCH, b"1", now=0.0)
        verdict = pipeline.validate(
            "bob", rln_env.make_message(b"b", epoch=EPOCH + 1), EPOCH + 1, b"2", now=0.0
        )
        assert verdict.action is ValidationResult.IGNORE
        assert pipeline.stats.rate_limited == 1
        assert penalized == []

    def test_rate_limited_message_can_retry_after_refill(self, rln_env):
        config = PipelineConfig(
            peer_bucket=BucketSpec(capacity=1.0, refill_per_second=1.0),
            topic_bucket=None,
        )
        pipeline = make_pipeline(rln_env, config)
        pipeline.validate("p", rln_env.make_message(b"warm"), EPOCH, b"w", now=0.0)
        throttled = rln_env.make_message(b"throttled", epoch=EPOCH + 1)
        dropped = pipeline.validate("p", throttled, EPOCH + 1, b"retry-id", now=0.0)
        assert dropped.action is ValidationResult.IGNORE
        # The pipeline keeps no per-id state: once the bucket refills, the
        # retry is validated, not treated as a replay.
        retried = pipeline.validate("p", throttled, EPOCH + 1, b"retry-id", now=5.0)
        assert retried.outcome is ValidationOutcome.VALID

    def test_rate_limited_message_costs_no_pairings(self, rln_env):
        config = PipelineConfig(
            peer_bucket=BucketSpec(capacity=1.0, refill_per_second=0.001),
            topic_bucket=None,
        )
        pipeline = make_pipeline(rln_env, config)
        pipeline.validate("p", rln_env.make_message(b"ok"), EPOCH, b"1", now=0.0)
        counter = rln_env.prover.pairing_counter
        counter.reset()
        pipeline.validate("p", rln_env.make_message(b"no"), EPOCH, b"2", now=0.0)
        assert counter.evaluations == 0


class TestPrefilterIntegration:
    def test_seed_vocabulary_gates_recorded_in_validator_stats(self, rln_env):
        pipeline = make_pipeline(rln_env)
        stats = pipeline.validator.stats
        pipeline.validate(
            "p", WakuMessage(payload=b"bare", content_topic="t"), EPOCH, b"1"
        )
        pipeline.validate(
            "p", rln_env.make_message(b"old", epoch=EPOCH - 50), EPOCH, b"2"
        )
        assert stats.count(ValidationOutcome.MISSING_PROOF) == 1
        assert stats.count(ValidationOutcome.INVALID_EPOCH_GAP) == 1

    def test_pipeline_only_gates_do_not_touch_validator_stats(self, rln_env):
        pipeline = make_pipeline(rln_env)
        verdict = pipeline.validate(
            "p", rln_env.make_message(bytes(MAX_PAYLOAD_BYTES + 1)), EPOCH, b"1"
        )
        assert verdict.action is ValidationResult.REJECT
        assert verdict.outcome is None
        assert sum(pipeline.validator.stats.outcomes.values()) == 0

    def test_duplicate_id_ignored_silently(self, rln_env):
        # A repeated id that got past the router's seen-cache (expired, or
        # un-witnessed after a rate-limit shed) is judged once more: the
        # proof verdict comes from the cache and the nullifier log calls
        # it a DUPLICATE — IGNORE, no penalty, no pairing work.
        pipeline = make_pipeline(rln_env)
        stats = pipeline.validator.stats
        message = rln_env.make_message(b"dup")
        pipeline.validate("p", message, EPOCH, b"same")
        counter = rln_env.prover.pairing_counter
        before = counter.evaluations
        verdict = pipeline.validate("p", message, EPOCH, b"same")
        assert verdict.action is ValidationResult.IGNORE
        assert verdict.outcome is ValidationOutcome.DUPLICATE
        assert pipeline.stats.drops == {"verdict-cache": 1}
        assert counter.evaluations == before
        assert stats.count(ValidationOutcome.DUPLICATE) == 1
        assert (stats.proofs_verified, stats.proofs_cached) == (1, 1)


class TestDeferredPath:
    def test_partial_batch_defers_to_the_instant_end(self, rln_env):
        simulator = Simulator()
        pipeline = ValidationPipeline(
            rln_env.make_validator(),
            rln_env.prover,
            simulator,
            PipelineConfig(batch_size=4),
        )
        result = pipeline.validate("p", rln_env.make_message(b"solo"), EPOCH, b"1")
        assert isinstance(result, Promise)
        assert not result.resolved
        assert pipeline.stats.deferred == 1
        simulator.run(until=0.0)  # the inline executor is always free
        assert result.resolved
        assert result.value.outcome is ValidationOutcome.VALID

    def test_a_full_batch_resolves_at_the_instant_end(self, rln_env):
        simulator = Simulator()
        pipeline = ValidationPipeline(
            rln_env.make_validator(),
            rln_env.prover,
            simulator,
            PipelineConfig(batch_size=2),
        )
        first = pipeline.validate("p", rln_env.make_message(b"a"), EPOCH, b"1")
        # Filling the batch does not close it: both wait for the instant's end.
        second = pipeline.validate(
            "p", rln_env.make_message(b"b", epoch=EPOCH + 1), EPOCH, b"2"
        )
        assert isinstance(first, Promise) and isinstance(second, Promise)
        assert not first.resolved and not second.resolved
        simulator.run(until=0.0)
        assert first.value.outcome is ValidationOutcome.VALID
        assert second.value.outcome is ValidationOutcome.VALID
        assert pipeline.batch_verifier.stats.batches_verified == 1

    def test_duplicate_inside_batch_window_classifies_as_duplicate(self, rln_env):
        # Through the router this cannot happen (identical bundle implies
        # identical msg_id, suppressed by the seen-cache/dedup LRU), but a
        # direct caller submitting the same bundle twice inside one batch
        # window must still converge on the seed's DUPLICATE verdict.
        simulator = Simulator()
        pipeline = ValidationPipeline(
            rln_env.make_validator(),
            rln_env.prover,
            simulator,
            PipelineConfig(batch_size=8),
        )
        message = rln_env.make_message(b"twin")
        first = pipeline.validate("p", message, EPOCH, b"id-a")
        second = pipeline.validate("p", message, EPOCH, b"id-b")
        simulator.run(until=0.1)
        assert first.value.outcome is ValidationOutcome.VALID
        assert second.value.outcome is ValidationOutcome.DUPLICATE

    def test_subscriber_fires_on_late_resolution(self, rln_env):
        simulator = Simulator()
        pipeline = ValidationPipeline(
            rln_env.make_validator(),
            rln_env.prover,
            simulator,
            PipelineConfig(batch_size=4),
        )
        result = pipeline.validate("p", rln_env.make_message(b"sub"), EPOCH, b"1")
        landed = []
        result.subscribe(lambda verdict: landed.append(verdict.outcome))
        simulator.run(until=0.1)
        assert landed == [ValidationOutcome.VALID]
