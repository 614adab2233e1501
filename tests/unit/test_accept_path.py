"""The accept path's degenerate parameterisation, and its shared verdicts.

At ``batch_size=1`` with zero lanes every proof check runs inline, so the
one front door (``BatchVerifier.check`` →
``SimulatedCryptoExecutor.submit``) hands back a plain ``bool``: no
promise, no in-flight entry, one executor job and one batch per fresh
receipt.  A batch window or a lane keeps the promise-and-join path.
Evidence-free verdicts are shared frozen constants; a spam verdict is
built per receipt, with that receipt's own evidence.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.validator import ValidationOutcome
from repro.crypto.field import FieldElement
from repro.exec.executor import Priority
from repro.gossipsub.router import ValidationResult
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.pipeline import (
    _SHARED_VERDICTS,
    PipelineConfig,
    ValidationPipeline,
    Verdict,
)
from repro.testing import RLN_TEST_EPOCH as EPOCH
from repro.waku.message import WakuMessage


def make_pipeline(rln_env, **config) -> ValidationPipeline:
    return ValidationPipeline(
        rln_env.make_validator(), rln_env.prover, Simulator(), PipelineConfig(**config)
    )


class SpyDict(dict):
    """An in-flight table that counts its writes."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


@pytest.fixture()
def promises_made(monkeypatch) -> Counter:
    """Promises constructed during the test, by class."""
    made: Counter = Counter()
    original = Promise.__init__

    def counting(self) -> None:
        made[type(self).__name__] += 1
        original(self)

    monkeypatch.setattr(Promise, "__init__", counting)
    return made


def corrupt(message: WakuMessage) -> WakuMessage:
    return replace(message, rate_limit_proof=message.rate_limit_proof.forged_copy())


def work_done(pipeline: ValidationPipeline) -> tuple[int, int]:
    return (
        pipeline.executor.stats.jobs_submitted,
        pipeline.batch_verifier.stats.batches_verified,
    )


class TestStraightThrough:
    def test_default_path_allocates_no_promise_and_no_in_flight_entry(
        self, rln_env, promises_made
    ):
        pipeline = make_pipeline(rln_env)
        checker = pipeline.batch_verifier
        checker._in_flight = spy = SpyDict()
        honest = rln_env.make_message(b"honest")
        fresh = [
            (honest, b"a"),
            (rln_env.make_message(b"other", epoch=EPOCH + 1), b"b"),
            (corrupt(rln_env.make_message(b"forged")), b"c"),
        ]
        for message, msg_id in fresh:
            before = work_done(pipeline)
            verdict = pipeline.validate("p", message, EPOCH, msg_id)
            assert isinstance(verdict, Verdict)
            # One executor job, one batch, per fresh receipt.
            after = work_done(pipeline)
            assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
        # A cache hit does no work at all.
        before = work_done(pipeline)
        cached = pipeline.validator.stats.proofs_cached
        pipeline.validate("p", honest, EPOCH, b"d")
        assert work_done(pipeline) == before
        assert pipeline.validator.stats.proofs_cached == cached + 1
        # The front door itself answers with the value, on either class.
        for priority in (Priority.RELAY, Priority.SERVICE):
            bundle = rln_env.make_message(b"direct-%d" % priority).rate_limit_proof
            verdict, fresh_check = checker.check(bundle, priority=priority)
            assert verdict is True and fresh_check
        assert spy.writes == 0
        assert not promises_made

    @pytest.mark.parametrize("config", [{"batch_size": 8}, {"workers": 1}])
    def test_a_window_or_a_lane_keeps_the_promise_and_join_path(
        self, rln_env, promises_made, config
    ):
        pipeline = make_pipeline(rln_env, **config)
        checker = pipeline.batch_verifier
        checker._in_flight = spy = SpyDict()
        bundle = rln_env.make_message(b"in-flight").rate_limit_proof
        first, fresh = checker.check(bundle, priority=Priority.RELAY)
        joined, joined_fresh = checker.check(bundle)
        assert isinstance(first, Promise) and not first.resolved
        assert joined is first and fresh and not joined_fresh
        assert spy.writes == 1 and promises_made["Promise"] >= 1
        pipeline.close()  # lands it
        assert first.value is True and not checker._in_flight


def expected_action(outcome: ValidationOutcome) -> ValidationResult:
    if outcome is ValidationOutcome.VALID:
        return ValidationResult.ACCEPT
    if outcome is ValidationOutcome.DUPLICATE:
        return ValidationResult.IGNORE
    return ValidationResult.REJECT


class TestSharedVerdicts:
    def test_every_shared_verdict_equals_a_freshly_built_one(self):
        # One instance per outcome, whichever stage concluded the bundle.
        assert len(_SHARED_VERDICTS) == len(ValidationOutcome) == 8
        assert len({id(shared) for shared in _SHARED_VERDICTS}) == 8
        for outcome in ValidationOutcome:
            shared = _SHARED_VERDICTS[outcome.slot]
            assert shared == Verdict(expected_action(outcome), outcome)

    def test_the_pipeline_hands_out_the_shared_instances(self, rln_env):
        pipeline = make_pipeline(rln_env)
        honest = rln_env.make_message(b"honest")
        forged = corrupt(rln_env.make_message(b"forged"))
        stray_root = replace(
            honest.rate_limit_proof, root=FieldElement(0x5EED)
        )
        stream = [
            honest,  # VALID, verify
            honest,  # DUPLICATE, verdict-cache
            forged,  # INVALID_PROOF, verify
            forged,  # INVALID_PROOF, verdict-cache
            WakuMessage(payload=b"bare", content_topic="t"),  # MISSING_PROOF
            rln_env.make_message(b"stale", epoch=EPOCH - 50),  # INVALID_EPOCH_GAP
            replace(honest, rate_limit_proof=stray_root),  # UNKNOWN_ROOT
            replace(honest, payload=b"swapped"),  # PAYLOAD_MISMATCH
        ]
        emitted = set()
        for index, message in enumerate(stream):
            verdict = pipeline.validate("p", message, EPOCH, b"id-%d" % index)
            assert verdict == Verdict(expected_action(verdict.outcome), verdict.outcome)
            assert verdict is _SHARED_VERDICTS[verdict.outcome.slot]
            emitted.add(verdict.outcome)
        assert emitted == set(ValidationOutcome) - {ValidationOutcome.SPAM}
        assert pipeline.stats.drops == {
            "verdict-cache": 2, "verify": 1, "prefilter": 2, "cheap-checks": 2
        }

    def test_spam_verdicts_carry_their_own_evidence(self, rln_env):
        pipeline = make_pipeline(rln_env)
        spammer = rln_env.register(0x5BA)
        signals = [
            rln_env.make_message(b"signal-%d" % i, member=spammer) for i in range(3)
        ]
        verdicts = [
            pipeline.validate("p", message, EPOCH, b"s-%d" % i)
            for i, message in enumerate(signals)
        ]
        assert verdicts[0].outcome is ValidationOutcome.VALID
        first, second = verdicts[1:]
        shared = {id(verdict) for verdict in _SHARED_VERDICTS}
        for verdict, message in zip((first, second), signals[1:]):
            assert verdict.outcome is ValidationOutcome.SPAM
            assert id(verdict) not in shared
            assert verdict.evidence.share_a == signals[0].rate_limit_proof.share
            assert verdict.evidence.share_b == message.rate_limit_proof.share
        assert first is not second and first.evidence != second.evidence
