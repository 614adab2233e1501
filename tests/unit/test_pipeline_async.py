"""The validation pipeline on worker lanes (workers >= 1) and its pinning.

The tentpole invariant: ``workers=0`` (the default) is bit-identical to
the inline path, while ``workers >= 1`` moves the pairing work onto the
:class:`~repro.exec.executor.SimulatedCryptoExecutor` — relay validate
calls return a promise of the verdict immediately and the verdicts land
at simulated completion time with *identical* contents.
"""

import pytest

from repro.core.validator import ValidationOutcome
from repro.errors import ProtocolError
from repro.exec.executor import Priority
from repro.gossipsub.router import ValidationResult
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline, Verdict
from repro.testing import RLN_TEST_EPOCH as EPOCH
from repro.waku.message import WakuMessage


def make_pipeline(rln_env, simulator=None, **config_kwargs):
    simulator = simulator or Simulator()
    return (
        ValidationPipeline(
            rln_env.make_validator(),
            rln_env.prover,
            simulator,
            PipelineConfig(**config_kwargs),
        ),
        simulator,
    )


def corrupt(message: WakuMessage) -> WakuMessage:
    return WakuMessage(
        payload=message.payload,
        content_topic=message.content_topic,
        rate_limit_proof=message.rate_limit_proof.forged_copy(),
    )


def stream(rln_env):
    """A mixed message stream: valid, proof-less, stale, forged, spam pair."""
    spammer = rln_env.register(0xA57C)
    return [
        rln_env.make_message(b"valid"),
        WakuMessage(payload=b"bare", content_topic="t"),
        rln_env.make_message(b"stale", epoch=EPOCH - 50),
        corrupt(rln_env.make_message(b"forged")),
        rln_env.make_message(b"spam-1", member=spammer),
        rln_env.make_message(b"spam-2", member=spammer),
    ]


def run_stream(rln_env, messages, **config_kwargs):
    """Outcome sequence + validator stats for a stream at one config."""
    pipeline, simulator = make_pipeline(rln_env, **config_kwargs)
    slots: list = [None] * len(messages)
    for index, message in enumerate(messages):
        result = pipeline.validate("peer", message, EPOCH, b"id-%d" % index)
        if isinstance(result, Promise):
            result.subscribe(lambda v, i=index: slots.__setitem__(i, v))
        else:
            slots[index] = result
    simulator.run_until_idle()
    assert all(isinstance(v, Verdict) for v in slots)
    return [v.outcome for v in slots], pipeline


class TestWorkersZeroPinned:
    def test_default_config_uses_the_inline_executor(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env)
        assert pipeline.executor.workers == 0
        verdict = pipeline.validate("p", rln_env.make_message(b"m"), EPOCH, b"i")
        assert isinstance(verdict, Verdict)  # never deferred
        assert simulator.pending_events == 0  # no executor events scheduled

    def test_workers_require_a_simulator(self, rln_env):
        with pytest.raises(ProtocolError, match="simulator"):
            ValidationPipeline(
                rln_env.make_validator(),
                rln_env.prover,
                None,
                PipelineConfig(workers=2),
            )


class TestWorkerLaneEquivalence:
    def test_async_verdicts_match_the_synchronous_path(self, rln_env):
        messages = stream(rln_env)
        sync_outcomes, sync_pipeline = run_stream(rln_env, messages)
        for workers in (1, 4):
            async_outcomes, async_pipeline = run_stream(
                rln_env, messages, workers=workers, batch_size=4
            )
            assert async_outcomes == sync_outcomes
            assert (
                async_pipeline.validator.stats.outcomes
                == sync_pipeline.validator.stats.outcomes
            )

    def test_worker_lane_verdicts_are_deferred(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env, workers=1)
        result = pipeline.validate("p", rln_env.make_message(b"m"), EPOCH, b"i")
        assert isinstance(result, Promise)
        assert not result.resolved
        assert pipeline.stats.deferred == 1
        simulator.run_until_idle()
        assert result.resolved
        assert result.value.action is ValidationResult.ACCEPT
        # The lane was occupied for the modeled pairing time.
        assert pipeline.executor.stats.service_seconds > 0
        assert simulator.now == pytest.approx(
            pipeline.executor.stats.service_seconds
        )

    def test_prefilter_drops_never_touch_the_executor(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env, workers=1)
        verdict = pipeline.validate(
            "p", rln_env.make_message(b"old", epoch=EPOCH - 50), EPOCH, b"i"
        )
        assert isinstance(verdict, Verdict)  # cheap gates stay synchronous
        assert pipeline.executor.stats.jobs_submitted == 0


class TestPriorityClasses:
    def test_relay_flushes_overtake_queued_service_checks(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env, workers=1)
        checker = pipeline.batch_verifier
        order = []

        # Occupy the single lane with a relay verdict...
        first = pipeline.validate("p", rln_env.make_message(b"one"), EPOCH, b"a")
        first.subscribe(lambda v: order.append("relay-1"))
        # ...queue a service-path re-validation...
        service = checker.check_deferred(rln_env.make_message(b"svc"))
        service.subscribe(lambda ok: order.append("service"))
        # ...then a second relay verdict, submitted *after* the service job.
        second = pipeline.validate("p", rln_env.make_message(b"two"), EPOCH, b"b")
        second.subscribe(lambda v: order.append("relay-2"))

        simulator.run_until_idle()
        assert order == ["relay-1", "relay-2", "service"]
        classes = pipeline.executor.stats.classes
        assert classes[Priority.RELAY].completed == 2
        assert classes[Priority.SERVICE].completed == 1

    def test_two_service_paths_share_one_in_flight_table(self, rln_env):
        # A peer's store, filter and lightpush nodes all hold the
        # pipeline's one verifier; the same proof arriving on two of them
        # before the first verdict lands must cost one pairing job, not two.
        pipeline, simulator = make_pipeline(rln_env, workers=1)
        store_path = lightpush_path = pipeline.batch_verifier
        message = rln_env.make_message(b"raced")
        counter = rln_env.prover.pairing_counter
        counter.reset()
        submitted = pipeline.executor.stats.jobs_submitted
        first = store_path.check_deferred(message)
        second = lightpush_path.check_deferred(message)
        assert not first.resolved and not second.resolved
        simulator.run_until_idle()
        assert first.value is True and second.value is True
        assert pipeline.executor.stats.jobs_submitted - submitted == 1
        assert counter.evaluations == 4
        assert store_path.joined_in_flight == 1 and store_path.verified == 1

    def test_service_check_joins_a_proof_parked_in_the_batch_window(self, rln_env):
        # The relay path parked the bundle in an open batch window; the
        # same bundle asked for on the store/lightpush path must wait for
        # that verdict, not pay for its own (8 evaluations before the
        # relay and service paths shared one front door).
        pipeline, simulator = make_pipeline(rln_env, batch_size=8, workers=0)
        checker = pipeline.batch_verifier
        message = rln_env.make_message(b"parked")
        counter = rln_env.prover.pairing_counter
        counter.reset()
        relay = pipeline.validate("p", message, EPOCH, b"a")
        assert isinstance(relay, Promise) and not relay.resolved
        service = checker.check_deferred(message)
        joined_unresolved = not service.resolved
        simulator.run_until_idle()
        assert counter.evaluations == 4
        assert joined_unresolved  # it waited for the window's verdict
        assert relay.value.action is ValidationResult.ACCEPT
        assert service.value is True
        assert checker.joined_in_flight == 1 and checker.verified == 1

    def test_relay_copy_joins_a_service_check_in_flight(self, rln_env):
        # The other direction: the proof is on a lane for the store path
        # when its relay copy arrives.
        pipeline, simulator = make_pipeline(rln_env, workers=1, batch_size=1)
        checker = pipeline.batch_verifier
        message = rln_env.make_message(b"in-flight")
        counter = rln_env.prover.pairing_counter
        counter.reset()
        service = checker.check_deferred(message)
        relay = pipeline.validate("p", message, EPOCH, b"a")
        assert not service.resolved
        assert isinstance(relay, Promise) and not relay.resolved
        simulator.run_until_idle()
        assert counter.evaluations == 4
        assert pipeline.executor.stats.jobs_submitted == 1
        assert service.value is True
        assert relay.value.outcome is ValidationOutcome.VALID
        # The relay copy paid no pairing work: accounted like a cache hit.
        stats = pipeline.validator.stats
        assert (stats.proofs_verified, stats.proofs_cached) == (0, 1)
        assert relay.value.cached and pipeline.stats.deferred == 1

    def test_service_cache_hit_skips_the_queue(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env, workers=1)
        checker = pipeline.batch_verifier
        message = rln_env.make_message(b"warm")
        pending = pipeline.validate("p", message, EPOCH, b"a")
        simulator.run_until_idle()
        assert pending.value.action is ValidationResult.ACCEPT
        # Same bundle on the service path: resolved without a lane trip.
        submitted = pipeline.executor.stats.jobs_submitted
        verdict = checker.check_deferred(message)
        assert verdict.resolved and verdict.value is True
        assert pipeline.executor.stats.jobs_submitted == submitted


class TestCloseAndReopen:
    def test_close_delivers_parked_verdicts_immediately(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env, workers=1, batch_size=8)
        pending = [
            pipeline.validate(
                "p", rln_env.make_message(b"m-%d" % i, epoch=EPOCH + i), EPOCH + i,
                b"id-%d" % i,
            )
            for i in range(3)
        ]
        assert all(isinstance(p, Promise) and not p.resolved for p in pending)
        pipeline.close()
        assert all(p.resolved for p in pending)
        assert all(p.value.outcome is ValidationOutcome.VALID for p in pending)
        # A stopped peer never wakes later to do crypto: late arrivals are
        # verified inline, with no executor events left behind.
        late = pipeline.validate("p", rln_env.make_message(b"late"), EPOCH, b"z")
        assert isinstance(late, Verdict)
        simulator.run_until_idle()  # nothing should fire twice / crash

    def test_a_closed_batching_pipeline_schedules_nothing(self, rln_env, monkeypatch):
        # A late arrival at a stopped peer is verified inline: it must not
        # arm (and then cancel) a batch deadline on the simulator.
        pipeline, simulator = make_pipeline(rln_env, batch_size=8)
        pipeline.close()
        scheduled = []
        schedule = simulator.schedule
        monkeypatch.setattr(
            simulator, "schedule", lambda *a: scheduled.append(a) or schedule(*a)
        )
        late = pipeline.validate("p", rln_env.make_message(b"late"), EPOCH, b"z")
        assert late.outcome is ValidationOutcome.VALID
        assert scheduled == []

    def test_close_pins_shared_checkers_inline_too(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env, workers=1)
        checker = pipeline.batch_verifier
        pipeline.close()
        # A service-path check landing after stop() must resolve inline —
        # the checker holds the same (now pinned) executor, so no lane
        # event may fire at a later simulated time.
        verdict = checker.check_deferred(rln_env.make_message(b"late"))
        assert verdict.resolved and verdict.value is True
        assert pipeline.executor.busy_lanes == 0
        assert pipeline.executor.queued_jobs == 0
        pipeline.reopen()
        verdict = checker.check_deferred(rln_env.make_message(b"fresh"))
        assert not verdict.resolved  # lanes are back
        simulator.run_until_idle()
        assert verdict.value is True

    def test_reopen_restores_the_worker_lanes(self, rln_env):
        pipeline, simulator = make_pipeline(rln_env, workers=1)
        pipeline.close()
        pipeline.reopen()
        result = pipeline.validate("p", rln_env.make_message(b"m"), EPOCH, b"i")
        assert isinstance(result, Promise)
        simulator.run_until_idle()
        assert result.value.outcome is ValidationOutcome.VALID
