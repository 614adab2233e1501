"""Unit tests for pipeline stage 4: batched Groth16 verification (E11)."""

import pytest

from repro.errors import ProtocolError
from repro.exec.executor import Priority, SimulatedCryptoExecutor
from repro.net.simulator import Simulator
from repro.pipeline.batch_verifier import BatchVerifier, verdict_key
from repro.zksnark.groth16 import (
    BATCH_FIXED_PAIRINGS,
    PAIRINGS_PER_VERIFY,
    Proof,
    batch_pairing_check,
)


def make_bundles(rln_env, count: int, tag: bytes = b"bundle"):
    """Distinct honest bundles."""
    return [
        rln_env.make_message(tag + b"-%d" % i).rate_limit_proof for i in range(count)
    ]


def make_jobs(rln_env, count: int):
    """(public_inputs, proof) pairs from distinct honest bundles."""
    return [(b.public_inputs(), b.proof) for b in make_bundles(rln_env, count)]


def relay(verifier, bundle):
    """One relay-class check's verdict (a bool, or a promise of one)."""
    return verifier.check(bundle, priority=Priority.RELAY)[0]


def check_all(verifier, bundles):
    return [relay(verifier, bundle) for bundle in bundles]


def end_instant(verifier):
    """Run the verifier's simulator to the end of the current instant."""
    verifier.simulator.run(until=verifier.simulator.now)


def laned(rln_env, workers: int, batch_size: int):
    """A verifier over ``workers`` simulated lanes, and its simulator."""
    simulator = Simulator()
    executor = SimulatedCryptoExecutor(
        simulator, workers, counter=rln_env.prover.pairing_counter
    )
    verifier = BatchVerifier(
        rln_env.prover, simulator, batch_size=batch_size, executor=executor
    )
    return simulator, verifier


def landing_times(simulator, verdicts):
    """Simulated time each verdict promise lands at, filled as they land."""
    times = [None] * len(verdicts)
    for index, verdict in enumerate(verdicts):
        verdict.subscribe(lambda ok, index=index: times.__setitem__(index, simulator.now))
    return times


def forged(job):
    public, _ = job
    return public, Proof(a=bytes(32), b=bytes(64), c=bytes(32))


class TestRLCBatchCheck:
    def test_all_valid_batch_accepts(self, rln_env):
        jobs = make_jobs(rln_env, 8)
        assert rln_env.prover.verify_batch(jobs)

    def test_one_forged_proof_rejects_whole_batch(self, rln_env):
        jobs = make_jobs(rln_env, 8)
        jobs[3] = forged(jobs[3])
        assert not rln_env.prover.verify_batch(jobs)

    def test_two_forged_proofs_do_not_cancel(self, rln_env):
        # The verifier samples its combination coefficients after seeing
        # the proofs, so two wrong members cannot cancel each other.
        jobs = make_jobs(rln_env, 8)
        jobs[1] = forged(jobs[1])
        jobs[6] = forged(jobs[6])
        assert not rln_env.prover.verify_batch(jobs)

    def test_empty_batch_is_vacuously_true(self, rln_env):
        assert batch_pairing_check(rln_env.prover._params, [], None)

    def test_batched_32_costs_fewer_pairings_than_individual(self, rln_env):
        # The acceptance criterion: 32 batched proofs vs 32 Groth16.verify
        # calls, asserted via the pairing-evaluation counter.
        jobs = make_jobs(rln_env, 32)
        counter = rln_env.prover.pairing_counter

        counter.reset()
        for public, proof in jobs:
            assert rln_env.prover.verify(public, proof)
        individual = counter.evaluations
        assert individual == 32 * PAIRINGS_PER_VERIFY

        counter.reset()
        assert rln_env.prover.verify_batch(jobs)
        batched = counter.evaluations
        assert batched == 32 + BATCH_FIXED_PAIRINGS
        assert batched < individual


class TestBatchVerifier:
    def test_config_validation(self, rln_env):
        with pytest.raises(ProtocolError):
            BatchVerifier(rln_env.prover, Simulator(), batch_size=0)
        with pytest.raises(ProtocolError):
            # A window closes at the end of an instant: no simulator, no window.
            BatchVerifier(rln_env.prover, None, batch_size=4)

    def test_inline_executor_batches_the_instants_jobs_at_its_end(self, rln_env):
        counter = rln_env.prover.pairing_counter
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=4)
        counter.reset()
        verdicts = check_all(verifier, make_bundles(rln_env, 6))
        # A full window does not leave mid-instant: nothing ran yet.
        assert not any(verdict.resolved for verdict in verdicts)
        assert counter.evaluations == 0
        end_instant(verifier)
        assert [verdict.value for verdict in verdicts] == [True] * 6
        # Two RLC batches, 4 then 2, at the instant's end.
        assert verifier.stats.batches_verified == 2
        assert counter.evaluations == (4 + BATCH_FIXED_PAIRINGS) + (2 + BATCH_FIXED_PAIRINGS)
        assert len(verifier._pending) == 0
        assert verifier.simulator.now == 0.0

    def test_a_lone_job_with_an_idle_lane_lands_after_its_service_time(self, rln_env):
        simulator, verifier = laned(rln_env, workers=2, batch_size=8)
        (verdict,) = check_all(verifier, make_bundles(rln_env, 1))
        times = landing_times(simulator, [verdict])
        service = verifier.executor.cost_model.seconds_for_pairings(PAIRINGS_PER_VERIFY)
        simulator.run(until=1.0)
        assert verdict.value is True and times == [service]
        # Handed to the lane at the end of its arrival instant: no wait, and
        # no timer left behind.
        assert verifier.executor.stats.classes[Priority.RELAY].queue_delay_max == 0.0
        assert simulator.processed_events == 2  # the instant's end, the completion
        assert simulator.pending_events == 0
        assert verifier.executor.on_lane_free is None

    def test_jobs_queued_on_busy_lanes_leave_as_one_batch_per_freed_lane(self, rln_env):
        simulator, verifier = laned(rln_env, workers=2, batch_size=4)
        service = verifier.executor.cost_model.seconds_for_pairings
        first, second = make_bundles(rln_env, 2, b"service")
        # Two service-class checks hold both lanes: until 0.03 and 0.04.
        verifier.check(first)
        simulator.run(until=0.01)
        verifier.check(second)
        simulator.run(until=0.02)
        verdicts = check_all(verifier, make_bundles(rln_env, 6))
        times = landing_times(simulator, verdicts)
        simulator.run(until=0.02)
        assert verifier.executor.on_lane_free is not None  # waiting for a lane
        simulator.run(until=1.0)
        assert [verdict.value for verdict in verdicts] == [True] * 6
        # The first lane frees at 0.03 and takes four; the second, at
        # 0.04, takes the other two.
        lane_a = service(PAIRINGS_PER_VERIFY)
        lane_b = 0.01 + service(PAIRINGS_PER_VERIFY)
        batch_a = lane_a + service(4 + BATCH_FIXED_PAIRINGS)
        batch_b = lane_b + service(2 + BATCH_FIXED_PAIRINGS)
        assert times == [batch_a] * 4 + [batch_b] * 2
        assert verifier.stats.batches_verified == 2
        assert verifier.executor.on_lane_free is None
        assert simulator.pending_events == 0

    def test_close_while_the_window_waits_drains_it_and_disarms(self, rln_env):
        simulator, verifier = laned(rln_env, workers=1, batch_size=4)
        verifier.check(make_bundles(rln_env, 1, b"service")[0])  # holds the lane
        verdicts = check_all(verifier, make_bundles(rln_env, 3))
        end_instant(verifier)
        assert verifier.executor.on_lane_free is not None
        verifier.close()
        # Every verdict lands now, and nothing is left to fire later.
        assert [verdict.value for verdict in verdicts] == [True] * 3
        assert simulator.now == 0.0
        assert verifier.executor.on_lane_free is None
        assert simulator.pending_events == 0
        assert len(verifier._pending) == 0 and not verifier._in_flight

    def test_fallback_fingerprints_exactly_the_forged_index(self, rln_env):
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        bundles = make_bundles(rln_env, 8)
        bundles[5] = bundles[5].forged_copy()
        verdicts = check_all(verifier, bundles)
        end_instant(verifier)
        # The honest seven are accepted; only index 5 is rejected.
        assert [v.value for v in verdicts] == [True] * 5 + [False] + [True] * 2
        assert verifier.stats.forged_indices == [5]
        assert verifier.stats.forged_proofs_isolated == 1
        assert verifier.stats.fallback_verifications == 8
        # The fingerprint names the latest failed batch only (bounded, not
        # an ever-growing log); the totals keep accumulating.
        second = make_bundles(rln_env, 8, b"second")
        second[2] = second[2].forged_copy()
        check_all(verifier, second)
        end_instant(verifier)
        assert verifier.stats.forged_indices == [2]
        assert verifier.stats.forged_proofs_isolated == 2

    def test_fallback_costs_only_on_failure(self, rln_env):
        counter = rln_env.prover.pairing_counter
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        bundles = make_bundles(rln_env, 8)
        counter.reset()
        check_all(verifier, bundles)
        end_instant(verifier)
        # Honest batch: one RLC check, no fallback.
        assert counter.evaluations == 8 + BATCH_FIXED_PAIRINGS
        assert verifier.stats.fallback_verifications == 0

    def test_batch_size_one_uses_classical_checks(self, rln_env):
        counter = rln_env.prover.pairing_counter
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=1)
        bundles = make_bundles(rln_env, 3)
        counter.reset()
        # Straight through an inline executor: the verdicts themselves.
        verdicts = check_all(verifier, bundles)
        assert verdicts == [True] * 3
        assert counter.evaluations == 3 * PAIRINGS_PER_VERIFY
        assert counter.batch_checks == 0

    def test_manual_flush_drains_pending(self, rln_env):
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        verdict = relay(verifier, make_bundles(rln_env, 1)[0])
        verifier.flush()
        assert verdict.value is True
        verifier.flush()  # idempotent on empty queue
        assert len(verifier._pending) == 0


class TestCallbackIsolation:
    def test_one_raising_callback_does_not_strand_the_batch(self, rln_env):
        # A user hook raising from one job's verdict (e.g. on_spam) must
        # not leave the other jobs of the batch unresolved; the error
        # still surfaces after every verdict is delivered.
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=3)
        delivered = []
        bundles = make_bundles(rln_env, 3)

        def exploding(ok):
            delivered.append(("boom", ok))
            raise RuntimeError("user hook failed")

        relay(verifier, bundles[0]).subscribe(exploding)
        relay(verifier, bundles[1]).subscribe(lambda ok: delivered.append(("b", ok)))
        relay(verifier, bundles[2]).subscribe(lambda ok: delivered.append(("c", ok)))
        # The batch leaves at the instant's end, and the hook's error
        # surfaces from there; every verdict landed all the same.
        with pytest.raises(RuntimeError):
            end_instant(verifier)
        assert delivered == [("boom", True), ("b", True), ("c", True)]
        assert len(verifier._pending) == 0
        assert verifier.stats.batches_verified == 1

    def test_the_checker_caches_the_flushing_job_when_a_hook_raises(self, rln_env):
        # The batch's delivery raises out of the instant's end, but every
        # verdict has landed: cached, counted, nothing in flight.
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=3)
        bundles = [
            rln_env.make_message(b"hooked-%d" % i).rate_limit_proof for i in range(3)
        ]

        def exploding(ok):
            raise RuntimeError("user hook failed")

        first, _ = verifier.check(bundles[0], priority=Priority.RELAY)
        first.subscribe(exploding)
        verifier.check(bundles[1], priority=Priority.RELAY)
        verifier.check(bundles[2], priority=Priority.RELAY)
        with pytest.raises(RuntimeError):
            end_instant(verifier)
        assert verifier.verified == 3 and not verifier._in_flight
        assert verifier.cache.get(verdict_key(bundles[2])) is True
        # A later copy of the last job's proof is a cache hit.
        assert verifier.check(bundles[2], priority=Priority.RELAY) == (True, False)
        assert verifier.verified == 3 and verifier.stats.jobs_submitted == 3

    def test_a_raising_hook_leaves_the_next_batch_to_the_next_instant_end(self, rln_env):
        # Inline, a window larger than batch_size leaves as several batches;
        # a hook raising from the first must not strand the second.
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=2)
        verdicts = check_all(verifier, make_bundles(rln_env, 3))

        def exploding(ok):
            raise RuntimeError("user hook failed")

        verdicts[0].subscribe(exploding)
        with pytest.raises(RuntimeError):
            end_instant(verifier)
        assert [v.resolved for v in verdicts] == [True, True, False]
        end_instant(verifier)
        assert verdicts[2].value is True
        assert verifier.stats.batches_verified == 2 and not verifier._in_flight
