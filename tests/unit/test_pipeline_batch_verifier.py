"""Unit tests for pipeline stage 4: batched Groth16 verification (E11)."""

import pytest

from repro.errors import ProtocolError
from repro.exec.executor import Priority
from repro.net.simulator import Simulator
from repro.pipeline.batch_verifier import BatchVerifier
from repro.pipeline.verdicts import SharedProofChecker, VerdictCache
from repro.zksnark.groth16 import (
    BATCH_FIXED_PAIRINGS,
    PAIRINGS_PER_VERIFY,
    Proof,
    batch_pairing_check,
)


def make_jobs(rln_env, count: int):
    """(public_inputs, proof) pairs from distinct honest bundles."""
    jobs = []
    for i in range(count):
        bundle = rln_env.make_message(b"bundle-%d" % i).rate_limit_proof
        jobs.append((bundle.public_inputs(), bundle.proof))
    return jobs


def submit_all(verifier, jobs):
    """Submit each job, pulling the size trigger after it (as the checker does)."""
    verdicts = []
    for public, proof in jobs:
        verdicts.append(verifier.submit(public, proof))
        verifier.flush_if_full()
    return verdicts


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
            BatchVerifier(rln_env.prover, Simulator(), batch_size=4, deadline=0.0)
        with pytest.raises(ProtocolError):
            # A deadline trigger cannot exist without a simulator.
            BatchVerifier(rln_env.prover, None, batch_size=4)

    def test_size_trigger_flushes_synchronously(self, rln_env):
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=4)
        verdicts = submit_all(verifier, make_jobs(rln_env, 4))
        # The fourth trigger flushed: every promise landed before it returned.
        assert [verdict.value for verdict in verdicts] == [True] * 4
        assert verifier.pending_jobs == 0
        assert verifier.stats.size_flushes == 1
        assert verifier.stats.deadline_flushes == 0

    def test_deadline_trigger_flushes_partial_batch(self, rln_env):
        simulator = Simulator()
        verifier = BatchVerifier(
            rln_env.prover, simulator, batch_size=8, deadline=0.05
        )
        verdicts = [verifier.submit(*job) for job in make_jobs(rln_env, 3)]
        assert not any(verdict.resolved for verdict in verdicts)  # parked
        simulator.run(until=0.1)
        assert [verdict.value for verdict in verdicts] == [True] * 3
        assert verifier.stats.deadline_flushes == 1
        assert verifier.stats.size_flushes == 0

    def test_fallback_fingerprints_exactly_the_forged_index(self, rln_env):
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        jobs = make_jobs(rln_env, 8)
        jobs[5] = forged(jobs[5])
        verdicts = submit_all(verifier, jobs)
        # The honest seven are accepted; only index 5 is rejected.
        assert [v.value for v in verdicts] == [True] * 5 + [False] + [True] * 2
        assert verifier.stats.forged_indices == [5]
        assert verifier.stats.forged_proofs_isolated == 1
        assert verifier.stats.fallback_verifications == 8
        # The fingerprint names the latest failed batch only (bounded, not
        # an ever-growing log); the totals keep accumulating.
        second = make_jobs(rln_env, 8)
        second[2] = forged(second[2])
        submit_all(verifier, second)
        assert verifier.stats.forged_indices == [2]
        assert verifier.stats.forged_proofs_isolated == 2

    def test_fallback_costs_only_on_failure(self, rln_env):
        counter = rln_env.prover.pairing_counter
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        counter.reset()
        submit_all(verifier, make_jobs(rln_env, 8))
        # Honest batch: one RLC check, no fallback.
        assert counter.evaluations == 8 + BATCH_FIXED_PAIRINGS
        assert verifier.stats.fallback_verifications == 0

    def test_batch_size_one_uses_classical_checks(self, rln_env):
        counter = rln_env.prover.pairing_counter
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=1)
        counter.reset()
        # Straight through an inline executor: the verdicts themselves.
        verdicts = [verifier.submit(*job) for job in make_jobs(rln_env, 3)]
        assert verdicts == [True] * 3
        assert counter.evaluations == 3 * PAIRINGS_PER_VERIFY
        assert counter.batch_checks == 0

    def test_manual_flush_drains_pending(self, rln_env):
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        public, proof = make_jobs(rln_env, 1)[0]
        verdict = verifier.submit(public, proof)
        verifier.flush()
        assert verdict.value is True
        verifier.flush()  # idempotent on empty queue
        assert verifier.pending_jobs == 0


class TestCallbackIsolation:
    def test_one_raising_callback_does_not_strand_the_batch(self, rln_env):
        # A user hook raising from one job's verdict (e.g. on_spam) must
        # not leave the other jobs of the batch unresolved; the error
        # still surfaces after every verdict is delivered.
        verifier = BatchVerifier(
            rln_env.prover, Simulator(), batch_size=3, deadline=0.05
        )
        delivered = []
        jobs = make_jobs(rln_env, 3)

        def exploding(ok):
            delivered.append(("boom", ok))
            raise RuntimeError("user hook failed")

        verifier.submit(*jobs[0]).subscribe(exploding)
        verifier.submit(*jobs[1]).subscribe(lambda ok: delivered.append(("b", ok)))
        # The job that fills the window is subscribed before the trigger.
        verifier.submit(*jobs[2]).subscribe(lambda ok: delivered.append(("c", ok)))
        with pytest.raises(RuntimeError):
            verifier.flush_if_full()
        assert delivered == [("boom", True), ("b", True), ("c", True)]
        assert verifier.pending_jobs == 0
        assert verifier.stats.size_flushes == 1

    def test_the_checker_caches_the_flushing_job_when_a_hook_raises(self, rln_env):
        # The size-triggered flush raises out of the third check, but that
        # check's verdict has landed: cached, counted, nothing in flight.
        verifier = BatchVerifier(
            rln_env.prover, Simulator(), batch_size=3, deadline=0.05
        )
        checker = SharedProofChecker(rln_env.prover, VerdictCache(), verifier)
        bundles = [
            rln_env.make_message(b"hooked-%d" % i).rate_limit_proof for i in range(3)
        ]

        def exploding(ok):
            raise RuntimeError("user hook failed")

        first, _ = checker.check(bundles[0], priority=Priority.RELAY)
        first.subscribe(exploding)
        checker.check(bundles[1], priority=Priority.RELAY)
        with pytest.raises(RuntimeError):
            checker.check(bundles[2], priority=Priority.RELAY)
        assert checker.verified == 3 and not checker._in_flight
        assert checker.cache.get(VerdictCache.key(bundles[2])) is True
        # A later copy of the flushing job's proof is a cache hit.
        assert checker.check(bundles[2], priority=Priority.RELAY) == (True, False)
        assert checker.verified == 3 and verifier.stats.jobs_submitted == 3
