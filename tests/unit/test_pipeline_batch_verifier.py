"""Unit tests for pipeline stage 4: batched Groth16 verification (E11)."""

import pytest

from repro.errors import ProtocolError
from repro.exec.executor import Priority
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
        verdicts = check_all(verifier, make_bundles(rln_env, 4))
        # The fourth check flushed: every promise landed before it returned.
        assert [verdict.value for verdict in verdicts] == [True] * 4
        assert verifier.pending_jobs == 0
        assert verifier.stats.size_flushes == 1
        assert verifier.stats.deadline_flushes == 0

    def test_deadline_trigger_flushes_partial_batch(self, rln_env):
        simulator = Simulator()
        verifier = BatchVerifier(
            rln_env.prover, simulator, batch_size=8, deadline=0.05
        )
        verdicts = check_all(verifier, make_bundles(rln_env, 3))
        assert not any(verdict.resolved for verdict in verdicts)  # parked
        simulator.run(until=0.1)
        assert [verdict.value for verdict in verdicts] == [True] * 3
        assert verifier.stats.deadline_flushes == 1
        assert verifier.stats.size_flushes == 0

    def test_fallback_fingerprints_exactly_the_forged_index(self, rln_env):
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        bundles = make_bundles(rln_env, 8)
        bundles[5] = bundles[5].forged_copy()
        verdicts = check_all(verifier, bundles)
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
        assert verifier.stats.forged_indices == [2]
        assert verifier.stats.forged_proofs_isolated == 2

    def test_fallback_costs_only_on_failure(self, rln_env):
        counter = rln_env.prover.pairing_counter
        verifier = BatchVerifier(rln_env.prover, Simulator(), batch_size=8)
        bundles = make_bundles(rln_env, 8)
        counter.reset()
        check_all(verifier, bundles)
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
        bundles = make_bundles(rln_env, 3)

        def exploding(ok):
            delivered.append(("boom", ok))
            raise RuntimeError("user hook failed")

        relay(verifier, bundles[0]).subscribe(exploding)
        relay(verifier, bundles[1]).subscribe(lambda ok: delivered.append(("b", ok)))
        # The job that fills the window flushes it, and the hook's error
        # surfaces from that check; its own verdict landed all the same.
        with pytest.raises(RuntimeError):
            relay(verifier, bundles[2])
        delivered.append(("c", relay(verifier, bundles[2])))
        assert delivered == [("boom", True), ("b", True), ("c", True)]
        assert verifier.pending_jobs == 0
        assert verifier.stats.size_flushes == 1

    def test_the_checker_caches_the_flushing_job_when_a_hook_raises(self, rln_env):
        # The size-triggered flush raises out of the third check, but that
        # check's verdict has landed: cached, counted, nothing in flight.
        verifier = BatchVerifier(
            rln_env.prover, Simulator(), batch_size=3, deadline=0.05
        )
        bundles = [
            rln_env.make_message(b"hooked-%d" % i).rate_limit_proof for i in range(3)
        ]

        def exploding(ok):
            raise RuntimeError("user hook failed")

        first, _ = verifier.check(bundles[0], priority=Priority.RELAY)
        first.subscribe(exploding)
        verifier.check(bundles[1], priority=Priority.RELAY)
        with pytest.raises(RuntimeError):
            verifier.check(bundles[2], priority=Priority.RELAY)
        assert verifier.verified == 3 and not verifier._in_flight
        assert verifier.cache.get(verdict_key(bundles[2])) is True
        # A later copy of the flushing job's proof is a cache hit.
        assert verifier.check(bundles[2], priority=Priority.RELAY) == (True, False)
        assert verifier.verified == 3 and verifier.stats.jobs_submitted == 3
