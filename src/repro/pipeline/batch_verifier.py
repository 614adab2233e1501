"""Pipeline stage 4 — batched Groth16 verification (§III-F item 2, batched).

The seed implementation verified every surviving proof synchronously, one
4-pairing check at a time, inside the relay callback.  This stage
accumulates pending ``(public_inputs, proof)`` jobs and verifies N of them
with a single random-linear-combination multi-pairing
(:meth:`repro.zksnark.groth16.Groth16.verify_batch`): N + 3 pairing
evaluations instead of 4N, the saving experiment E11 measures.

Batches flush on a **size-or-deadline** trigger: the size trigger (pulled
by the caller after a submit) fires synchronously at ``batch_size``; the deadline
trigger is an event on the net simulator so a lone job is never stranded
waiting for company.  ``batch_size=1`` degenerates to the seed's immediate
per-proof verification — same verdicts, same pairing count, zero latency —
which is what the equivalence tests pin down.

When a batch fails, the RLC check only says "at least one forged proof is
present"; the verifier falls back to per-proof checks over the batch and
fingerprints exactly the indices of the culprits (the honest majority's
verdicts are still delivered as accepts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.errors import ProtocolError
from repro.exec.executor import (
    CryptoExecutor,
    Priority,
    SynchronousCryptoExecutor,
)
from repro.net.promise import Promise
from repro.net.simulator import EventHandle, Simulator
from repro.telemetry.registry import MetricsRegistry, NullRegistry, NULL_REGISTRY
from repro.telemetry.disttrace import NULL_TRACE, ActiveSpan, NullTrace
from repro.telemetry.tracing import BATCH_FLUSH, LANE_DISPATCH, PAIRING
from repro.zksnark.groth16 import Proof
from repro.zksnark.prover import RLNProver
from repro.zksnark.rln_circuit import RLNPublicInputs

#: Bucket bounds for the batch-size histogram (jobs per flush, not time).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class VerificationJob(NamedTuple):
    """One queued proof check."""

    public: RLNPublicInputs
    proof: Proof
    #: Resolved when the verdict lands (``None``: ``submit`` returns it).
    verdict: Promise[bool] | None
    #: The bundle's span, riding along so flush/dispatch/pairing marks
    #: land on the right waterfall (the shared no-op when telemetry is off).
    trace: "ActiveSpan | NullTrace" = NULL_TRACE


@dataclass
class BatchVerifierStats:
    """Flush/fallback accounting for the E11 benchmark."""

    jobs_submitted: int = 0
    batches_verified: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    fallback_verifications: int = 0
    forged_proofs_isolated: int = 0
    #: Indices of the forged members within the *most recently failed*
    #: batch (reset on each fallback, so the list stays bounded by the
    #: batch size and unambiguous).
    forged_indices: list[int] = field(default_factory=list)


class BatchVerifier:
    """Accumulates verification jobs and flushes them as one RLC check."""

    def __init__(
        self,
        prover: RLNProver,
        simulator: Simulator | None = None,
        *,
        batch_size: int = 1,
        deadline: float = 0.05,
        executor: CryptoExecutor | None = None,
        registry: "MetricsRegistry | NullRegistry | None" = None,
        peer: str = "",
    ) -> None:
        if batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        if deadline <= 0:
            raise ProtocolError("batch deadline must be positive")
        if batch_size > 1 and simulator is None:
            raise ProtocolError(
                "batching (batch_size > 1) needs a simulator for the "
                "deadline trigger"
            )
        self.prover = prover
        self.simulator = simulator
        self.batch_size = batch_size
        self.deadline = deadline
        # Size- and deadline-triggered flushes alike route through the
        # executor (at RELAY class: the mesh is waiting on them); the
        # inline default keeps the pre-executor behaviour (verdicts land
        # before flush() returns) bit-identical.
        self.executor: CryptoExecutor = executor or SynchronousCryptoExecutor(
            counter=prover.pairing_counter
        )
        reg = NULL_REGISTRY if registry is None else registry
        self._m_batch_size = reg.histogram(
            "batch_flush_size", peer=peer, buckets=_BATCH_SIZE_BUCKETS
        )
        self.stats = BatchVerifierStats()
        self._pending: list[VerificationJob] = []
        self._deadline_handle: EventHandle | None = None

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        public: RLNPublicInputs,
        proof: Proof,
        *,
        trace: "ActiveSpan | NullTrace" = NULL_TRACE,
    ) -> "bool | Promise[bool]":
        """Queue one job: its verdict if it ran straight through (a batch of
        one, inline executor), else a promise of it, resolved on landing —
        the caller subscribes, *then* pulls :meth:`flush_if_full`."""
        self.stats.jobs_submitted += 1
        if self.batch_size == 1 and self.executor.inline:
            self.stats.size_flushes += 1
            self._pending.append(VerificationJob(public, proof, None, trace))
            return self.flush()[0]
        verdict: Promise[bool] = Promise()
        self._pending.append(VerificationJob(public, proof, verdict, trace))
        # batch_size > 1 here whenever the window stays open: a simulator exists.
        if self._deadline_handle is None and len(self._pending) < self.batch_size:
            self._deadline_handle = self.simulator.schedule(self.deadline, self._on_deadline)
        return verdict

    def flush_if_full(self) -> None:
        """The size trigger: flush once ``batch_size`` jobs are waiting (a
        subscriber added before it hears its verdict if another raises)."""
        if len(self._pending) >= self.batch_size:
            self.stats.size_flushes += 1
            self.flush()

    @property
    def pending_jobs(self) -> int:
        return len(self._pending)

    # -- flushing ---------------------------------------------------------------

    def _on_deadline(self) -> None:
        self._deadline_handle = None
        if self._pending:
            self.stats.deadline_flushes += 1
            self.flush()

    def flush(self) -> "list[bool] | Promise[list[bool]] | None":
        """Hand the pending batch to the executor; verdicts land on completion.

        Zero lanes: the pairing work runs inline and every verdict is
        delivered (and returned) before this returns — the seed behaviour.
        Worker lanes: the batch is only *enqueued* and the job promises
        resolve at simulated completion time.
        """
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None
        jobs = self._pending
        if not jobs:
            return None
        self._pending = []
        self.stats.batches_verified += 1
        self._m_batch_size.observe(float(len(jobs)))
        for job in jobs:
            job.trace.mark(BATCH_FLUSH)
        return self.executor.submit(
            self._verify, self._deliver, priority=Priority.RELAY, args=(jobs,)
        )

    def _deliver(self, jobs: Sequence[VerificationJob], verdicts: list[bool]) -> None:
        # The pairing span closes at simulated completion time, when the
        # executor hands the verdicts back.
        for job in jobs:
            job.trace.mark(PAIRING)
        if len(jobs) == 1:
            if jobs[0].verdict is not None:
                jobs[0].verdict.resolve(verdicts[0])
            return
        # One job's subscriber raising (e.g. a user on_spam hook) must not
        # strand the other jobs of the batch with unresolved promises:
        # deliver every verdict, then surface the first failure.
        first_error: Exception | None = None
        for job, ok in zip(jobs, verdicts):
            try:
                job.verdict.resolve(ok)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def _verify(self, jobs: Sequence[VerificationJob]) -> list[bool]:
        # Runs when a lane picks the batch up: the flush→dispatch delta is
        # the executor queue wait from the bundle's point of view.
        for job in jobs:
            job.trace.mark(LANE_DISPATCH)
        if len(jobs) == 1:
            # A batch of one gains nothing from the RLC framing; the single
            # classical check keeps batch_size=1 bit-identical to the seed.
            return [self.prover.verify(jobs[0].public, jobs[0].proof)]
        if self.prover.verify_batch([(job.public, job.proof) for job in jobs]):
            return [True] * len(jobs)
        # The combined check failed: isolate the culprit(s) one classical
        # check at a time, fingerprinting their batch indices.
        verdicts = []
        self.stats.forged_indices = []
        for index, job in enumerate(jobs):
            ok = self.prover.verify(job.public, job.proof)
            self.stats.fallback_verifications += 1
            if not ok:
                self.stats.forged_proofs_isolated += 1
                self.stats.forged_indices.append(index)
            verdicts.append(ok)
        return verdicts
