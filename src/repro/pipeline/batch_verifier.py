"""A peer's one proof verifier: verdict cache, in-flight joins, batched checks.

A peer is asked for the verdict of a ``(statement, proof)`` pair on four
paths — the relay pipeline's stage 4 (§III-F item 2), store archival,
filter pushes and lightpush service — and all four ask
:meth:`BatchVerifier.check` on the peer's one verifier.  A bundle any path
already judged costs one cache lookup; a bundle any path is *still
judging* (parked in the relay window, queued or running on an executor
lane) is joined, never verified a second time.

Relay-class work accumulates in a window and is verified N proofs at a
time with a single random-linear-combination multi-pairing
(:meth:`repro.zksnark.groth16.Groth16.verify_batch`): N + 3 pairing
evaluations instead of 4N, the saving experiment E11 measures.  The
window is **work-conserving**: it leaves at the end of the simulated
instant its first job arrived if a lane is idle (the inline executor
counts as one), else the moment a lane frees, and it is split among every
lane idle then — ceil(jobs left / idle lanes) a batch, at most
``batch_size``, in arrival order — so no job waits while a lane idles.
``batch_size=1`` degenerates to the seed's immediate per-proof
verification (same verdicts, pairing count and latency), as the
equivalence tests pin down.

When a batch fails, the RLC check only says "at least one forged proof is
present"; the verifier falls back to per-proof checks over the batch and
fingerprints exactly the indices of the culprits (the honest majority's
verdicts are still delivered as accepts).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.core.messages import RateLimitProof
from repro.errors import ProtocolError
from repro.exec.executor import Priority, SimulatedCryptoExecutor
from repro.exec.executor import SynchronousCryptoExecutor
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.lru import BoundedLRU
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.disttrace import DISABLED, ActiveSpan, Disabled
from repro.telemetry.tracing import (
    BATCH_ENQUEUE, BATCH_FLUSH, LANE_DISPATCH, PAIRING, VERDICT_CACHE,
)
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Proof
from repro.zksnark.prover import RLNProver
from repro.zksnark.rln_circuit import RLNPublicInputs

#: Bucket bounds for the batch-size histogram (jobs per flush, not time).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Verdicts a peer remembers; a verifier's default cache is this size.
VERDICT_CACHE_CAPACITY = 8192


def verdict_key(bundle: RateLimitProof) -> bytes:
    """Hash binding the proof to the exact statement it claims.

    Remembered on the frozen bundle, which every receiver shares (a
    ``replace`` of any field, the proof included, starts clean).
    """
    key = getattr(bundle, "_verdict_key", None)
    if key is None:
        key = hashlib.sha256(
            bundle.public_inputs().serialize() + bundle.proof.serialize()
        ).digest()
        object.__setattr__(bundle, "_verdict_key", key)
    return key


class VerificationJob(NamedTuple):
    """One queued proof check."""

    key: bytes
    public: RLNPublicInputs
    proof: Proof
    #: Resolved when the verdict lands.
    verdict: Promise[bool]
    #: The bundle's span, riding along so flush/dispatch/pairing marks
    #: land on the right waterfall (the shared no-op when telemetry is off).
    trace: "ActiveSpan | Disabled" = DISABLED
    #: When a relay job joined the window (its batch's lane wait starts here).
    arrived: float = 0.0


@dataclass
class BatchVerifierStats:
    """Flush/fallback accounting for the E11 benchmark."""

    jobs_submitted: int = 0
    batches_verified: int = 0
    fallback_verifications: int = 0
    forged_proofs_isolated: int = 0
    #: Indices of the forged members within the *most recently failed*
    #: batch (reset on each fallback, so the list stays bounded by the
    #: batch size and unambiguous).
    forged_indices: list[int] = field(default_factory=list)


class BatchVerifier:
    """Who runs a pairing check, when, and who remembers the verdict.

    One per peer, built by its pipeline (``pipeline.batch_verifier``),
    which asks it on the relay path and hands it to the peer's
    :class:`~repro.waku.store.StoreNode`,
    :class:`~repro.waku.filter.FilterNode` and
    :class:`~repro.waku.lightpush.LightPushNode`.  Only the pairing check
    is shared — epoch windows, root recognition, and the nullifier rate
    check stay with each path's own validator.
    """

    def __init__(
        self,
        prover: RLNProver,
        simulator: Simulator | None = None,
        *,
        batch_size: int = 1,
        executor: SimulatedCryptoExecutor | None = None,
        cache: BoundedLRU[bytes, bool] | None = None,
        registry: "MetricsRegistry | Disabled" = DISABLED,
        peer: str = "",
    ) -> None:
        if batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        if batch_size > 1 and simulator is None:
            raise ProtocolError(
                "batching (batch_size > 1) needs a simulator to close the "
                "window at the end of an instant"
            )
        self.prover = prover
        self.simulator = simulator
        self.batch_size = batch_size
        # Window batches run at RELAY class (the mesh waits on them), service
        # checks at their own, on this one executor so the classes queue
        # against each other; the inline default lands verdicts in flush().
        self.executor = executor or SynchronousCryptoExecutor(
            counter=prover.pairing_counter
        )
        self.cache = BoundedLRU(VERDICT_CACHE_CAPACITY) if cache is None else cache
        self._m_batch_size = registry.histogram(
            "batch_flush_size", peer=peer, buckets=_BATCH_SIZE_BUCKETS
        )
        #: With telemetry off, a check that lands now calls no histogram.
        self._observed = registry.enabled
        self.stats = BatchVerifierStats()
        #: Verdicts served from the cache (no pairing work).
        self.cache_hits = 0
        #: Verdicts that required a real pairing evaluation.
        self.verified = 0
        #: Requests that joined a check of the same proof already pending
        #: on this peer (no pairing work, no extra job).
        self.joined_in_flight = 0
        #: key -> verdict promise of every check enqueued and not yet landed,
        #: whichever path asked; the cache only fills at completion, so this
        #: stops two paths racing one proof into two identical pairing jobs.
        self._in_flight: dict[bytes, Promise[bool]] = {}
        self._pending: list[VerificationJob] = []
        self._closed = False

    # -- the one way in ---------------------------------------------------------

    def check(
        self,
        bundle: RateLimitProof,
        *,
        priority: Priority = Priority.SERVICE,
        trace: "ActiveSpan | Disabled" = DISABLED,
    ) -> "tuple[bool | Promise[bool], bool]":
        """The verdict for one bundle, and whether it is *fresh*.

        Cache lookup, then the in-flight table, then the pairing check.
        A cache hit, and a check that lands now (an inline executor, but
        not a relay check while the window is open), is the plain
        ``bool``: the latter hands one ``(public, proof)`` to the
        executor, builds no job and skips the window — a relay one counts
        as a flushed batch of one.  Otherwise a ``Priority.RELAY`` job
        joins the window, any other class goes to a lane, and the verdict
        is a promise in the in-flight table for the next request of the
        same proof to join (never resolved on return).  ``fresh`` is true
        only for the request that enqueued the pairing work.  ``trace`` is
        the bundle's span, marked ``verdict-cache``, or ``batch-enqueue``
        and what follows.
        """
        key = verdict_key(bundle)
        cached = self.cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            trace.mark(VERDICT_CACHE)
            return cached, False
        pending = self._in_flight.get(key)
        if pending is not None:
            self.joined_in_flight += 1
            trace.mark(VERDICT_CACHE)
            return pending, False
        trace.mark(BATCH_ENQUEUE)
        relay = priority is Priority.RELAY
        if self.executor.inline and (not relay or self.batch_size == 1 or self._closed):
            if relay:
                stats = self.stats
                stats.jobs_submitted += 1
                stats.batches_verified += 1
                if self._observed:
                    self._m_batch_size.observe(1.0)
                trace.mark(BATCH_FLUSH)
            trace.mark(LANE_DISPATCH)
            public = bundle.public_inputs()
            ok = self.executor.submit(
                self.prover.verify, priority=priority, args=(public, bundle.proof)
            )
            self._land(key, ok, trace)
            return ok, True
        verdict: Promise[bool] = Promise()
        self._in_flight[key] = verdict
        arrived = self.simulator.now if relay else 0.0
        job = VerificationJob(key, bundle.public_inputs(), bundle.proof, verdict, trace, arrived)
        if not relay:
            self.executor.submit(
                self._verify, self._deliver, priority=priority, args=((job,),)
            )
        else:
            self.stats.jobs_submitted += 1
            if not self._pending:  # a new window: offered to a lane at the instant's end
                self.simulator.schedule(0.0, self._pull)
            self._pending.append(job)
        return verdict, True

    def check_deferred(self, message: WakuMessage) -> Promise[bool] | None:
        """Service-path verdict promise for a message's attached proof.

        ``None`` (no bundle attached) lets proof-less system traffic —
        e.g. tree-sync announcements — pass through paths that archive or
        forward arbitrary Waku messages.
        """
        bundle = message.rate_limit_proof
        if not isinstance(bundle, RateLimitProof):
            return None
        verdict = self.check(bundle)[0]
        if not isinstance(verdict, Promise):
            verdict, landed = Promise(), verdict
            verdict.resolve(landed)
        return verdict

    # -- flushing ---------------------------------------------------------------

    def _pull(self) -> None:
        """Split the window among the lanes idle now (see the module notes);
        what is left waits for the next lane to free.  The inline executor
        takes it all (a verdict hook raising from one batch leaves the rest
        to the next instant's end)."""
        executor = self.executor
        try:
            while self._pending and executor.idle:
                self._submit(-(-len(self._pending) // executor.idle))
        finally:
            if self._pending and executor.inline:
                self.simulator.schedule(0.0, self._pull)
            elif self._pending:
                executor.on_lane_free = self._pull

    def flush(self) -> None:
        """Hand the whole window to the executor now, ``batch_size`` jobs a
        batch, lane or not; verdicts land on completion (before this returns
        with the inline executor)."""
        self.executor.on_lane_free = None
        while self._pending:
            self._submit(self.batch_size)

    def _submit(self, size: int) -> None:
        size = min(size, self.batch_size)
        jobs, self._pending = self._pending[:size], self._pending[size:]
        self.stats.batches_verified += 1
        self._m_batch_size.observe(float(len(jobs)))
        for job in jobs:
            job.trace.mark(BATCH_FLUSH)
        self.executor.submit(
            self._verify, self._deliver, priority=Priority.RELAY, args=(jobs,),
            since=jobs[0].arrived,
        )

    def close(self) -> None:
        """Drain pending crypto and pin the verifier to inline checks.

        Called when the owning peer stops: the window is flushed (a wait
        for a lane is called off), every queued/in-flight executor job
        delivers its verdict *now*, and any check that still trickles in
        afterwards (the network keeps delivering in-flight RPCs) is
        verified inline instead of opening a window or waking worker
        lanes — a stopped peer never wakes up later to do crypto.  Pinning
        the executor itself covers the service paths too, which hold this
        same verifier.
        """
        self._closed = True
        self.flush()
        self.executor.drain()
        self.executor.pin_synchronous()

    def reopen(self) -> None:
        """Re-enable the window and worker lanes after :meth:`close`."""
        self._closed = False
        self.executor.unpin()

    # -- verification -----------------------------------------------------------

    def _land(self, key: bytes, ok: bool, trace: "ActiveSpan | Disabled") -> None:
        """Book one verdict that just came out of a pairing check."""
        trace.mark(PAIRING)
        self.cache.put(key, ok)
        self.verified += 1

    def _deliver(self, jobs: Sequence[VerificationJob], verdicts: list[bool]) -> None:
        # Runs at simulated completion time.  Each job's verdict is cached
        # before its waiter hears it, so a waiter's hook raising (e.g. a
        # user on_spam) can neither lose a verdict nor strand the rest of
        # the batch: every verdict is delivered, then the first failure
        # surfaces.
        first_error: Exception | None = None
        for job, ok in zip(jobs, verdicts):
            self._land(job.key, ok, job.trace)
            del self._in_flight[job.key]
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
