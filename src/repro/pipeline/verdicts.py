"""The proof-verdict cache and the one front door to a proof's verdict.

A peer is asked for the verdict of a ``(statement, proof)`` pair on four
paths — the relay pipeline's stage 4, store archival, filter pushes and
lightpush service — and all four ask :meth:`SharedProofChecker.check`.
A bundle any path already judged costs one cache lookup; a bundle any
path is *still judging* (parked in the relay's batch window, queued or
running on an executor lane) is joined, never verified a second time.
"""

from __future__ import annotations

import hashlib

from repro.core.messages import RateLimitProof
from repro.exec.executor import Priority
from repro.net.promise import Promise
from repro.pipeline.batch_verifier import BatchVerifier
from repro.pipeline.lru import BoundedLRU
from repro.telemetry.disttrace import NULL_TRACE, ActiveSpan, NullTrace
from repro.telemetry.tracing import BATCH_ENQUEUE, VERDICT_CACHE
from repro.waku.message import WakuMessage
from repro.zksnark.prover import RLNProver


#: Verdicts a peer remembers; a pipeline's cache is this size.
VERDICT_CACHE_CAPACITY = 8192


class VerdictCache:
    """Bounded LRU of proof verdicts keyed by (statement, proof) hash."""

    def __init__(self, capacity: int = VERDICT_CACHE_CAPACITY) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: BoundedLRU[bytes, bool] = BoundedLRU(capacity)

    @staticmethod
    def key(bundle: RateLimitProof) -> bytes:
        """Hash binding the proof to the exact statement it claims.

        Remembered on the frozen bundle, which every receiver shares (a
        ``replace`` of any field, the proof included, starts clean).
        """
        key = bundle.__dict__.get("_verdict_key")
        if key is None:
            key = hashlib.sha256(
                bundle.public_inputs().serialize() + bundle.proof.serialize()
            ).digest()
            object.__setattr__(bundle, "_verdict_key", key)
        return key

    def get(self, key: bytes) -> bool | None:
        verdict = self._entries.get(key)  # values are bool, never None
        if verdict is None:
            self.misses += 1
            return None
        self.hits += 1
        return verdict

    def put(self, key: bytes, verdict: bool) -> None:
        self._entries.put(key, verdict)

    def __len__(self) -> int:
        return len(self._entries)


class SharedProofChecker:
    """Who runs a pairing check, when, and who remembers the verdict.

    One per peer, built by its pipeline
    (:meth:`~repro.pipeline.pipeline.ValidationPipeline.shared_checker`),
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
        cache: VerdictCache,
        batch_verifier: BatchVerifier | None = None,
    ) -> None:
        self.prover = prover
        self.cache = cache
        #: Relay-class work waits in this verifier's size-or-deadline
        #: window; the stand-alone default (a window of one, no lanes)
        #: keeps a checker built without a pipeline synchronous.
        self.batch_verifier = batch_verifier or BatchVerifier(prover)
        #: Service-class work goes straight to the executor the window
        #: flushes into, so the two classes queue against each other.
        self.executor = self.batch_verifier.executor
        #: Verdicts served from the cache (no pairing work).
        self.cache_hits = 0
        #: Verdicts that required a real pairing evaluation.
        self.verified = 0
        #: Requests that joined a check of the same proof already pending
        #: on this peer (no pairing work, no extra job).
        self.joined_in_flight = 0
        #: key -> verdict promise of every check enqueued and not yet
        #: landed, whichever path asked; the cache only fills at
        #: completion, so this is what stops two paths racing the same
        #: proof into two identical pairing jobs.
        self._in_flight: dict[bytes, Promise[bool]] = {}

    def check(
        self,
        bundle: RateLimitProof,
        *,
        priority: Priority = Priority.SERVICE,
        trace: "ActiveSpan | NullTrace" = NULL_TRACE,
    ) -> "tuple[bool | Promise[bool], bool]":
        """The verdict for one bundle, and whether it is *fresh*.

        Cache lookup, then the in-flight table, then enqueue: a
        ``Priority.RELAY`` request into the batch verifier's window, any
        other class straight to the executor.  A verdict that has landed
        — a cache hit, or a job run inline (every one at ``batch_size=1``
        with zero lanes) — is returned as the plain ``bool``; only work
        left in flight is a promise, entered in the in-flight table for
        the next request of the same proof to join (resolved on return if
        it filled the window and the flush ran inline).  ``fresh`` is true
        only for the request that enqueued the pairing work.  The cache
        is written here, once, when the work completes.  ``trace`` is the
        bundle's span, marked ``verdict-cache`` or ``batch-enqueue``.
        """
        key = VerdictCache.key(bundle)
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
        public = bundle.public_inputs()
        if priority is Priority.RELAY:
            verdict = self.batch_verifier.submit(public, bundle.proof, trace=trace)
        else:
            verdict = self.executor.submit(
                self.prover.verify, priority=priority, args=(public, bundle.proof)
            )
        if isinstance(verdict, Promise):
            self._in_flight[key] = verdict
            # Subscribed first, then the size trigger: see flush_if_full.
            verdict.subscribe(lambda ok: self._landed(key, ok))
            self.batch_verifier.flush_if_full()
        else:
            self._landed(key, verdict)
        return verdict, True

    def _landed(self, key: bytes, ok: bool) -> None:
        self._in_flight.pop(key, None)
        self.verified += 1
        self.cache.put(key, ok)

    def check_deferred(self, bundle: RateLimitProof) -> Promise[bool]:
        """Service-path verdict promise for one bundle (see :meth:`check`)."""
        verdict = self.check(bundle)[0]
        if not isinstance(verdict, Promise):
            verdict, landed = Promise(), verdict
            verdict.resolve(landed)
        return verdict

    def check_message_deferred(self, message: WakuMessage) -> Promise[bool] | None:
        """Verdict promise for a message's attached proof; ``None`` when absent.

        ``None`` (no bundle attached) lets proof-less system traffic —
        e.g. tree-sync announcements — pass through paths that archive or
        forward arbitrary Waku messages.
        """
        bundle = message.rate_limit_proof
        if not isinstance(bundle, RateLimitProof):
            return None
        return self.check_deferred(bundle)
