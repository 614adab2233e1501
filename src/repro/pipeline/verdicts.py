"""The shared proof-verdict cache and its cross-protocol checker.

The relay pipeline caches every Groth16 verdict keyed by (statement,
proof) hash; this module makes the same cache reachable from the other
Waku protocol paths — store archival, filter pushes, and lightpush
service (ROADMAP: "verdict-cache sharing across protocols").  A bundle
the relay already judged is re-validated on those paths by one cache
lookup instead of a fresh pairing evaluation, and a verdict first
computed on a service path warms the cache for the relay in turn.
"""

from __future__ import annotations

import hashlib

from repro.core.messages import RateLimitProof
from repro.errors import ProtocolError
from repro.exec.executor import CryptoExecutor, Priority, SynchronousCryptoExecutor
from repro.net.promise import Promise
from repro.pipeline.lru import BoundedLRU
from repro.waku.message import WakuMessage
from repro.zksnark.prover import RLNProver
from repro.zksnark.rln_circuit import RLNPublicInputs


class VerdictCache:
    """Bounded LRU of proof verdicts keyed by (statement, proof) hash."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError("verdict cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: BoundedLRU[bytes, bool] = BoundedLRU(capacity)

    @staticmethod
    def key(bundle: RateLimitProof, public: RLNPublicInputs | None = None) -> bytes:
        """Hash binding the proof to the exact statement it claims.

        ``public`` lets callers that already reassembled the statement
        avoid a second ``public_inputs()`` derivation on the hot path.
        """
        if public is None:
            public = bundle.public_inputs()
        return hashlib.sha256(
            public.serialize() + bundle.proof.serialize()
        ).digest()

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
    """Proof re-validation backed by a (usually shared) verdict cache.

    Constructed from a peer's pipeline
    (:meth:`~repro.pipeline.pipeline.ValidationPipeline.shared_checker`)
    and handed to :class:`~repro.waku.store.StoreNode`,
    :class:`~repro.waku.filter.FilterNode`, and
    :class:`~repro.waku.lightpush.LightPushNode`.  Only the pairing check
    is shared — epoch windows, root recognition, and the nullifier rate
    check stay with each path's own validator.
    """

    def __init__(
        self,
        prover: RLNProver,
        cache: VerdictCache,
        *,
        executor: CryptoExecutor | None = None,
        priority: Priority = Priority.SERVICE,
    ) -> None:
        self.prover = prover
        self.cache = cache
        #: Fresh pairing work goes through this executor at ``priority``
        #: (SERVICE by default — behind the relay's RELAY-class flushes).
        #: The inline default keeps stand-alone checkers synchronous.
        self.executor: CryptoExecutor = executor or SynchronousCryptoExecutor(
            counter=prover.pairing_counter
        )
        self.priority = priority
        #: Verdicts served from the shared cache (no pairing work).
        self.cache_hits = 0
        #: Verdicts that required a real pairing evaluation here.
        self.verified = 0
        #: Deferred checks that joined a check of the same proof already
        #: in the executor's queue (no pairing work, no extra job).
        self.joined_in_flight = 0
        #: key -> in-flight verdict promise; the cache only fills at
        #: completion, so this is what stops two service paths racing the
        #: same proof into two identical pairing jobs.
        self._in_flight: dict[bytes, Promise[bool]] = {}

    def check_deferred(self, bundle: RateLimitProof) -> Promise[bool]:
        """Verdict promise for one bundle; pairing work rides the executor.

        A cache hit resolves immediately without touching the executor; a
        check of the same proof already queued hands back that check's
        promise instead of submitting a second identical job; a true miss
        submits the pairing check at this checker's priority class and
        resolves at (simulated) completion.  With a synchronous executor
        the promise is always resolved on return, which is how the
        ``workers=0`` default stays pinned to the old inline path.
        """
        public = bundle.public_inputs()
        key = VerdictCache.key(bundle, public)
        cached = self.cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            promise: Promise[bool] = Promise()
            promise.resolve(cached)
            return promise
        pending = self._in_flight.get(key)
        if pending is not None:
            self.joined_in_flight += 1
            return pending
        promise = Promise()
        self._in_flight[key] = promise

        def finish(ok: bool) -> None:
            del self._in_flight[key]
            self.verified += 1
            self.cache.put(key, ok)
            promise.resolve(ok)

        self.executor.submit(
            lambda: self.prover.verify(public, bundle.proof),
            finish,
            priority=self.priority,
        )
        return promise

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
