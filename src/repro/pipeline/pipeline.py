"""The staged ingress validation pipeline (§III-F, production-shaped).

Composes the routing decision of §III-F the way production gossip stacks
layer ingress validation — cheap gates first, expensive ones batched:

1. :class:`~repro.pipeline.prefilter.Prefilter` — framing/size/epoch-window
   gates (no field arithmetic);
2. :class:`~repro.pipeline.ratelimit.IngressRateLimiter` — token buckets
   per forwarding peer and per topic, feeding GossipSub behaviour
   penalties on overflow;
3. the existing :class:`~repro.core.validator.BundleValidator` cheap checks
   — root recognition and payload binding (§III-F items 2-3);
4. the peer's one :class:`~repro.pipeline.batch_verifier.BatchVerifier`,
   shared with its store/filter/lightpush roles — a **proof-verdict
   cache** keyed by (statement, proof) hash, so a re-broadcast of an
   already-judged bundle (e.g. after root churn or seen TTL expiry)
   never re-verifies; a table of the checks still pending, so one that is
   being judged right now is joined; and batched Groth16 verification
   with per-proof fallback, a batch leaving as soon as a crypto lane can
   take it;
5. the nullifier-map rate check (§III-F item 3) once the verdict lands.

Outcomes that exist in the seed's :class:`ValidationOutcome` vocabulary are
recorded in the wrapped validator's stats, so ``batch_size=1`` (the
default) is observationally identical to calling
``BundleValidator.validate`` directly *for traffic below the token-bucket
rates* — under a flood the buckets deliberately shed load the seed would
have verified; pipeline-only drops (framing, size, rate limit) are
counted in :class:`PipelineStats` alone.  Message ids (which cover the
bundle) are deduplicated once, by the router's message table, before
:meth:`ValidationPipeline.validate` is called.

Every judged bundle is concluded in one place, inline or when a deferred
proof verdict lands: its outcome is booked, its span finished, spam
evidence handed to ``on_spam`` — and a bundle shed unjudged by the buckets
is reported to ``on_shed`` — before the :class:`Verdict` goes back to the
router, which acts on its ``action``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.nullifier_log import SpamEvidence
from repro.core.validator import BundleValidator, ValidationOutcome
from repro.errors import ProtocolError
from repro.exec.executor import Priority, SimulatedCryptoExecutor
from repro.gossipsub.router import ValidationResult
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.batch_verifier import BatchVerifier
from repro.pipeline.prefilter import Prefilter, PrefilterOutcome
from repro.pipeline.ratelimit import (
    BucketSpec,
    IngressRateLimiter,
    RateLimitStats,
    RateLimitVerdict,
)
from repro.telemetry import Telemetry, resolve as resolve_telemetry
from repro.telemetry import tracing
from repro.telemetry.disttrace import ActiveSpan, Disabled
from repro.waku.message import WakuMessage
from repro.zksnark.prover import RLNProver


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the staged pipeline; defaults preserve seed behaviour.

    ``batch_size=1`` verifies synchronously like the seed; larger values
    defer relay verdicts to a window that leaves at the end of the instant
    or when a lane frees, split across the idle lanes in batches of at
    most that many proofs.  The default
    bucket specs are deliberately generous — honest traffic (one message
    per member per epoch) never trips them; they exist to bound the
    *verification* work a misbehaving forwarder can demand.
    """

    batch_size: int = 1
    #: Unread (a batch waits for a lane, never for a timer); accepted and
    #: validated only because ``benchmarks/e2e`` passes it.
    batch_deadline: float = 0.05
    peer_bucket: BucketSpec | None = field(
        default_factory=lambda: BucketSpec(capacity=256.0, refill_per_second=64.0)
    )
    topic_bucket: BucketSpec | None = field(
        default_factory=lambda: BucketSpec(capacity=1024.0, refill_per_second=256.0)
    )
    #: Crypto worker lanes.  0 (the default) verifies inline in the relay
    #: callback, bit-identical to the pre-executor path; >= 1 gives the
    #: :class:`~repro.exec.executor.SimulatedCryptoExecutor` that many
    #: lanes: relay callbacks return at once, a window's batches run on
    #: every idle lane, and verdicts resolve at simulated completion time.
    workers: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        if self.batch_deadline <= 0:
            raise ProtocolError("batch_deadline must be positive")
        if self.workers < 0:
            raise ProtocolError("workers must be >= 0")


@dataclass(frozen=True)
class Verdict:
    """The pipeline's final word on one bundle; the router acts on ``action``."""

    action: ValidationResult
    outcome: ValidationOutcome | None  # None for pipeline-only drops
    evidence: SpamEvidence | None = None


#: The router action per §III-F outcome (the rest are rejected).
_ACTIONS = {
    ValidationOutcome.VALID: ValidationResult.ACCEPT,
    ValidationOutcome.DUPLICATE: ValidationResult.IGNORE,
}
#: Every evidence-free verdict is a shared frozen instance, found by outcome
#: slot; the pipeline-only drops are named below.  Only a verdict carrying
#: spam evidence is built per bundle.
_SHARED_VERDICTS = [
    Verdict(_ACTIONS.get(outcome, ValidationResult.REJECT), outcome)
    for outcome in ValidationOutcome
]
_RATE_LIMITED = Verdict(ValidationResult.IGNORE, None)
_GATE_REJECT = Verdict(ValidationResult.REJECT, None)
#: The seed outcome per prefilter gate slot (``None``: a pipeline-only drop).
_GATE_OUTCOMES = [
    {
        PrefilterOutcome.MISSING_PROOF: ValidationOutcome.MISSING_PROOF,
        PrefilterOutcome.STALE_EPOCH: ValidationOutcome.INVALID_EPOCH_GAP,
    }.get(gate)
    for gate in PrefilterOutcome
]


@dataclass
class PipelineStats:
    """Stage-level accounting on top of the sub-stage stats objects."""

    admitted: int = 0
    deferred: int = 0
    #: Bundles not accepted, by the stage that turned them away (a key
    #: appears with its first drop).
    drops: dict[str, int] = field(default_factory=dict)
    #: The limiter's own stats object; set by the owning pipeline so
    #: ``rate_limited`` is always the single source of truth.
    ratelimit: RateLimitStats | None = None

    @property
    def rate_limited(self) -> int:
        """Bundles shed by the token buckets (delegated, never drifts)."""
        return 0 if self.ratelimit is None else self.ratelimit.total_limited()


class ValidationPipeline:
    """Staged ingress validation wrapping one peer's :class:`BundleValidator`."""

    def __init__(
        self,
        validator: BundleValidator,
        prover: RLNProver,
        simulator: Simulator | None = None,
        config: PipelineConfig | None = None,
        *,
        on_shed: Callable[[str, bytes, bool], None] | None = None,
        on_spam: Callable[[SpamEvidence, bytes], None] | None = None,
        telemetry: "Telemetry | Disabled | None" = None,
        peer_id: str = "",
    ) -> None:
        self.validator = validator
        self.config = config or PipelineConfig()
        self.simulator = simulator
        self.telemetry = resolve_telemetry(telemetry)
        self.peer_id = peer_id
        clock = (lambda: simulator.now) if simulator is not None else None
        self.tracer = self.telemetry.disttracer(peer_id or "pipeline", clock=clock)
        registry = self.telemetry.registry
        self._moved = registry.marker(
            registry.bind("pipeline_admitted_total", lambda: self.stats.admitted, peer=peer_id),
            registry.bind("pipeline_deferred_total", lambda: self.stats.deferred, peer=peer_id),
        )
        self._dropped: dict[str, Callable[[], None]] = {}  # per stage, as ``_moved``
        self.prefilter = Prefilter(max_epoch_gap=validator.config.max_epoch_gap)
        self.ratelimiter = IngressRateLimiter(
            peer_spec=self.config.peer_bucket,
            topic_spec=self.config.topic_bucket,
        )
        # The pipeline owns the crypto executor: workers=0 is the inline
        # (seed-pinned) path, workers>=1 models that many worker lanes on
        # the simulator.  The same executor serves the relay flushes (at
        # RELAY priority) and the store/filter/lightpush re-validation (at
        # SERVICE priority), so heavy query load queues behind relay
        # verdicts rather than competing with them.
        self.executor = SimulatedCryptoExecutor(
            simulator,
            self.config.workers,
            counter=prover.pairing_counter,
            registry=registry,
            peer=peer_id,
        )
        self.batch_verifier = BatchVerifier(
            prover,
            simulator,
            batch_size=self.config.batch_size,
            executor=self.executor,
            registry=registry,
            peer=peer_id,
        )
        self.stats = PipelineStats(ratelimit=self.ratelimiter.stats)
        self._on_shed = on_shed
        self._on_spam = on_spam

    # -- the decision -----------------------------------------------------------

    def validate(
        self,
        sender: str,
        message: object,
        local_epoch: int,
        msg_id: bytes,
        *,
        topic: str = "",
        now: float = 0.0,
        trace_parent=None,
    ) -> "Verdict | Promise[Verdict]":
        """Run one bundle through the stages to its verdict: settled inline
        once the proof verdict has landed, a promise of it only while the
        check is in flight (an open batch window, or a lane).

        ``trace_parent`` is the inbound message's
        :class:`~repro.telemetry.disttrace.SpanContext`, if any: the
        validation span becomes a child of the sender's hop, keyed by
        ``msg_id`` so the relay layer can re-stamp the forwarded copy
        with this peer's own span.  Untraced, it is a local root.
        """
        trace = self.tracer.begin(parent=trace_parent, key=msg_id)
        # Stage 1 — stateless gates (no field arithmetic).
        gate = self.prefilter.check(message, local_epoch)
        trace.mark(tracing.PREFILTER)
        if gate is not PrefilterOutcome.PASS:
            outcome = _GATE_OUTCOMES[gate.slot]
            if outcome is not None:
                # Gates that exist in the seed vocabulary keep its accounting.
                return self._conclude(outcome, None, "prefilter", msg_id, trace)
            self._count_drop("prefilter")
            self.tracer.finish(trace)
            return _GATE_REJECT

        # Stage 2 — token buckets.  A shed bundle is IGNOREd, not REJECTed
        # (its validity was never checked: no invalid-message penalty), and
        # ``on_shed`` may un-witness its id so a retry lands once the bucket
        # refills.  Only a per-peer overflow asks for a behaviour penalty: a
        # shared topic-bucket denial is aggregate back-pressure.
        admission = self.ratelimiter.allow(sender, topic, now)
        trace.mark(tracing.RATELIMIT)
        if admission is not RateLimitVerdict.ALLOWED:
            self._count_drop("ratelimit")
            self.tracer.finish(trace)
            if self._on_shed is not None:
                self._on_shed(sender, msg_id, admission is RateLimitVerdict.PEER_LIMITED)
            return _RATE_LIMITED

        assert isinstance(message, WakuMessage)
        validator = self.validator
        # Stage 3 — root recognition and payload binding (§III-F items 2-3).
        outcome = validator.classify_cheap(message)
        trace.mark(tracing.CHEAP_CHECKS)
        if outcome is not None:
            return self._conclude(outcome, None, "cheap-checks", msg_id, trace)
        # Stage 4 — the verdict's one front door: cache, then whatever is
        # already pending for this (statement, proof) on any of the peer's
        # paths, then the pairing check.  A straight re-broadcast does not
        # reach this point (the receiver's msg_id covers payload, content
        # topic and bundle, and the router's table drops a witnessed id);
        # the same proof under a different content_topic does, and joins.
        # Whoever paid, the nullifier log still runs on the verdict, so a
        # second copy lands as DUPLICATE.
        proof_verdict, fresh = self.batch_verifier.check(
            message.rate_limit_proof, priority=Priority.RELAY, trace=trace
        )
        if fresh:
            validator.stats.proofs_verified += 1
        else:
            validator.stats.proofs_cached += 1
        if isinstance(proof_verdict, Promise):
            pending: Promise[Verdict] = Promise()
            proof_verdict.subscribe(
                lambda ok: pending.resolve(
                    self._settle(message, local_epoch, msg_id, ok, fresh, trace)
                )
            )
            self.stats.deferred += 1
            self._moved()
            return pending
        return self._settle(message, local_epoch, msg_id, proof_verdict, fresh, trace)

    def close(self) -> None:
        """Drain pending crypto and pin the pipeline to synchronous mode.

        Called from the owning peer's ``stop()``; see
        :meth:`BatchVerifier.close` — late arrivals on the relay and
        service paths alike are verified inline from here on.
        """
        self.batch_verifier.close()
        # From shutdown on, snapshots carry the run's utilisation summary
        # (queue depth and busy lanes read 0 by themselves: the drain
        # emptied what they are bound to), marked wherever service is booked.
        stats = self.executor.stats
        elapsed = self.simulator.now if self.simulator is not None else 0.0
        registry = self.telemetry.registry
        bind = partial(registry.bind, peer=self.peer_id)
        self.executor.served = registry.marker(
            bind("executor_lane_occupancy", lambda: stats.occupancy(elapsed), "gauge"),
            bind("executor_service_seconds_total", lambda: stats.service_seconds, "gauge"),
        )

    def reopen(self) -> None:
        """Re-enable batching and worker lanes after :meth:`close`."""
        self.batch_verifier.reopen()

    # -- helpers ----------------------------------------------------------------

    def _count_drop(self, stage: str) -> None:
        drops = self.stats.drops
        if stage not in drops:
            drops[stage] = 0
            registry = self.telemetry.registry
            self._dropped[stage] = registry.marker(registry.bind(
                "pipeline_drops_total", lambda: drops[stage], peer=self.peer_id, stage=stage
            ))
        drops[stage] += 1
        self._dropped[stage]()

    def _settle(
        self,
        message: WakuMessage,
        local_epoch: int,
        msg_id: bytes,
        proof_ok: bool,
        fresh: bool,
        trace: ActiveSpan | Disabled,
    ) -> Verdict:
        """Stage 5 on a landed proof verdict (inline, or after
        :meth:`validate` returned): the nullifier-map rate check (§III-F
        item 3)."""
        outcome, evidence = self.validator.classify_after_proof(
            message, local_epoch, msg_id, proof_ok
        )
        if fresh:
            trace.mark(tracing.RESOLVE)
        stage = "verify" if fresh else "verdict-cache"
        return self._conclude(outcome, evidence, stage, msg_id, trace)

    def _conclude(
        self,
        outcome: ValidationOutcome,
        evidence: SpamEvidence | None,
        stage: str,
        msg_id: bytes,
        trace: ActiveSpan | Disabled,
    ) -> Verdict:
        """Book a judged bundle's outcome, close its span, hand spam
        evidence to ``on_spam`` and return the verdict."""
        self.validator.stats.counts[outcome.slot] += 1
        if outcome is ValidationOutcome.VALID:
            self.stats.admitted += 1
            self._moved()
        else:
            self._count_drop(stage)
        self.tracer.finish(trace)
        if evidence is None:
            return _SHARED_VERDICTS[outcome.slot]
        if self._on_spam is not None:
            self._on_spam(evidence, msg_id)
        return Verdict(ValidationResult.REJECT, outcome, evidence)
