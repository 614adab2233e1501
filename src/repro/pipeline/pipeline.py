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
   already-judged bundle (e.g. after root churn or seen-cache expiry)
   never re-verifies; a table of the checks still pending, so one that is
   being judged right now is joined; and batched Groth16 verification
   with per-proof fallback, flushing on size-or-deadline;
5. the nullifier-map rate check (§III-F item 3) once the verdict lands.

Outcomes that exist in the seed's :class:`ValidationOutcome` vocabulary are
recorded in the wrapped validator's stats, so ``batch_size=1`` (the
default) is observationally identical to calling
``BundleValidator.validate`` directly *for traffic below the token-bucket
rates* — under a flood the buckets deliberately shed load the seed would
have verified; pipeline-only drops (framing, size, rate limit) are
counted in :class:`PipelineStats` alone.  Message ids are deduplicated
once, by the router's seen-cache, before :meth:`ValidationPipeline.validate`
is called.
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
    defer verdicts until the batch fills or ``batch_deadline`` simulated
    seconds pass.  The default bucket specs are deliberately generous —
    honest traffic (one message per member per epoch) never trips them;
    they exist to bound the *verification* work a misbehaving forwarder
    can demand.
    """

    batch_size: int = 1
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
    #: lanes, so relay callbacks return immediately and verdicts resolve
    #: at simulated completion time.
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
    """The pipeline's final word on one bundle."""

    action: ValidationResult
    outcome: ValidationOutcome | None  # None for pipeline-only drops
    evidence: SpamEvidence | None = None
    stage: str = ""
    cached: bool = False
    #: The bundle was shed unjudged (rate limiting): callers should
    #: un-witness its id from their seen-cache so a retry can land.
    retryable: bool = False


#: The router action per §III-F outcome (the rest are rejected).
_ACTIONS = {
    ValidationOutcome.VALID: ValidationResult.ACCEPT,
    ValidationOutcome.DUPLICATE: ValidationResult.IGNORE,
}
#: Every evidence-free verdict is a shared frozen instance, found by outcome
#: slot, then stage (only a verdict the cache served is ``cached``); the
#: pipeline-only drops are named below.  Only a verdict carrying spam
#: evidence is built per bundle.
_SHARED_VERDICTS = [
    {
        stage: Verdict(
            _ACTIONS.get(outcome, ValidationResult.REJECT), outcome, stage=stage,
            cached=stage == "verdict-cache",
        )
        for stage in ("prefilter", "cheap-checks", "verify", "verdict-cache")
    }
    for outcome in ValidationOutcome
]
_RATE_LIMITED = Verdict(ValidationResult.IGNORE, None, stage="ratelimit", retryable=True)
_GATE_REJECT = Verdict(ValidationResult.REJECT, None, stage="prefilter")
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
        on_rate_limit_penalty: Callable[[str], None] | None = None,
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
        registry.bind("pipeline_admitted_total", lambda: self.stats.admitted, peer=peer_id)
        registry.bind("pipeline_deferred_total", lambda: self.stats.deferred, peer=peer_id)
        # A verdict resolves against the local epoch captured at submit
        # time; a deadline spanning epochs would accept bundles the rest of
        # the network is already rejecting as out-of-window.
        if self.config.batch_deadline >= validator.config.epoch_length:
            raise ProtocolError(
                f"batch_deadline ({self.config.batch_deadline}s) must be "
                f"shorter than the epoch length ({validator.config.epoch_length}s)"
            )
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
            deadline=self.config.batch_deadline,
            executor=self.executor,
            registry=registry,
            peer=peer_id,
        )
        self.stats = PipelineStats(ratelimit=self.ratelimiter.stats)
        self._on_rate_limit_penalty = on_rate_limit_penalty

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
            verdict = self._gate_verdict(gate)
            self.tracer.finish(trace)
            return verdict

        # Stage 2 — token buckets; per-peer overflow feeds a GossipSub
        # behaviour penalty (a shared topic-bucket denial is aggregate
        # back-pressure, not the forwarder's fault — no penalty).
        admission = self.ratelimiter.allow(sender, topic, now)
        trace.mark(tracing.RATELIMIT)
        if admission is not RateLimitVerdict.ALLOWED:
            if (
                admission is RateLimitVerdict.PEER_LIMITED
                and self._on_rate_limit_penalty is not None
            ):
                self._on_rate_limit_penalty(sender)
            # The bundle was never judged: ``retryable`` tells the caller
            # to un-witness its id (the router's seen-cache), so a later
            # retry (once the bucket refills) is not mistaken for a replay.
            self._count_drop("ratelimit")
            self.tracer.finish(trace)
            # IGNORE, not REJECT — the router must not stack an
            # invalid-message penalty on content whose validity was never
            # checked.
            return _RATE_LIMITED

        assert isinstance(message, WakuMessage)
        validator = self.validator
        evidence = None
        # Stage 3 — root recognition and payload binding (§III-F items 2-3).
        outcome = validator.classify_cheap(message)
        trace.mark(tracing.CHEAP_CHECKS)
        if outcome is not None:
            stage = "cheap-checks"
        else:
            # Stage 4 — the verdict's one front door: cache, then whatever
            # is already pending for this (statement, proof) on any of the
            # peer's paths, then the pairing check.  A straight re-broadcast
            # does not reach this point (an identical wire message has an
            # identical msg_id, which the router's seen-cache suppresses);
            # the same proof rewrapped under a different content_topic
            # does, and joins.  Whoever paid, the nullifier log still runs
            # on the verdict, so a second copy lands as DUPLICATE.
            proof_verdict, fresh = self.batch_verifier.check(
                message.rate_limit_proof, priority=Priority.RELAY, trace=trace
            )
            if fresh:
                validator.stats.proofs_verified += 1
            else:
                validator.stats.proofs_cached += 1
            if isinstance(proof_verdict, Promise):
                if not proof_verdict.resolved:
                    pending: Promise[Verdict] = Promise()
                    proof_verdict.subscribe(
                        lambda ok: pending.resolve(
                            self._settle(message, local_epoch, msg_id, ok, fresh, trace)
                        )
                    )
                    self.stats.deferred += 1
                    return pending
                # A size-triggered flush ran inline.
                proof_verdict = proof_verdict.value
            # Stage 5 on the landed verdict (a cache hit, or a check run
            # inline): the nullifier-map rate check (§III-F item 3).
            outcome, evidence = validator.classify_after_proof(
                message, local_epoch, msg_id, proof_verdict
            )
            stage = "verify" if fresh else "verdict-cache"
            if fresh:
                trace.mark(tracing.RESOLVE)
        if evidence is None:  # _finish, spelled out for what settles here
            validator.stats.counts[outcome.slot] += 1
            if outcome is ValidationOutcome.VALID:
                self.stats.admitted += 1
            else:
                self._count_drop(stage)
            verdict = _SHARED_VERDICTS[outcome.slot][stage]
        else:
            verdict = self._finish(outcome, evidence, stage)
        self.tracer.finish(trace)
        return verdict

    def close(self) -> None:
        """Drain pending crypto and pin the pipeline to synchronous mode.

        Called from the owning peer's ``stop()``; see
        :meth:`BatchVerifier.close` — late arrivals on the relay and
        service paths alike are verified inline from here on.
        """
        self.batch_verifier.close()
        # From shutdown on, snapshots carry the run's utilisation summary
        # (queue depth and busy lanes read 0 by themselves: the drain
        # emptied what they are bound to).
        stats = self.executor.stats
        elapsed = self.simulator.now if self.simulator is not None else 0.0
        bind = partial(self.telemetry.registry.bind, peer=self.peer_id)
        bind("executor_lane_occupancy", lambda: stats.occupancy(elapsed), "gauge")
        bind("executor_service_seconds_total", lambda: stats.service_seconds, "gauge")

    def reopen(self) -> None:
        """Re-enable batching and worker lanes after :meth:`close`."""
        self.batch_verifier.reopen()

    # -- helpers ----------------------------------------------------------------

    def _count_drop(self, stage: str) -> None:
        drops = self.stats.drops
        if stage not in drops:
            drops[stage] = 0
            self.telemetry.registry.bind(
                "pipeline_drops_total",
                lambda: drops[stage],
                peer=self.peer_id,
                stage=stage,
            )
        drops[stage] += 1

    def _gate_verdict(self, gate: PrefilterOutcome) -> Verdict:
        outcome = _GATE_OUTCOMES[gate.slot]
        if outcome is not None:
            # Gates that exist in the seed vocabulary keep its accounting.
            return self._finish(outcome, None, "prefilter")
        self._count_drop("prefilter")
        return _GATE_REJECT

    def _settle(
        self,
        message: WakuMessage,
        local_epoch: int,
        msg_id: bytes,
        proof_ok: bool,
        fresh: bool,
        trace: ActiveSpan | Disabled,
    ) -> Verdict:
        """Stage 5 on a proof verdict that landed after :meth:`validate`
        returned, and the bundle's span closed."""
        outcome, evidence = self.validator.classify_after_proof(
            message, local_epoch, msg_id, proof_ok
        )
        verdict = self._finish(outcome, evidence, "verify" if fresh else "verdict-cache")
        if fresh:
            trace.mark(tracing.RESOLVE)
        self.tracer.finish(trace)
        return verdict

    def _finish(
        self, outcome: ValidationOutcome, evidence: SpamEvidence | None, stage: str
    ) -> Verdict:
        self.validator.stats.counts[outcome.slot] += 1
        if outcome is ValidationOutcome.VALID:
            self.stats.admitted += 1
        else:
            self._count_drop(stage)
        if evidence is None:
            return _SHARED_VERDICTS[outcome.slot][stage]
        action = _ACTIONS.get(outcome, ValidationResult.REJECT)
        return Verdict(
            action, outcome, evidence, stage=stage, cached=stage == "verdict-cache"
        )
