"""WAKU-RLN-RELAY: the spam-protected relay peer (§III).

:class:`WakuRLNRelayPeer` composes every layer of the reproduction the way
Figure 1 of the paper composes the system:

* a :class:`~repro.waku.relay.WakuRelay` endpoint (GossipSub underneath),
* the deployment's :class:`~repro.core.membership.GroupManager`, the
  identity tree synced from the membership contract's events (§III-C),
* a :class:`~repro.core.validator.BundleValidator` implementing the §III-F
  routing decision, wrapped in a staged
  :class:`~repro.pipeline.pipeline.ValidationPipeline` (prefilter gates,
  ingress token buckets, verdict cache, batched Groth16 verification)
  installed as the relay's message validator,
* a :class:`~repro.revocation.coordinator.SlashingCoordinator` (over the
  peer's own :class:`~repro.core.slashing.Slasher`) racing commit-reveal
  slashing when the validator produces spam evidence (``auto_slash``).

The relay hook *is* the pipeline: the router acts on each verdict's
``action``, and the pipeline itself reports spam evidence and un-witnesses
the ids it sheds.  With the default ``PipelineConfig()`` (``batch_size=1``,
``workers=0``) validation is synchronous and observationally identical to
the seed's direct ``BundleValidator`` hook below the ingress token-bucket
rates (a flood's excess is shed, not verified as the seed did); larger batch
sizes defer verdicts through a :class:`~repro.net.promise.Promise` the
router parks on until the batch, handed to a lane once one can take it,
lands, and ``workers >= 1`` gives the pipeline's crypto executor that many
worker lanes, so relay callbacks return immediately even when a batch runs.

Publishing (§III-E) derives the epoch from the peer's own (possibly
drifting) clock, enforces the local one-message-per-epoch discipline, and
attaches the proof bundle.  A ``force=True`` escape hatch exists so the
experiments can *be* the spammer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core.config import RLNConfig
from repro.core.epoch import external_nullifier
from repro.core.membership import GroupManager
from repro.core.messages import RateLimitProof
from repro.core.nullifier_log import SpamEvidence
from repro.core.slashing import Slasher
from repro.core.validator import BundleValidator
from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleProof
from repro.errors import ProtocolError, RegistrationError
from repro.gossipsub.messages import PubSubMessage
from repro.gossipsub.scoring import ScoreParams
from repro.net.clock import PeerClock
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline, Verdict
from repro.telemetry import resolve as resolve_telemetry
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelay
from repro.zksnark.prover import RLNProver, shared_prover
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

#: Default content topic for RLN-protected traffic.
DEFAULT_CONTENT_TOPIC = "/rln/1/chat/proto"


@dataclass
class PeerProtocolStats:
    """Protocol-level counters (router counters live in relay.stats)."""

    published: int = 0
    publish_rate_limited: int = 0
    spam_detected: int = 0
    slash_attempts: int = 0


def build_message(
    identity: Identity,
    payload: bytes,
    epoch: int,
    merkle_proof: MerkleProof,
    root: FieldElement,
    *,
    prover: RLNProver,
    content_topic: str,
    timestamp: float = 0.0,
) -> WakuMessage:
    """§III-E: public inputs → witness → proof → bundle → message.

    The one assembly, for a peer publishing from its own tree and for a
    light member publishing with a fetched path; ``root`` is the root
    ``merkle_proof`` folds to (the caller already holds it).
    """
    public = RLNPublicInputs.for_message(
        identity, payload, external_nullifier(epoch), root
    )
    witness = RLNWitness(identity=identity, merkle_proof=merkle_proof)
    bundle = RateLimitProof(
        share_x=public.x,
        share_y=public.y,
        internal_nullifier=public.internal_nullifier,
        epoch=epoch,
        root=root,
        proof=prover.prove(public, witness),
    )
    return WakuMessage(
        payload=payload,
        content_topic=content_topic,
        timestamp=timestamp,
        rate_limit_proof=bundle,
    )


class WakuRLNRelayPeer:
    """One spam-protected relay peer."""

    def __init__(
        self,
        peer_id: str,
        *,
        network: Network,
        simulator: Simulator,
        group: GroupManager,
        slash_key: bytes,
        config: RLNConfig | None = None,
        prover: RLNProver | None = None,
        clock: PeerClock | None = None,
        score_params: ScoreParams | None = None,
        auto_slash: bool = True,
        pipeline_config: PipelineConfig | None = None,
        rng: random.Random | None = None,
        telemetry=None,
    ) -> None:
        self.peer_id = peer_id
        self.simulator = simulator
        # The group's chain and contract are the peer's: one view of both.
        self.chain = group.chain
        self.contract = group.contract
        self.telemetry = resolve_telemetry(telemetry)
        self.config = config or RLNConfig()
        self.prover = prover or shared_prover(
            self.config.tree_depth, self.config.prover_backend
        )
        if self.prover.depth != self.config.tree_depth:
            raise ProtocolError("prover depth does not match config tree depth")
        self.clock = clock or PeerClock(genesis_unix=self.config.genesis_unix)
        self.identity: Identity | None = None  # create_identity / register
        self.stats = PeerProtocolStats()

        self.relay = WakuRelay(
            peer_id,
            network,
            simulator,
            score_params=score_params,
            rng=rng,
            telemetry=self.telemetry,
        )
        self.group = group
        self.validator = BundleValidator(self.config, self.prover, self.group)
        self.pipeline = ValidationPipeline(
            self.validator,
            self.prover,
            simulator,
            pipeline_config or PipelineConfig(),
            on_shed=self._on_shed,
            on_spam=self.report_spam,
            telemetry=self.telemetry,
            peer_id=peer_id,
        )
        self.slasher = Slasher(peer_id, self.chain, self.contract.address, slash_key)
        self.relay.set_validator(self._validate)
        # The pipeline above already minted this peer's tracer
        # (simulator-clocked) through the hub.
        self.disttracer = self.pipeline.tracer

        self._spam_callbacks: list[Callable[[SpamEvidence], None]] = []
        self._published_epochs: dict[int, int] = {}
        self._registration_tx: int | None = None
        self._stop_bucket_prune: Callable[[], None] | None = None
        self._witness_service = None
        self._slashing_coordinator = None
        self._telemetry_exporter = None
        if auto_slash:
            self.slashing_coordinator()

    # -- lifecycle --------------------------------------------------------------

    #: How often refilled ingress token buckets are swept.
    BUCKET_PRUNE_INTERVAL = 30.0

    def start(self) -> None:
        self.relay.start()
        self.pipeline.reopen()  # restart after stop() re-enables batching
        if self._stop_bucket_prune is None:
            self._stop_bucket_prune = self.simulator.every(
                self.BUCKET_PRUNE_INTERVAL, self._prune_ingress_buckets
            )

    def stop(self) -> None:
        # Drain the pending verification batch (resolving its parked
        # verdict promises and calling off its wait for a lane) so a
        # stopped peer neither drops bundles unjudged nor wakes up later
        # to verify them; in-flight RPCs that arrive after this point are
        # validated synchronously, never batched.
        self.pipeline.close()
        if self._stop_bucket_prune is not None:
            self._stop_bucket_prune()
            self._stop_bucket_prune = None
        if self._slashing_coordinator is not None:
            self._slashing_coordinator.close()
        if self._telemetry_exporter is not None:
            self._telemetry_exporter.close()
        self.relay.stop()

    def _prune_ingress_buckets(self) -> None:
        """Drop the ingress token buckets that have refilled (they admit as
        fresh ones would), whether their peer is still linked or gone."""
        self.pipeline.ratelimiter.prune(self.simulator.now)

    # -- registration (§III-B) ------------------------------------------------------

    def create_identity(self, secret: int | None = None) -> Identity:
        """Take ``secret`` as this peer's key, or a fresh random one."""
        if self.identity is not None:
            raise RegistrationError("peer already has an identity")
        self.identity = Identity.generate() if secret is None else Identity.from_secret(secret)
        return self.identity

    def request_registration(self) -> int:
        """Send the registration transaction (deposit attached).

        Registration completes when the transaction is mined and the
        ``MemberRegistered`` event reaches the group manager; check
        :attr:`registered`.
        """
        if self.identity is None:
            self.create_identity()
        assert self.identity is not None
        self._registration_tx = self.chain.send_transaction(
            self.peer_id,
            self.contract.address,
            "register",
            {"pk": self.identity.pk.value},
            value=self.contract.deposit,
            calldata=self.identity.pk.to_bytes(),
        )
        return self._registration_tx

    @property
    def registered(self) -> bool:
        if self.identity is None:
            return False
        return self.contract.is_member(self.identity.pk)

    # -- clock / epoch (§III-D) ---------------------------------------------------------

    def unix_now(self) -> float:
        return self.clock.unix_time(self.simulator.now)

    def current_epoch(self) -> int:
        # floor(unix_now() / T) (§III-D) in one frame, run per receipt; not
        # cached on the simulated time, as the clock's offset may change.
        clock = self.clock
        unix_time = clock.genesis_unix + self.simulator.now + clock.offset
        if unix_time < 0:
            raise ProtocolError("unix time must be non-negative")
        return int(unix_time // self.config.epoch_length)

    # -- publishing (§III-E) ---------------------------------------------------------------

    def publish(
        self,
        payload: bytes,
        *,
        content_topic: str = DEFAULT_CONTENT_TOPIC,
        force: bool = False,
    ) -> WakuMessage:
        """Publish a payload with its rate-limit proof attached.

        ``force=True`` skips the local one-message-per-epoch discipline —
        the spammer behaviour of the experiments.  The proof is still
        honestly generated; RLN's point is that the *second* honest proof
        in an epoch is what convicts you.
        """
        if self.identity is None or not self.registered:
            raise RegistrationError(f"{self.peer_id} is not a registered member")
        epoch = self.current_epoch()
        count = self._published_epochs.get(epoch, 0)
        if count >= 1 and not force:
            self.stats.publish_rate_limited += 1
            raise ProtocolError(
                f"rate limit: already published in epoch {epoch} "
                f"(one message per {self.config.epoch_length}s epoch)"
            )
        message = self._build_message(payload, content_topic, epoch)
        # Head-sample at the root.  A minted publish span rides the
        # message as its SpanContext; every relay hop then becomes a
        # child span on the receiving peer.  At trace_sample=0.0 ``span``
        # is None and the message is untouched.
        span = self.disttracer.begin_publish()
        if span is not None:
            span.mark("proof")
            message = message.with_trace(span.context)
        self._published_epochs[epoch] = count + 1
        # Keep the window the nullifier log keeps: an older epoch can
        # neither be published in again nor routed.
        oldest_kept = epoch - self.config.max_epoch_gap
        for stale in [e for e in self._published_epochs if e < oldest_kept]:
            del self._published_epochs[stale]
        self.stats.published += 1
        self.relay.publish(message)
        if span is not None:
            self.disttracer.finish(span)
        return message

    def _build_message(
        self, payload: bytes, content_topic: str, epoch: int
    ) -> WakuMessage:
        assert self.identity is not None
        return build_message(
            self.identity,
            payload,
            epoch,
            self.group.merkle_proof(self.identity.pk),
            self.group.root,
            prover=self.prover,
            content_topic=content_topic,
            timestamp=self.unix_now(),
        )

    # -- routing validation (§III-F) ----------------------------------------------------------

    def on_spam(self, callback: Callable[[SpamEvidence], None]) -> None:
        self._spam_callbacks.append(callback)

    def _validate(
        self, sender: str, pubsub_message: PubSubMessage
    ) -> "Verdict | Promise[Verdict]":
        # No framing pre-check here: the pipeline's stage-1 prefilter
        # classifies a non-WakuMessage payload as MALFORMED (-> REJECT).
        payload = pubsub_message.payload
        return self.pipeline.validate(
            sender,
            payload,
            self.current_epoch(),
            pubsub_message.msg_id,
            topic=pubsub_message.topic,
            now=self.simulator.now,
            trace_parent=getattr(payload, "trace", None),
        )

    def report_spam(self, evidence: SpamEvidence) -> None:
        """Count one conviction and feed it to every ``on_spam`` subscriber
        (a traced conviction's evidence carries its span context, which
        the slashing coordinator's revocation span hangs from)."""
        self.stats.spam_detected += 1
        for callback in list(self._spam_callbacks):
            callback(evidence)

    def _on_shed(self, sender: str, msg_id: bytes, penalise: bool) -> None:
        """Un-witness an id the token buckets shed unjudged, so a retry can
        land; a per-peer overflow (``penalise``) is a behaviour penalty.

        Peer scoring is the one eviction: once the penalties sink the
        sender's score, the next heartbeat drops it from the mesh and its
        GRAFTs are refused (``mesh_eligible``).  Without scoring, the
        bucket alone throttles it.
        """
        router = self.relay.router
        if penalise:
            router.penalise(sender)
        router.forget_seen(msg_id)

    # -- convenience ---------------------------------------------------------------------------------

    def witness_service(self):
        """Run the §IV-A resourceful role: serve witnesses & snapshots.

        The service answers over this peer's network endpoint from its
        group manager's tree, and its extraction work rides the relay
        pipeline's crypto executor at SERVICE priority — witness traffic
        queues behind relay verdicts, exactly like store/filter/lightpush
        re-validation.  One service per peer: repeat calls return the
        same instance (its stats stay live).
        """
        from repro.witness.service import WitnessService

        if self._witness_service is None:
            self._witness_service = WitnessService(
                self.peer_id,
                self.group,
                self.relay.router.network,
                executor=self.pipeline.executor,
                telemetry=self.telemetry,
            )
        return self._witness_service

    def slashing_coordinator(self):
        """Run the distributed-revocation role: race detected spam to
        on-chain removal.

        Spam evidence from this peer's validation pipeline flows to
        :meth:`~repro.revocation.coordinator.SlashingCoordinator.observe`,
        which dedups cases, races commit-reveal through this peer's
        :attr:`slasher`, pumps settlement on the simulator, and stamps
        the ``MemberRemoved`` timeline.  ``auto_slash=True`` calls this at
        construction.  One coordinator per peer: repeat calls return the
        same instance (its stats stay live).
        """
        from repro.revocation.coordinator import SlashingCoordinator

        if self._slashing_coordinator is None:
            coordinator = SlashingCoordinator(
                self.slasher, self.contract, self.simulator, telemetry=self.telemetry
            )
            self._slashing_coordinator = coordinator

            def observe(evidence: SpamEvidence) -> None:
                if coordinator.observe(evidence) is not None:
                    self.stats.slash_attempts += 1

            self.on_spam(observe)
        return self._slashing_coordinator

    def telemetry_exporter(self, collectors: list[str], **options):
        """Run the fleet-telemetry push role: delta batches to a collector.

        Requires this peer to have been built with an *enabled* (and, for
        meaningful per-peer resource attribution, per-peer) telemetry hub
        — the OTLP-style exporter snapshots that hub's registry on its
        ``interval`` and pushes the diff over the ``telemetry`` protocol
        channel, failing over across ``collectors``.  ``options`` are
        :class:`~repro.telemetry.exporter.TelemetryExporter`'s keywords
        (``role``, ``shard``, ``interval``, ``heartbeat``, …).  One
        exporter per peer: repeat calls return the same instance (its
        stats stay live); :meth:`stop` closes it.
        """
        from repro.telemetry.exporter import TelemetryExporter

        if not self.telemetry.enabled:
            raise ProtocolError(
                f"{self.peer_id} has telemetry disabled; pass telemetry= "
                "(or deploy with collector=) before exporting"
            )
        if self._telemetry_exporter is None:
            self._telemetry_exporter = TelemetryExporter(
                self.peer_id,
                self.telemetry,
                self.relay.router.network,
                self.simulator,
                collectors=collectors,
                **options,
            )
        return self._telemetry_exporter

    @property
    def crypto_executor(self):
        """The pipeline's crypto executor (lanes, queues, occupancy stats)."""
        return self.pipeline.executor

    @property
    def router_stats(self):
        return self.relay.stats

    @property
    def pipeline_stats(self):
        return self.pipeline.stats
