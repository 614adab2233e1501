"""The GossipSub router: mesh overlay, gossip, validation, scoring.

A from-scratch implementation of libp2p GossipSub (reference [2] of the
paper) sufficient for WAKU-RELAY to be "a thin layer over the libp2p
GossipSub routing protocol" (§I):

* per-topic **mesh** maintained between [D_lo, D_hi] around a target D,
* **heartbeat** doing mesh balancing, score decay and IHAVE gossip,
* **IHAVE/IWANT** lazy message pull for non-mesh neighbors,
* **IDONTWANT** (v1.2): a message is never forwarded to a peer known to
  hold it, and a peer whose verdict is pending says which ids it holds,
* **validation hooks** with v1.1 semantics — ACCEPT relays, IGNORE drops
  silently (duplicates), REJECT drops *and* penalises the forwarding peer,
  which is how an RLN validator plugs in (§III-F: "the effect of their
  attack is ... easily addressable by leveraging peer scoring"),
* optional **peer scoring** (the baseline defence of experiment E8).

Messages carry no publisher identity; ids are content-derived — the
receiver-anonymity property gossip routing gives WAKU-RELAY (§I).
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Any, Callable

from repro.errors import NetworkError, NotConnected, UnknownPeer
from repro.gossipsub.mcache import MessageCache, SeenCache
from repro.gossipsub.messages import (
    Graft,
    IDontWant,
    IHave,
    IWant,
    PubSubMessage,
    Prune,
    RPC,
    Subscribe,
)
from repro.gossipsub.scoring import PeerScoreKeeper, ScoreParams
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry import resolve as resolve_telemetry


class ValidationResult(Enum):
    """v1.1 validation outcomes."""

    ACCEPT = "accept"
    IGNORE = "ignore"
    REJECT = "reject"


class DeferredValidation(Promise[ValidationResult]):
    """A validator's promise of a verdict delivered later.

    Returned instead of a :class:`ValidationResult` when the verdict
    depends on work the validator has queued (batched proof verification,
    §III-F via the ingress pipeline).  The router parks the message and
    applies the usual accept/ignore/reject handling once :meth:`resolve`
    fires; duplicates arriving meanwhile are dropped by the seen-cache (and
    their senders spared the forward), as for a synchronous verdict.
    """

    __slots__ = ()


#: (from_peer, message) -> ValidationResult (or a DeferredValidation promise)
Validator = Callable[[str, PubSubMessage], "ValidationResult | DeferredValidation"]
#: (message) -> None
DeliveryCallback = Callable[[PubSubMessage], None]

#: Most ids one peer may name in IDONTWANTs for messages we have not seen
#: yet; each such hint expires with the mcache window.
MAX_EARLY_IDONTWANTS = 512


@dataclass(frozen=True)
class GossipSubParams:
    """Mesh and gossip parameters (libp2p defaults)."""

    d: int = 6
    d_lo: int = 4
    d_hi: int = 12
    d_lazy: int = 6
    heartbeat_interval: float = 1.0
    mcache_length: int = 5
    mcache_gossip: int = 3
    seen_ttl: float = 120.0

    def __post_init__(self) -> None:
        if not self.d_lo <= self.d <= self.d_hi:
            raise NetworkError("need d_lo <= d <= d_hi")


@dataclass
class RouterStats:
    """Counters used by the spam experiments."""

    published: int = 0
    delivered: int = 0
    forwarded: int = 0
    duplicates: int = 0
    rejected: int = 0
    ignored: int = 0
    validations: int = 0
    deferred: int = 0
    gossip_sent: int = 0
    iwant_served: int = 0
    #: Peers added to a mesh (inbound GRAFT accepted, or mesh filling).
    grafts: int = 0
    #: Scoring penalties handed out, by P7 (behaviour) and P4 (invalid
    #: message); both stay 0 with scoring off.
    behaviour_penalties: int = 0
    invalid_penalties: int = 0
    #: IDONTWANT frames sent and received, and forward copies skipped
    #: because the target was known to hold the message.
    idontwant_sent: int = 0
    idontwant_received: int = 0
    suppressed: int = 0
    #: Mesh size per topic as of the last heartbeat.
    mesh_size: dict[str, int] = field(default_factory=dict)


class GossipSubRouter:
    """One peer's GossipSub state machine."""

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        params: GossipSubParams | None = None,
        score_params: ScoreParams | None = None,
        rng: random.Random | None = None,
        telemetry=None,
    ) -> None:
        self.peer_id = peer_id
        self.network = network
        self.simulator = simulator
        self.params = params or GossipSubParams()
        self.rng = rng or random.Random(zlib.crc32(peer_id.encode()))
        self.scoring = (
            PeerScoreKeeper(score_params) if score_params is not None else None
        )
        self.stats = RouterStats()
        self.telemetry = resolve_telemetry(telemetry)
        stats, bind = self.stats, partial(self.telemetry.registry.bind, peer=peer_id)
        bind("gossipsub_grafts_total", lambda: stats.grafts)
        bind("gossipsub_penalties_total", lambda: stats.behaviour_penalties, kind="behaviour")
        bind(
            "gossipsub_penalties_total",
            lambda: stats.invalid_penalties,
            kind="invalid-message",
        )

        self._topics: set[str] = set()
        self._mesh: dict[str, set[str]] = {}
        self._peer_topics: dict[str, set[str]] = {}
        self._validators: dict[str, Validator] = {}
        self._callbacks: dict[str, list[DeliveryCallback]] = {}
        self._seen = SeenCache(ttl=self.params.seen_ttl)
        self._announced_to: set[str] = set()
        self._mcache = MessageCache(
            history_length=self.params.mcache_length,
            gossip_length=self.params.mcache_gossip,
        )
        #: msg id -> peers known to hold it: for a pending verdict, every
        #: peer that sent a copy or an IDONTWANT; for an unseen id, the
        #: IDONTWANT announcers.  :meth:`_forward` skips them.
        self._holders: dict[bytes, set[str]] = {}
        #: Messages deferred at this instant: one IDONTWANT per topic.
        self._announce: list[PubSubMessage] = []
        #: (time, id, announcer) of each unseen-id hint, oldest first,
        #: and each announcer's count of live ones.
        self._early: deque[tuple[float, bytes, str]] = deque()
        self._early_count: dict[str, int] = {}
        #: Optional distributed-tracing hook (PR 9): called once per
        #: ACCEPTed message *before* it is cached, delivered and
        #: forwarded, returning the message to propagate — the RLN layer
        #: uses it to re-stamp the payload's span context with this
        #: peer's own span, so mcache copies and IWANT re-serves carry
        #: the true causal parent.  ``None`` (the default, and the whole
        #: disabled path) touches nothing.
        self._trace_rewriter: Callable[[PubSubMessage], PubSubMessage] | None = None
        self._started = False
        self._stop_heartbeat: Callable[[], None] | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Register with the transport and begin heartbeating."""
        if self._started:
            return
        self.network.register(self.peer_id, self._on_rpc)
        # Desynchronise heartbeats across peers like libp2p does.
        initial_delay = self.rng.uniform(0.1, self.params.heartbeat_interval)
        self._stop_heartbeat = self.simulator.every(
            self.params.heartbeat_interval, self.heartbeat, start_delay=initial_delay
        )
        self._started = True
        if self._topics:
            self._announce_subscriptions(self._topics, subscribe=True)

    def stop(self) -> None:
        if self._stop_heartbeat is not None:
            self._stop_heartbeat()
            self._stop_heartbeat = None
        self._started = False

    # -- pubsub API -----------------------------------------------------------------

    def subscribe(self, topic: str, callback: DeliveryCallback | None = None) -> None:
        """Join a topic; messages validated ACCEPT are delivered to callbacks."""
        new = topic not in self._topics
        self._topics.add(topic)
        self._mesh.setdefault(topic, set())
        if callback is not None:
            self._callbacks.setdefault(topic, []).append(callback)
        if new and self._started:
            self._announce_subscriptions({topic}, subscribe=True)
            self._fill_mesh(topic)

    def unsubscribe(self, topic: str) -> None:
        if topic not in self._topics:
            return
        self._topics.remove(topic)
        for peer in self._mesh.pop(topic, set()):
            self._send(peer, RPC(prune=(Prune(topic=topic),)))
        self._callbacks.pop(topic, None)
        if self._started:
            self._announce_subscriptions({topic}, subscribe=False)

    def set_validator(self, topic: str, validator: Validator) -> None:
        """Install the message validator for a topic (the RLN hook)."""
        self._validators[topic] = validator

    def set_trace_rewriter(
        self, rewriter: "Callable[[PubSubMessage], PubSubMessage] | None"
    ) -> None:
        """Install the per-hop span-context re-stamp hook (PR 9)."""
        self._trace_rewriter = rewriter

    def publish(self, topic: str, payload: Any, msg_id: bytes) -> PubSubMessage:
        """Publish a message authored by this peer."""
        if topic not in self._topics:
            raise NetworkError(f"{self.peer_id} is not subscribed to {topic!r}")
        message = PubSubMessage(msg_id=msg_id, topic=topic, payload=payload)
        self.stats.published += 1
        self._seen.witness(msg_id, self.simulator.now)
        self._mcache.put(message)
        self._deliver_locally(message)
        self._forward(message, exclude={self.peer_id})
        return message

    # -- mesh / membership views ---------------------------------------------------------

    def forget_seen(self, msg_id: bytes) -> None:
        """Un-witness an id whose message was dropped without being judged.

        A validator that sheds load (ingress rate limiting) returns IGNORE
        without ever checking the content; forgetting the id lets a later
        copy from any neighbour — or an IHAVE/IWANT re-fetch — be validated
        once there is budget again, instead of being suppressed as a
        duplicate for the whole seen-cache TTL.
        """
        self._seen.forget(msg_id)

    def topic_peers(self, topic: str) -> set[str]:
        """Neighbors known to be subscribed to ``topic``."""
        return {
            peer
            for peer, topics in self._peer_topics.items()
            if topic in topics and self.network.connected(self.peer_id, peer)
        }

    # -- inbound RPC handling -----------------------------------------------------------

    def _on_rpc(self, sender: str, rpc: RPC) -> None:
        if self.scoring and self.scoring.graylisted(sender, self.simulator.now):
            return
        # A relayed copy carries messages and nothing else: it skips the
        # empty control sections without looping over them.
        if rpc.subscriptions or rpc.graft or rpc.prune:
            for subscription in rpc.subscriptions:
                self._handle_subscription(sender, subscription)
            for graft in rpc.graft:
                self._handle_graft(sender, graft)
            for prune in rpc.prune:
                self._handle_prune(sender, prune)
        for message in rpc.messages:
            self._handle_message(sender, message)
        if rpc.ihave or rpc.iwant or rpc.idontwant:
            for ihave in rpc.ihave:
                self._handle_ihave(sender, ihave)
            for iwant in rpc.iwant:
                self._handle_iwant(sender, iwant)
            for idontwant in rpc.idontwant:
                self._handle_idontwant(sender, idontwant)

    def _handle_subscription(self, sender: str, subscription: Subscribe) -> None:
        # Late joiners (connections established after start) learn our
        # subscriptions through this handshake, mirroring libp2p's
        # exchange-on-connect behaviour.
        if (
            self._started
            and sender not in self._announced_to
            and self._topics
            and self.network.connected(self.peer_id, sender)
        ):
            self._announced_to.add(sender)
            subs = tuple(
                Subscribe(topic=t, subscribe=True) for t in sorted(self._topics)
            )
            self._send(sender, RPC(subscriptions=subs))
        topics = self._peer_topics.setdefault(sender, set())
        if subscription.subscribe:
            topics.add(subscription.topic)
        else:
            topics.discard(subscription.topic)
            mesh = self._mesh.get(subscription.topic)
            if mesh and sender in mesh:
                mesh.remove(sender)
                if self.scoring:
                    self.scoring.on_leave_mesh(sender, self.simulator.now)

    def _handle_graft(self, sender: str, graft: Graft) -> None:
        topic = graft.topic
        if topic not in self._topics:
            self._send(sender, RPC(prune=(Prune(topic=topic),)))
            return
        if self.scoring and not self.scoring.mesh_eligible(sender, self.simulator.now):
            # A peer scored below the mesh threshold may not join:
            # refuse and penalise.
            self._send(sender, RPC(prune=(Prune(topic=topic),)))
            self.scoring.on_behaviour_penalty(sender)
            self.stats.behaviour_penalties += 1
            return
        mesh = self._mesh.setdefault(topic, set())
        if sender not in mesh:
            mesh.add(sender)
            self.stats.grafts += 1
            if self.scoring:
                self.scoring.on_join_mesh(sender, self.simulator.now)

    def _handle_prune(self, sender: str, prune: Prune) -> None:
        mesh = self._mesh.get(prune.topic)
        if mesh and sender in mesh:
            mesh.remove(sender)
            if self.scoring:
                self.scoring.on_leave_mesh(sender, self.simulator.now)

    def _handle_message(self, sender: str, message: PubSubMessage) -> None:
        msg_id = message.msg_id
        if self._seen.witness(msg_id, self.simulator.now):
            self.stats.duplicates += 1
            if msg_id in self._holders:  # our verdict is pending
                self._holders[msg_id].add(sender)
            return
        validator = self._validators.get(message.topic)
        if validator is None:
            result = ValidationResult.ACCEPT
        else:
            self.stats.validations += 1
            result = validator(sender, message)
        if isinstance(result, DeferredValidation):
            self.stats.deferred += 1
            self._holders.setdefault(msg_id, set()).add(sender)
            if not self._announce:
                self.simulator.schedule(0.0, self._announce_pending)
            self._announce.append(message)
            # A partial, not a closure: fewer objects live while it is pending.
            result.subscribe(partial(self._apply_validation, sender, message))
            return
        self._apply_validation(sender, message, result)

    def _apply_validation(
        self, sender: str, message: PubSubMessage, result: ValidationResult
    ) -> None:
        """Act on a validator verdict (immediately, or when a deferral fires)."""
        holders = self._holders.pop(message.msg_id, ()) if self._holders else ()
        if result is ValidationResult.REJECT:
            self.stats.rejected += 1
            if self.scoring:
                self.scoring.on_invalid_message(sender)
                self.stats.invalid_penalties += 1
            return
        if result is ValidationResult.IGNORE:
            self.stats.ignored += 1
            return
        if self.scoring:
            self.scoring.on_first_delivery(sender)
        if self._trace_rewriter is not None:
            # Re-stamp the span context with *this* peer's span before the
            # message is cached or forwarded, so downstream hops (and
            # IWANT re-serves out of mcache) name the true causal parent.
            message = self._trace_rewriter(message)
        self._mcache.put(message)
        self._deliver_locally(message)
        self._forward(message, exclude={sender}, holders=holders)

    def _handle_ihave(self, sender: str, ihave: IHave) -> None:
        if self.scoring and not self.scoring.accepts_gossip(sender, self.simulator.now):
            return
        if ihave.topic not in self._topics:
            return
        wanted = tuple(i for i in ihave.msg_ids if i not in self._seen)
        if wanted:
            self._send(sender, RPC(iwant=(IWant(msg_ids=wanted),)))

    def _handle_iwant(self, sender: str, iwant: IWant) -> None:
        found = []
        for msg_id in iwant.msg_ids:
            message = self._mcache.get(msg_id)
            if message is not None:
                found.append(message)
        if found:
            self.stats.iwant_served += len(found)
            self._send(sender, RPC(messages=tuple(found)))

    def _handle_idontwant(self, sender: str, idontwant: IDontWant) -> None:
        """Note ``sender`` as a holder: it only ever leaves its own forwards."""
        self.stats.idontwant_received += 1
        for msg_id in idontwant.msg_ids:
            holders = self._holders.get(msg_id)
            if holders is not None:
                holders.add(sender)
            elif msg_id not in self._seen:
                # The announcer got the message first: keep the hint for
                # one mcache window (an id already judged needs none).
                count = self._early_count.get(sender, 0)
                if count < MAX_EARLY_IDONTWANTS:
                    self._early_count[sender] = count + 1
                    self._early.append((self.simulator.now, msg_id, sender))
                    self._holders[msg_id] = {sender}

    def _announce_pending(self) -> None:
        """One IDONTWANT per topic to the mesh: this instant's ids still pending."""
        announce, self._announce = self._announce, []
        held = self._holders
        for topic in dict.fromkeys(m.topic for m in announce):
            pending = tuple(m.msg_id for m in announce if m.topic == topic and m.msg_id in held)
            mesh = self._mesh.get(topic)
            if pending and mesh:
                self.stats.idontwant_sent += len(mesh)
                self._send_all(sorted(mesh), RPC(idontwant=(IDontWant(msg_ids=pending),)))

    # -- validation & delivery ------------------------------------------------------------

    def _deliver_locally(self, message: PubSubMessage) -> None:
        if message.topic not in self._topics:
            return
        self.stats.delivered += 1
        for callback in list(self._callbacks.get(message.topic, [])):
            callback(message)

    def _forward(self, message: PubSubMessage, *, exclude: set[str], holders=()) -> None:
        """Relay to mesh peers (or topic peers while the mesh is thin) but not holders."""
        targets = self._mesh.get(message.topic, set()) - exclude
        if not targets:
            targets = self.topic_peers(message.topic) - exclude
        if holders:  # after the fallback: a mesh holding it is not thin
            kept = targets - holders
            self.stats.suppressed += len(targets) - len(kept)
            targets = kept
        peers = sorted(targets)
        if self.scoring:
            now = self.simulator.now
            peers = [peer for peer in peers if self.scoring.accepts_publish(peer, now)]
        if peers:
            self.stats.forwarded += len(peers)
            # One immutable envelope, sized once, handed over in one send.
            self._send_all(peers, RPC(messages=(message,)))

    # -- heartbeat ---------------------------------------------------------------------------

    def heartbeat(self) -> None:
        """Mesh balancing, score decay, gossip emission, mcache rotation."""
        now = self.simulator.now
        if self.scoring:
            self.scoring.decay_scores()
        for topic in self._topics:
            mesh = self._mesh.setdefault(topic, set())
            # Drop mesh members that are no longer neighbors or score too low.
            for peer in sorted(mesh):
                connected = self.network.connected(self.peer_id, peer)
                eligible = (
                    self.scoring is None or self.scoring.mesh_eligible(peer, now)
                )
                if not connected or not eligible:
                    mesh.remove(peer)
                    if self.scoring:
                        self.scoring.on_leave_mesh(peer, now)
                    if connected:
                        self._send(peer, RPC(prune=(Prune(topic=topic),)))
            if len(mesh) < self.params.d_lo:
                self._fill_mesh(topic)
            elif len(mesh) > self.params.d_hi:
                self._shrink_mesh(topic)
            if topic not in self.stats.mesh_size:
                self.telemetry.registry.bind(
                    "gossipsub_mesh_size",
                    lambda topic=topic: self.stats.mesh_size[topic],
                    "gauge",
                    peer=self.peer_id,
                    topic=topic,
                )
            self.stats.mesh_size[topic] = len(mesh)
            self._emit_gossip(topic)
        self._mcache.shift()
        horizon = now - self.params.mcache_length * self.params.heartbeat_interval
        early = self._early
        while early and early[0][0] <= horizon:
            _, msg_id, sender = early.popleft()
            self._early_count[sender] -= 1
            if msg_id not in self._seen:
                self._holders.pop(msg_id, None)

    def _fill_mesh(self, topic: str) -> None:
        mesh = self._mesh.setdefault(topic, set())
        now = self.simulator.now
        # Sorted before the shuffle: set order follows PYTHONHASHSEED.
        candidates = [
            peer
            for peer in sorted(self.topic_peers(topic))
            if peer not in mesh
            and (self.scoring is None or self.scoring.mesh_eligible(peer, now))
        ]
        self.rng.shuffle(candidates)
        while len(mesh) < self.params.d and candidates:
            peer = candidates.pop()
            mesh.add(peer)
            self.stats.grafts += 1
            if self.scoring:
                self.scoring.on_join_mesh(peer, now)
            self._send(peer, RPC(graft=(Graft(topic=topic),)))

    def _shrink_mesh(self, topic: str) -> None:
        mesh = self._mesh[topic]
        now = self.simulator.now
        # Keep the best-scored peers; prune the rest down to D.  Ranked from
        # name order: set order (the key draws, the ties) follows PYTHONHASHSEED.
        ranked = sorted(
            sorted(mesh),
            key=lambda p: self.scoring.score(p, now) if self.scoring else self.rng.random(),
            reverse=True,
        )
        for peer in ranked[self.params.d :]:
            mesh.remove(peer)
            if self.scoring:
                self.scoring.on_leave_mesh(peer, now)
            self._send(peer, RPC(prune=(Prune(topic=topic),)))

    def _emit_gossip(self, topic: str) -> None:
        ids = self._mcache.gossip_ids(topic)
        if not ids:
            return
        now = self.simulator.now
        mesh = self._mesh.get(topic, set())
        candidates = [
            peer
            for peer in sorted(self.topic_peers(topic))
            if peer not in mesh
            and (self.scoring is None or self.scoring.accepts_gossip(peer, now))
        ]
        self.rng.shuffle(candidates)
        for peer in candidates[: self.params.d_lazy]:
            self.stats.gossip_sent += 1
            self._send(peer, RPC(ihave=(IHave(topic=topic, msg_ids=tuple(ids)),)))

    # -- helpers ---------------------------------------------------------------------------------

    def _announce_subscriptions(self, topics: set[str], *, subscribe: bool) -> None:
        subs = tuple(Subscribe(topic=t, subscribe=subscribe) for t in sorted(topics))
        for neighbor in self.network.neighbors(self.peer_id):
            self._announced_to.add(neighbor)
            self._send(neighbor, RPC(subscriptions=subs))

    def _send(self, peer: str, rpc: RPC) -> None:
        if not rpc.is_empty():
            self._send_all([peer], rpc)

    def _send_all(self, peers: list[str], rpc: RPC) -> None:
        """Send ``rpc`` to every one of ``peers`` still linked to us."""
        try:
            self.network.send(self.peer_id, peers, rpc)
        except (NotConnected, UnknownPeer):
            # A peer left or lost its link since our mesh view last
            # changed.  The transport refused before billing anything, so
            # the rest still get their copy.
            linked = [p for p in peers if self.network.connected(self.peer_id, p)]
            if linked:
                self.network.send(self.peer_id, linked, rpc)
