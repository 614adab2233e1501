"""The GossipSub router: mesh overlay, gossip, validation, scoring.

A from-scratch implementation of libp2p GossipSub (reference [2] of the
paper) sufficient for WAKU-RELAY to be "a thin layer over the libp2p
GossipSub routing protocol" (§I):

* per-topic **mesh** maintained between [D_lo, D_hi] around a target D,
* **eager and lazy push**: a relay forwards once per instant, after every
  copy of it was read: the copy to the first :data:`D_EAGER` mesh targets
  in a fixed order and an IHAVE to the rest, each skipping the peers that
  hold it (their slots are not refilled); each lazy peer's IHAVE lists the
  ids it was lazy for; a publisher floods (§III: ``D_EAGER = d``),
* **heartbeat** doing mesh balancing, score decay and IHAVE gossip; a
  pair that PRUNEd stays apart for :data:`PRUNE_BACKOFF` (v1.1),
* **IHAVE/IWANT** lazy pull: an id still unseen one link latency
  (``worst_case()``) plus our longest recent forward lag after its IHAVE's
  instant is asked of one announcer, and of the next if a window passes
  without it; a peer is served one kept message at most
  ``GOSSIP_RETRANSMISSION`` times,
* **IDONTWANT** (v1.2): a message is never forwarded to a peer known to
  hold it; with verdicts pending, each mesh peer hears the pending ids it
  is not known to hold; a deferred forward waits one link latency past
  its first copy, so the IDONTWANTs of that copy's instant have come,
* **validation hooks** with v1.1 semantics — ACCEPT relays, IGNORE drops
  silently (duplicates), REJECT drops *and* penalises the forwarding peer,
  which is how an RLN validator plugs in (§III-F: "the effect of their
  attack is ... easily addressable by leveraging peer scoring"),
* optional **peer scoring** (the baseline defence of experiment E8).

Messages carry no publisher identity and no id: a receiver derives it
(:attr:`PubSubMessage.msg_id`) and keeps one ``MessageTable`` entry per id.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable

from repro.errors import NetworkError, NotConnected, UnknownPeer
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
from repro.gossipsub.msgtable import MessageTable
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

    def __init__(self, value: str) -> None:
        #: A member is its own verdict, naming no payload to forward.
        self.action = self
        self.forward = None


#: (from_peer, message) -> a verdict, or a Promise of one when the verdict
#: waits on queued work (batched proof verification, §III-F).  A verdict is
#: anything whose ``action`` is a ValidationResult, a member included, and
#: whose ``forward`` is ``None`` or the payload an accepted message is
#: kept, delivered and forwarded with instead of the one received (a
#: traced hop's copy, re-stamped with its own span).  The router parks the
#: message until it resolves; duplicates arriving meanwhile are dropped as
#: already witnessed, as for a synchronous verdict.
Validator = Callable[[str, PubSubMessage], Any]
#: (message) -> None
DeliveryCallback = Callable[[PubSubMessage], None]

#: Mesh targets a relayed message goes to in full; the rest get an IHAVE.
D_EAGER = 3

#: Seconds after a PRUNE, sent or received, before that peer is GRAFTed
#: again on that topic (the v1.1 spec's default backoff).
PRUNE_BACKOFF = 60.0


@dataclass(frozen=True)
class GossipSubParams:
    """Mesh and gossip parameters (libp2p defaults)."""

    d: int = 6
    d_lo: int = 4
    d_hi: int = 12
    d_lazy: int = 6
    heartbeat_interval: float = 1.0

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
    #: IHAVE and IWANT frames sent; asks the announcer asked never met.
    gossip_sent: int = 0
    iwant_sent: int = 0
    broken_promises: int = 0
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


class _EagerRank(dict):
    """A relay's eager order: target -> ``(crc32("me>target"), target)``, a
    hash of the pair, so no rng draw and no PYTHONHASHSEED dependence.
    Computed on a target's first forward and kept: it depends on nothing
    else, so mesh churn never makes an entry stale."""

    __slots__ = ("me",)

    def __init__(self, me: str) -> None:
        super().__init__()
        self.me = me

    def __missing__(self, peer: str) -> tuple[int, str]:
        rank = self[peer] = (zlib.crc32(f"{self.me}>{peer}".encode()), peer)
        return rank


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
        self.scoring = PeerScoreKeeper(score_params) if score_params is not None else None
        self.stats = RouterStats()
        self.telemetry = resolve_telemetry(telemetry)
        stats, registry = self.stats, self.telemetry.registry
        bind = partial(registry.bind, peer=peer_id)
        self._counted = registry.marker(
            bind("gossipsub_grafts_total", lambda: stats.grafts),
            bind("gossipsub_penalties_total", lambda: stats.behaviour_penalties, kind="behaviour"),
            bind("gossipsub_penalties_total", lambda: stats.invalid_penalties,
                 kind="invalid-message"),
        )
        self._mesh_moved: dict[str, Callable[[], None]] = {}  # per topic, its size's mark

        self._topics: set[str] = set()
        self._mesh: dict[str, set[str]] = {}
        self._peer_topics: dict[str, set[str]] = {}
        self._validators: dict[str, Validator] = {}
        self._callbacks: dict[str, list[DeliveryCallback]] = {}
        self._announced_to: set[str] = set()
        self._table = MessageTable()
        self._eager_rank = _EagerRank(peer_id)
        #: This instant's outbox, sent by ``_flush`` at its end: accepted
        #: (message, sender)s, deferred messages, lazy ids per topic and peer,
        #: and ids to ask per peer after the fetch delay (``_wait``) or now.
        self._land: list[tuple[PubSubMessage, str]] = []
        self._announce: list[PubSubMessage] = []
        self._lazy: dict[str, dict[str, list[bytes]]] = {}
        self._wait: dict[str, list[bytes]] = {}
        self._fetch: dict[str, list[bytes]] = {}
        self._flush_due = False
        self._lag = [0.0, 0.0]  # longest first-copy -> forward delay, this window and the last
        #: (topic, peer) -> when its PRUNE backoff runs out; one entry per
        #: pair ever PRUNEd, rewritten by the next PRUNE.
        self._backoff: dict[tuple[str, str], float] = {}
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
            self._announce_subscriptions(self._topics)

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
        mesh = self._mesh.setdefault(topic, set())
        if new:
            registry = self.telemetry.registry
            self._mesh_moved[topic] = registry.marker(registry.bind(
                "gossipsub_mesh_size", mesh.__len__, "gauge", peer=self.peer_id, topic=topic
            ))
        if callback is not None:
            self._callbacks.setdefault(topic, []).append(callback)
        if new and self._started:
            self._announce_subscriptions({topic})
            self._fill_mesh(topic)

    def set_validator(self, topic: str, validator: Validator) -> None:
        """Install the message validator for a topic (the RLN hook)."""
        self._validators[topic] = validator

    def publish(self, topic: str, payload: Any) -> PubSubMessage:
        """Publish a message authored by this peer."""
        if topic not in self._topics:
            raise NetworkError(f"{self.peer_id} is not subscribed to {topic!r}")
        message = PubSubMessage(topic, payload)
        self.stats.published += 1
        self._table.witness(message.msg_id, self.simulator.now, self.peer_id)
        holders = self._table.settle(message.msg_id)
        self._table.keep(message)
        self._deliver_locally(message)
        self._forward(message, exclude={self.peer_id}, holders=holders, flood=True)
        return message

    # -- mesh / membership views ---------------------------------------------------------

    def forget_seen(self, msg_id: bytes) -> None:
        """Un-witness an id whose message was dropped without being judged.

        A validator that sheds load (ingress rate limiting) returns IGNORE
        without checking the content; forgetting the id lets a later copy
        or an IHAVE/IWANT re-fetch be validated once there is budget again.
        """
        self._table.pop(msg_id, None)

    def topic_peers(self, topic: str) -> set[str]:
        """Neighbors known to be subscribed to ``topic``."""
        topics, links = self._peer_topics, self.network.links.get(self.peer_id, ())
        return {peer for peer in links if topic in topics.get(peer, ())}

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
                self._leave_mesh(prune.topic, sender)
                self._backoff[prune.topic, sender] = self.simulator.now + PRUNE_BACKOFF
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
            self._announce_subscriptions(self._topics, [sender])
        topics = self._peer_topics.setdefault(sender, set())
        if subscription.subscribe:
            topics.add(subscription.topic)
        else:
            topics.discard(subscription.topic)
            self._leave_mesh(subscription.topic, sender)

    def _handle_graft(self, sender: str, graft: Graft) -> None:
        topic = graft.topic
        if topic not in self._topics:
            self._prune(topic, sender)
            return
        if self.scoring and not self.scoring.mesh_eligible(sender, self.simulator.now):
            # A peer scored below the mesh threshold may not join: refuse, penalise.
            self._prune(topic, sender)
            self.penalise(sender)
            return
        if sender not in self._mesh[topic]:
            self._join_mesh(topic, sender)

    def penalise(self, peer: str) -> None:
        """Score, count and mark one P7 behaviour penalty (none without scoring)."""
        if self.scoring:
            self.scoring.on_behaviour_penalty(peer)
            self.stats.behaviour_penalties += 1
            self._counted()

    def _join_mesh(self, topic: str, peer: str) -> None:
        self._mesh[topic].add(peer)
        self.stats.grafts += 1
        self._counted()
        self._mesh_moved[topic]()
        if self.scoring:
            self.scoring.on_join_mesh(peer, self.simulator.now)

    def _leave_mesh(self, topic: str, peer: str) -> None:
        mesh = self._mesh.get(topic)
        if mesh and peer in mesh:
            mesh.remove(peer)
            self._mesh_moved[topic]()
            if self.scoring:
                self.scoring.on_leave_mesh(peer, self.simulator.now)

    def _handle_message(self, sender: str, message: PubSubMessage) -> None:
        if self._table.witness(message.msg_id, self.simulator.now, sender):
            self.stats.duplicates += 1
            return
        validator = self._validators.get(message.topic)
        if validator is None:
            verdict = ValidationResult.ACCEPT
        else:
            self.stats.validations += 1
            verdict = validator(sender, message)
        if isinstance(verdict, Promise):
            self.stats.deferred += 1
            self._table.pend(message.msg_id, sender)
            self._flush_later()
            self._announce.append(message)
            # A partial, not a closure: fewer objects live while it is pending.
            due = self.simulator.now + self.network.latency.worst_case()
            verdict.subscribe(partial(self._apply_validation, sender, message, due=due))
            return
        self._apply_validation(sender, message, verdict)

    def _apply_validation(
        self, sender: str, message: PubSubMessage, verdict: Any, due: float | None = None
    ) -> None:
        """Act on a verdict's ``action`` (inline, or when a deferral fires):
        deliver an accepted message now, and keep and forward it at the end
        of the instant (an inline verdict) or, a deferral, at once or at the
        end of instant ``due`` (one link latency after its first copy, when
        the IDONTWANTs of that copy's instant have come) if that is later."""
        result = verdict.action
        if result is not ValidationResult.ACCEPT:
            self._table.settle(message.msg_id)
        if result is ValidationResult.REJECT:
            self.stats.rejected += 1
            if self.scoring:
                self.scoring.on_invalid_message(sender)
                self.stats.invalid_penalties += 1
                self._counted()
            return
        if result is ValidationResult.IGNORE:
            self.stats.ignored += 1
            return
        if self.scoring:
            self.scoring.on_first_delivery(sender)
        if verdict.forward is not None:
            # The verdict's copy is kept and forwarded, so downstream hops
            # (and IWANT re-serves out of the table) name its parent.
            message = message.with_payload(verdict.forward)
        if due is None:  # the keep and forward wait for the instant's other copies
            self._table.pend(message.msg_id, sender)
            self._land_later(message, sender)
            self._deliver_locally(message)
            return
        self._deliver_locally(message)
        if due > self.simulator.now:
            self.simulator.schedule_at(due, partial(self._land_later, message, sender))
        else:
            self._relay(message, sender)

    def _land_later(self, message: PubSubMessage, sender: str) -> None:
        """Keep and forward ``message`` (its id pending) at this instant's end."""
        self._flush_later()
        self._land.append((message, sender))

    def _relay(self, message: PubSubMessage, sender: str) -> None:
        """Keep an accepted message, note its lag (for the fetch timer) and
        forward it past its holders."""
        if (seen_at := self._table.seen_at(message.msg_id)) is not None:
            self._lag[0] = max(self._lag[0], self.simulator.now - seen_at)
        holders = self._table.settle(message.msg_id)
        self._table.keep(message)
        self._forward(message, exclude={sender}, holders=holders)

    def _handle_ihave(self, sender: str, ihave: IHave) -> None:
        """Note the announcer; an id nobody was asked for is fetched from it
        one link latency after the instant, unless a copy has come by then."""
        if self.scoring and not self.scoring.accepts_gossip(sender, self.simulator.now):
            return
        if ihave.topic not in self._topics:
            return
        wanted = self._table.ask(ihave.msg_ids, sender)
        if wanted:
            self._flush_later()
            self._wait.setdefault(sender, []).extend(wanted)

    def _handle_iwant(self, sender: str, iwant: IWant) -> None:
        serve = self._table.serve
        found = [m for i in iwant.msg_ids if (m := serve(i, sender)) is not None]
        if found:
            self.stats.iwant_served += len(found)
            self._send(sender, RPC(messages=tuple(found)))

    def _handle_idontwant(self, sender: str, idontwant: IDontWant) -> None:
        """Note ``sender`` as a holder: it only ever leaves its own forwards."""
        self.stats.idontwant_received += 1
        for msg_id in idontwant.msg_ids:
            self._table.note(msg_id, sender)

    def _flush_later(self) -> None:
        if not self._flush_due:
            self._flush_due = True
            self.simulator.schedule(0.0, self._flush)

    def _fetch_due(self, due: dict[str, list[bytes]]) -> None:
        """Ask for ``due`` (announced one link latency ago) at this instant's end."""
        for peer, ids in due.items():
            self._fetch.setdefault(peer, []).extend(ids)
        self._flush_later()

    def _flush(self) -> None:
        """End of the instant: keep and forward what was accepted inline or
        held (past every peer whose copy, IHAVE or IDONTWANT came by now),
        the IDONTWANTs (each mesh peer's list: the ids deferred now and still
        pending that it is not known to hold), the IHAVEs, then the IWANTs;
        ids announced now and still unseen are asked one link latency plus
        our longest first-copy -> forward delay of two windows later."""
        land, self._land = self._land, []
        for message, sender in land:
            self._relay(message, sender)  # its lazy ids go out below
        self._flush_due = False
        announce, self._announce = self._announce, []
        for topic in dict.fromkeys(m.topic for m in announce):
            held = {m.msg_id: self._table.holders(m.msg_id) for m in announce if m.topic == topic}
            mesh = sorted(self._mesh.get(topic, ()))
            self.stats.idontwant_sent += self._send_lists(
                ((p, tuple(i for i, h in held.items() if h and p not in h)) for p in mesh),
                lambda ids: RPC(idontwant=(IDontWant(msg_ids=ids),)),
            )
        lazy, self._lazy = self._lazy, {}
        for topic, queued in lazy.items():
            self.stats.gossip_sent += self._send_lists(
                ((peer, tuple(ids)) for peer, ids in queued.items()),
                lambda ids: RPC(ihave=(IHave(topic=topic, msg_ids=ids),)),
            )
        seen = self._table.seen
        wait, self._wait = self._wait, {}
        due = {p: u for p, ids in wait.items() if (u := [i for i in ids if not seen(i)])}
        if due:  # Plumtree's timer: the link bound NetworkDelay uses, plus our lag
            delay = self.network.latency.worst_case() + max(self._lag)
            self.simulator.schedule(delay, partial(self._fetch_due, due))
        fetch, self._fetch = self._fetch, {}
        for peer, listed in fetch.items():
            if wanted := tuple(i for i in listed if not seen(i)):
                self.stats.iwant_sent += 1
                self._send(peer, RPC(iwant=(IWant(msg_ids=wanted),)))

    # -- validation & delivery ------------------------------------------------------------

    def _deliver_locally(self, message: PubSubMessage) -> None:
        if message.topic not in self._topics:
            return
        self.stats.delivered += 1
        for callback in list(self._callbacks.get(message.topic, [])):
            callback(message)

    def _forward(
        self, message: PubSubMessage, *, exclude: set[str], holders=(), flood: bool = False
    ) -> None:
        """Relay to mesh peers (or topic peers while the mesh is thin): the
        full copy to the first :data:`D_EAGER` in eager order (to all if
        ``flood`` or the mesh is thin), an IHAVE to the rest, then drop the
        holders from both: a holder's slot is not refilled."""
        topic = message.topic
        targets = self._mesh.get(topic, set()) - exclude
        if not targets:  # before the holders go: a mesh holding it is not thin
            targets = self.topic_peers(topic) - exclude
            flood = True
        if self.scoring:
            now = self.simulator.now
            targets = {peer for peer in targets if self.scoring.accepts_publish(peer, now)}
        if flood or len(targets) <= D_EAGER:
            peers, lazy = sorted(targets), ()
        else:
            ranked = sorted(targets, key=self._eager_rank.__getitem__)
            peers, lazy = ranked[:D_EAGER], ranked[D_EAGER:]
        if holders:
            peers = [peer for peer in peers if peer not in holders]
            lazy = [peer for peer in lazy if peer not in holders]
            self.stats.suppressed += len(targets) - len(peers) - len(lazy)
        if lazy:
            self._flush_later()
            queued = self._lazy.setdefault(topic, {})
            for peer in lazy:
                queued.setdefault(peer, []).append(message.msg_id)
        if peers:
            self.stats.forwarded += len(peers)
            # One immutable envelope, sized once, handed over in one send.
            self._send_all(peers, RPC(messages=(message,)))

    # -- heartbeat ---------------------------------------------------------------------------

    def heartbeat(self) -> None:
        """Mesh balancing, score decay, gossip emission and re-asks, then
        window rotation; only the rotation without scoring, with every mesh
        linked and within ``[d_lo, d_hi]`` and no id in a window."""
        links, params = self.network.links.get(self.peer_id, set()), self.params
        if self.scoring or not self._table.idle() or not all(
            params.d_lo <= len(mesh := self._mesh[t]) <= params.d_hi and mesh <= links
            for t in self._topics
        ):
            self._maintain(links)
        self._table.shift()
        self._lag = [0.0, self._lag[0]]

    def _maintain(self, links: set[str]) -> None:
        now = self.simulator.now
        if self.scoring:
            self.scoring.decay_scores()
        for topic in self._topics:
            mesh = self._mesh[topic]
            # Drop mesh members that are no longer neighbors, then PRUNE
            # those that score too low.
            for peer in mesh - links:
                self._leave_mesh(topic, peer)
            if self.scoring:
                for peer in sorted(mesh):
                    if not self.scoring.mesh_eligible(peer, now):
                        self._leave_mesh(topic, peer)
                        self._prune(topic, peer)
            if len(mesh) < self.params.d_lo:
                self._fill_mesh(topic)
            elif len(mesh) > self.params.d_hi:
                self._shrink_mesh(topic)
            self._emit_gossip(topic)
        for msg_id, asked, peer in self._table.unmet():
            # A broken promise: v1.1's P7 behaviour penalty, and the next ask.
            self.stats.broken_promises += 1
            self.penalise(asked)
            self._flush_later()
            self._fetch.setdefault(peer, []).append(msg_id)

    def _outside_mesh(self, topic: str, gate: Callable[..., bool]) -> list[str]:
        """The topic's peers outside its mesh that the scoring predicate
        ``gate`` admits (all, without scoring), shuffled from name order
        (set order follows PYTHONHASHSEED)."""
        mesh, now, scoring = self._mesh[topic], self.simulator.now, self.scoring
        peers = [
            peer for peer in sorted(self.topic_peers(topic))
            if peer not in mesh and (scoring is None or gate(scoring, peer, now))
        ]
        self.rng.shuffle(peers)
        return peers

    def _fill_mesh(self, topic: str) -> None:
        candidates = self._outside_mesh(topic, PeerScoreKeeper.mesh_eligible)
        if self._backoff:
            now, backoff = self.simulator.now, self._backoff
            candidates = [peer for peer in candidates if backoff.get((topic, peer), now) <= now]
        while len(self._mesh[topic]) < self.params.d and candidates:
            peer = candidates.pop()
            self._join_mesh(topic, peer)
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
            self._leave_mesh(topic, peer)
            self._prune(topic, peer)

    def _prune(self, topic: str, peer: str) -> None:
        """Send ``peer`` a PRUNE and back off GRAFTing it for :data:`PRUNE_BACKOFF`."""
        self._backoff[topic, peer] = self.simulator.now + PRUNE_BACKOFF
        self._send(peer, RPC(prune=(Prune(topic=topic),)))

    def _emit_gossip(self, topic: str) -> None:
        ids = self._table.gossip(topic)
        if not ids:
            return
        for peer in self._outside_mesh(topic, PeerScoreKeeper.accepts_gossip)[:self.params.d_lazy]:
            self.stats.gossip_sent += 1
            self._send(peer, RPC(ihave=(IHave(topic=topic, msg_ids=tuple(ids)),)))

    # -- helpers ---------------------------------------------------------------------------------

    def _announce_subscriptions(self, topics: set[str], peers: list[str] | None = None) -> None:
        """Tell ``peers`` (by default every neighbour) we subscribe to ``topics``."""
        subs = tuple(Subscribe(topic=t, subscribe=True) for t in sorted(topics))
        for neighbor in self.network.neighbors(self.peer_id) if peers is None else peers:
            self._announced_to.add(neighbor)
            self._send(neighbor, RPC(subscriptions=subs))

    def _send(self, peer: str, rpc: RPC) -> None:
        self._send_all([peer], rpc)

    def _send_lists(self, listed, frame: Callable[[tuple[bytes, ...]], RPC]) -> int:
        """Send ``frame(ids)`` for each ``(peer, ids)`` with ids, one frame and
        one send per distinct list; returns the number of peers sent one."""
        groups: dict[tuple[bytes, ...], list[str]] = {}
        for peer, ids in listed:
            if ids:
                groups.setdefault(ids, []).append(peer)
        for ids, peers in groups.items():
            self._send_all(sorted(peers), frame(ids))
        return sum(map(len, groups.values()))

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
