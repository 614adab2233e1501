"""Point-to-point transport over the event simulator.

Sits between the topology and the GossipSub routers: delivers opaque
payloads over links with sampled latency, and accounts bandwidth per
peer — the resource the paper's spammers burn ("peers ... have to spend
their resources e.g., computational power, bandwidth and storage capacity
on processing spam messages", §I).  :attr:`Network.links` is the live
topology, copied once from the generated graph, which it never changes.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from typing import Any, Callable, Sequence

from repro.codec import size_of
from repro.errors import NotConnected, UnknownPeer
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.simulator import EventHandle, Simulator

Handler = Callable[[str, Any], None]  # (sender, payload) -> None


@dataclass
class ProtocolTraffic:
    """One (peer, protocol-channel) slice of the bandwidth accounting."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


@dataclass
class TrafficStats:
    """Per-peer bandwidth accounting, split by protocol channel.

    ``per_protocol`` answers "on what" — the split that lets the
    cost-of-observability benchmark separate telemetry-channel bytes from
    relay (gossipsub) bytes — and is the only place a copy is counted; the
    totals ("what does this peer spend") are sums over it.
    """

    per_protocol: dict[str, ProtocolTraffic] = field(default_factory=dict)

    def channel(self, protocol: str) -> ProtocolTraffic:
        """The counters of one protocol channel (created on first use)."""
        traffic = self.per_protocol.get(protocol)
        if traffic is None:
            traffic = self.per_protocol[protocol] = ProtocolTraffic()
        return traffic

    @property
    def messages_sent(self) -> int:
        return sum(t.messages_sent for t in self.per_protocol.values())

    @property
    def bytes_sent(self) -> int:
        return sum(t.bytes_sent for t in self.per_protocol.values())

    @property
    def bytes_received(self) -> int:
        return sum(t.bytes_received for t in self.per_protocol.values())


@dataclass
class Network:
    """Message passing restricted to topology links (:attr:`links`, read
    once from the networkx ``graph``: peer -> its linked peers).

    Payloads must expose a ``byte_size()`` method or define ``__len__`` for
    bandwidth accounting; anything else counts a flat overhead.
    """

    simulator: Simulator
    graph: InitVar[Any]
    latency: LatencyModel = field(default_factory=ConstantLatency)
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    drop_probability: float = 0.0

    def __post_init__(self, graph: Any) -> None:
        self.links: dict[str, set[str]] = {peer: set(adj) for peer, adj in graph.adj.items()}
        self._handlers: dict[tuple[str, str], Handler] = {}
        self._batch: list | None = None  # the open delivery batch (see send)
        self._event: EventHandle | None = None  # and its simulator event
        self.stats: dict[str, TrafficStats] = {peer: TrafficStats() for peer in self.links}

    # -- wiring ------------------------------------------------------------

    def register(self, peer: str, handler: Handler, *, protocol: str = "gossipsub") -> None:
        """Install the inbound handler for one (peer, protocol) channel.

        Separate protocol channels let GossipSub share the wire with the
        request/response protocols (13/WAKU2-STORE, 12/WAKU2-FILTER) the
        way libp2p stream multiplexing does.
        """
        if peer not in self.links:
            raise UnknownPeer(f"{peer!r} is not in the topology")
        self._handlers[(peer, protocol)] = handler

    def is_registered(self, peer: str, *, protocol: str = "gossipsub") -> bool:
        """Whether an inbound handler is installed on this channel."""
        return (peer, protocol) in self._handlers

    def add_peer(self, peer: str, neighbors: list[str]) -> None:
        """Join a new peer to the topology at runtime, linked to ``neighbors``;
        an existing ``peer`` or an unknown neighbour changes nothing.

        Used by churn scenarios and by the bot-army attack, whose whole
        point (§I) is that fresh peer identities are free to mint.
        """
        if peer in self.links:
            raise UnknownPeer(f"{peer!r} already exists")
        for neighbor in neighbors:
            if neighbor not in self.links:
                raise UnknownPeer(f"neighbor {neighbor!r} does not exist")
        self.links[peer] = set()
        self.stats.setdefault(peer, TrafficStats())  # a rejoin keeps its bill
        for neighbor in neighbors:
            self.connect(peer, neighbor)

    def remove_peer(self, peer: str) -> None:
        """Detach a peer (bot retirement / churn); stats are retained."""
        for neighbor in self.links.pop(peer, set()) - {peer}:
            self.links[neighbor].discard(peer)
        for key in [k for k in self._handlers if k[0] == peer]:
            del self._handlers[key]

    def neighbors(self, peer: str) -> list[str]:
        if peer not in self.links:
            raise UnknownPeer(f"{peer!r} is not in the topology")
        return sorted(self.links[peer])

    def connected(self, a: str, b: str) -> bool:
        return b in self.links.get(a, ())

    def connect(self, a: str, b: str) -> None:
        """Link two peers of the topology (a join, or a healed cut)."""
        if a not in self.links or b not in self.links:
            raise UnknownPeer(f"unknown endpoint in {a!r} <-> {b!r}")
        self.links[a].add(b)
        self.links[b].add(a)

    def disconnect(self, a: str, b: str) -> None:
        """Tear down a link (used when peers prune/ban each other)."""
        self.links.get(a, set()).discard(b)
        self.links.get(b, set()).discard(a)

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str | Sequence[str],
        payload: Any,
        *,
        protocol: str = "gossipsub",
        require_edge: bool = True,
    ) -> None:
        """Deliver ``payload`` from ``src`` to each ``dst`` after link latency.

        ``dst`` is one peer id (a ``str``) or a sequence of them — a
        gossip forward hands its whole target list to one call.  Every
        target is checked first: an unknown id raises
        :class:`UnknownPeer` and a non-neighbour :class:`NotConnected`
        before anything is billed or scheduled.  Then each copy is billed
        to the sender and gets its own drop and latency draw, in target
        order — the draws a loop of single sends makes.

        A copy joins the open delivery batch — one simulator event — if
        due at its instant with nothing scheduled since its event
        (:attr:`Simulator.last_scheduled`), whatever its call, sender or
        protocol; else it opens a batch.  Separate events would run in the
        same order: back-to-back sends take consecutive ``(time, seq)``
        heap slots.  A batch closes as its event starts, so a handler's
        send never joins it.  The event delivers in send order, looking
        each handler up as it reaches it (a handler may unregister a
        later target); a raising handler does not strand the rest: all
        are delivered, then the first error is re-raised.  So
        ``Simulator.processed_events`` counts delivery events, not copies;
        ``total_messages()`` counts copies.

        ``require_edge=False`` models overlay protocols (e.g. a DHT) that
        dial any reachable peer directly instead of using mesh links.
        """
        targets = (dst,) if isinstance(dst, str) else dst
        peers = self.links
        links = peers.get(src)
        if links is None:
            raise UnknownPeer(f"unknown endpoint in {src!r} -> {dst!r}")
        for target in targets:
            if target not in links:
                if target not in peers:
                    raise UnknownPeer(f"unknown endpoint in {src!r} -> {target!r}")
                if require_edge:
                    raise NotConnected(f"{src!r} and {target!r} are not neighbors")
        size = size_of(payload, 64)  # 64: flat control-message overhead
        src_stats = self.stats[src]
        sent = src_stats.per_protocol.get(protocol) or src_stats.channel(protocol)
        sent.messages_sent += len(targets)
        sent.bytes_sent += size * len(targets)
        rng, drop, sample = self.rng, self.drop_probability, self.latency.sample
        now, batch, due = self.simulator.now, self._batch, None
        if batch is not None and self.simulator.last_scheduled is self._event:
            due = self._event.time
        for target in targets:
            if drop and rng.random() < drop:
                continue
            when = now + sample(src, target, rng)
            if when != due:
                batch, due = self._open_batch(when), when
            batch.append((src, target, payload, size, protocol))

    def _open_batch(self, when: float) -> list[tuple[str, str, Any, int, str]]:
        """Schedule one delivery event at ``when``; return its entries."""
        entries: list[tuple[str, str, Any, int, str]] = []
        handlers, stats = self._handlers, self.stats

        def deliver() -> None:
            if self._batch is entries:
                self._batch = None
            error: Exception | None = None
            for src, dst, payload, size, protocol in entries:
                handler = handlers.get((dst, protocol))
                if handler is None:
                    continue  # peer went offline before delivery
                traffic = stats[dst]
                received = traffic.per_protocol.get(protocol) or traffic.channel(protocol)
                received.messages_received += 1
                received.bytes_received += size
                try:
                    handler(src, payload)
                except Exception as exc:  # deliver the rest, then re-raise
                    if error is None:
                        error = exc
            if error is not None:
                raise error

        self._batch, self._event = entries, self.simulator.schedule_at(when, deliver)
        return entries

    # -- accounting ----------------------------------------------------------------

    def total_bytes(self, *, protocol: str | None = None) -> int:
        if protocol is None:
            return sum(s.bytes_sent for s in self.stats.values())
        return sum(
            s.per_protocol[protocol].bytes_sent
            for s in self.stats.values()
            if protocol in s.per_protocol
        )

    def total_messages(self, *, protocol: str | None = None) -> int:
        if protocol is None:
            return sum(s.messages_sent for s in self.stats.values())
        return sum(
            s.per_protocol[protocol].messages_sent
            for s in self.stats.values()
            if protocol in s.per_protocol
        )

    def protocol_bytes(self) -> dict[str, int]:
        """Bytes sent per protocol channel, fleet-wide (sorted keys)."""
        out: dict[str, int] = {}
        for stats in self.stats.values():
            for protocol, traffic in stats.per_protocol.items():
                out[protocol] = out.get(protocol, 0) + traffic.bytes_sent
        return dict(sorted(out.items()))
