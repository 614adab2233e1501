"""Point-to-point transport over the event simulator.

Sits between the topology graph and the GossipSub routers: delivers opaque
payloads over graph edges with sampled latency, and accounts bandwidth per
peer — the resource the paper's spammers burn ("peers ... have to spend
their resources e.g., computational power, bandwidth and storage capacity
on processing spam messages", §I).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import networkx as nx

from repro.codec import size_of
from repro.errors import NotConnected, UnknownPeer
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.simulator import Simulator

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
    """Message passing restricted to topology edges.

    Payloads must expose a ``byte_size()`` method or define ``__len__`` for
    bandwidth accounting; anything else counts a flat overhead.
    """

    simulator: Simulator
    graph: nx.Graph
    latency: LatencyModel = field(default_factory=ConstantLatency)
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        self._handlers: dict[tuple[str, str], Handler] = {}
        self.stats: dict[str, TrafficStats] = {
            peer: TrafficStats() for peer in self.graph.nodes
        }

    # -- wiring ------------------------------------------------------------

    def register(self, peer: str, handler: Handler, *, protocol: str = "gossipsub") -> None:
        """Install the inbound handler for one (peer, protocol) channel.

        Separate protocol channels let GossipSub share the wire with the
        request/response protocols (13/WAKU2-STORE, 12/WAKU2-FILTER) the
        way libp2p stream multiplexing does.
        """
        if peer not in self.graph:
            raise UnknownPeer(f"{peer!r} is not in the topology")
        self._handlers[(peer, protocol)] = handler

    def is_registered(self, peer: str, *, protocol: str = "gossipsub") -> bool:
        """Whether an inbound handler is installed on this channel."""
        return (peer, protocol) in self._handlers

    def add_peer(self, peer: str, neighbors: list[str]) -> None:
        """Join a new peer to the topology at runtime.

        Used by churn scenarios and by the bot-army attack, whose whole
        point (§I) is that fresh peer identities are free to mint.
        """
        if peer in self.graph:
            raise UnknownPeer(f"{peer!r} already exists")
        self.graph.add_node(peer)
        self.stats[peer] = TrafficStats()
        for neighbor in neighbors:
            if neighbor not in self.graph:
                raise UnknownPeer(f"neighbor {neighbor!r} does not exist")
            self.graph.add_edge(peer, neighbor)

    def remove_peer(self, peer: str) -> None:
        """Detach a peer (bot retirement / churn); stats are retained."""
        if peer in self.graph:
            self.graph.remove_node(peer)
        for key in [k for k in self._handlers if k[0] == peer]:
            del self._handlers[key]

    def neighbors(self, peer: str) -> list[str]:
        if peer not in self.graph:
            raise UnknownPeer(f"{peer!r} is not in the topology")
        return sorted(self.graph.neighbors(peer))

    def connected(self, a: str, b: str) -> bool:
        return self.graph.has_edge(a, b)

    def disconnect(self, a: str, b: str) -> None:
        """Tear down a link (used when peers prune/ban each other)."""
        if self.graph.has_edge(a, b):
            self.graph.remove_edge(a, b)

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

        Consecutive targets whose sampled delays are equal share one
        simulator event that delivers to each in order.  That is the
        order separate events would run in: sends issued back to back
        take consecutive ``(time, seq)`` heap slots and nothing can be
        scheduled between them.  The event looks each target's handler
        up as it reaches it (a handler may unregister a later member),
        and a raising handler does not strand the rest: all are
        delivered, then the first error is re-raised.  So
        ``Simulator.processed_events`` counts delivery events, not
        copies; ``total_messages()`` counts copies.

        ``require_edge=False`` models overlay protocols (e.g. a DHT) that
        dial any reachable peer directly instead of using mesh links.
        """
        targets = (dst,) if isinstance(dst, str) else dst
        peers = self.graph._adj  # networkx's adjacency dict: one probe per copy
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
        group: list[str] = []
        group_delay = 0.0
        for target in targets:
            if drop and rng.random() < drop:
                continue
            delay = sample(src, target, rng)
            if group and delay != group_delay:
                self._schedule_delivery(group_delay, src, group, payload, size, protocol)
                group = []
            group.append(target)
            group_delay = delay
        if group:
            self._schedule_delivery(group_delay, src, group, payload, size, protocol)

    def _schedule_delivery(
        self,
        delay: float,
        src: str,
        group: list[str],
        payload: Any,
        size: int,
        protocol: str,
    ) -> None:
        """One simulator event delivering ``payload`` to every peer of ``group``."""
        handlers, stats = self._handlers, self.stats

        def deliver() -> None:
            error: Exception | None = None
            for dst in group:
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

        self.simulator.schedule(delay, deliver)

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
