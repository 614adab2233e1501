"""A Kademlia-style DHT over the network substrate.

§IV-A ("Enhancing performance by off-chain solutions") proposes replacing
the membership contract "with a distributed group management scheme e.g.,
through distributed hash tables".  This module supplies the DHT: iterative
XOR-metric lookups, k-closest replication for stores, and versioned values
so newer membership snapshots displace older ones.

The implementation is event-driven (no async/await — everything is
callbacks on the simulator clock, like the rest of the reproduction) and
deliberately compact: k-buckets are approximated by a flat contact table
pruned to the closest ``contact_limit`` peers, which behaves identically
for the network sizes (tens to thousands) these experiments run.

DHT traffic uses the transport's ``dht`` protocol channel and dials peers
directly (overlay semantics), so lookups cost real simulated round trips —
the latency comparison against on-chain registration in experiment A1 is
honest.

Failure contract: a ``FindNode``/``FindValue`` query is one single-attempt
:class:`~repro.net.request.RequestDispatcher` request, answered within
``DHTConfig.lookup_timeout`` by the peer that was asked (on the
``kademlia-reply`` channel: every node is both client and server) or
failed; either way its concurrency slot frees and the lookup moves on, so
``put``/``get`` always call back and leave no waiter or timer behind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.codec import size_of
from repro.crypto.hashing import tagged_sha256
from repro.errors import NetworkError
from repro.net.request import RequestDispatcher, RequestFailure
from repro.net.simulator import Simulator
from repro.net.transport import Network

PROTOCOL = "dht"
REPLY_PROTOCOL = "kademlia-reply"

#: Bits of the key space.
ID_BITS = 64


def node_id(peer_id: str) -> int:
    """Map a peer name into the key space."""
    return int.from_bytes(tagged_sha256(b"dht-node-id", peer_id.encode("utf-8"))[:8], "big")


def key_id(key: bytes) -> int:
    """Map a storage key into the key space."""
    return int.from_bytes(tagged_sha256(b"dht-key", key)[:8], "big")


def distance(a: int, b: int) -> int:
    """Kademlia's XOR metric."""
    return a ^ b


# -- wire messages -----------------------------------------------------------


@dataclass(frozen=True)
class FindNode:
    request_id: int
    target: int

    def byte_size(self) -> int:
        return 24


@dataclass(frozen=True)
class FoundNodes:
    request_id: int
    contacts: tuple[str, ...]

    def byte_size(self) -> int:
        return 16 + sum(len(c) for c in self.contacts)


@dataclass(frozen=True)
class StoreValue:
    key: bytes
    value: Any
    version: int

    def byte_size(self) -> int:
        return 48 + len(self.key) + size_of(self.value, 64)


@dataclass(frozen=True)
class FindValue:
    request_id: int
    key: bytes

    def byte_size(self) -> int:
        return 24 + len(self.key)


@dataclass(frozen=True)
class FoundValue:
    request_id: int
    key: bytes
    value: Any
    version: int
    contacts: tuple[str, ...]

    def byte_size(self) -> int:
        size = size_of(self.value, 64)
        return 48 + len(self.key) + size + sum(len(c) for c in self.contacts)


@dataclass
class DHTConfig:
    """Lookup parameters (Kademlia's k and alpha)."""

    replication: int = 4  # k: store on this many closest nodes
    concurrency: int = 3  # alpha: parallel in-flight queries
    contact_limit: int = 64
    lookup_timeout: float = 3.0


class KademliaNode:
    """One peer's DHT endpoint."""

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        config: DHTConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.peer_id = peer_id
        self.node_id = node_id(peer_id)
        self.network = network
        self.simulator = simulator
        self.config = config or DHTConfig()
        self.rng = rng or random.Random(self.node_id & 0xFFFF)
        self._contacts: set[str] = set()
        self._storage: dict[bytes, tuple[Any, int]] = {}
        self.dispatcher = RequestDispatcher(
            peer_id,
            network,
            simulator,
            protocol=PROTOCOL,
            reply_protocol=REPLY_PROTOCOL,
            timeout=self.config.lookup_timeout,
            require_edge=False,
        )
        network.register(peer_id, self._on_message, protocol=PROTOCOL)

    # -- bootstrap / contacts ----------------------------------------------

    def bootstrap(self, seeds: list[str]) -> None:
        """Learn initial contacts and announce ourselves to them."""
        for seed in seeds:
            if seed != self.peer_id:
                self._learn(seed)
                # A FIND_NODE for our own id doubles as the announcement;
                # the answer is not waited for.
                self.dispatcher.request(
                    (seed,), partial(FindNode, target=self.node_id)
                )

    def _learn(self, peer: str) -> None:
        if peer == self.peer_id:
            return
        self._contacts.add(peer)
        if len(self._contacts) > self.config.contact_limit:
            # Keep the closest contacts (flat approximation of k-buckets).
            ranked = sorted(self._contacts, key=lambda p: distance(node_id(p), self.node_id))
            self._contacts = set(ranked[: self.config.contact_limit])

    def closest_contacts(self, target: int, count: int) -> list[str]:
        return sorted(self._contacts, key=lambda p: distance(node_id(p), target))[:count]

    # -- public API ------------------------------------------------------------

    def put(self, key: bytes, value: Any, version: int, on_done: Callable[[int], None] | None = None) -> None:
        """Store ``value`` on the k nodes closest to ``key``.

        ``version`` resolves conflicts: nodes keep the highest version.
        ``on_done`` receives the number of replicas written.
        """
        def have_targets(nodes: list[str]) -> None:
            targets = nodes[: self.config.replication] or [self.peer_id]
            for target in targets:
                if target == self.peer_id:
                    self._store_local(key, value, version)
                else:
                    self._send(target, StoreValue(key=key, value=value, version=version))
            if on_done is not None:
                on_done(len(targets))

        self.iterative_find_node(key_id(key), have_targets)

    def get(self, key: bytes, on_result: Callable[[Any | None, int], None]) -> None:
        """Look up ``key``; ``on_result(value, version)`` (None if absent)."""
        best = list(self._storage.get(key, (None, -1)))  # [value, version]

        def on_reply(reply: Any) -> list[str]:
            if isinstance(reply, FoundValue):
                if reply.value is not None and reply.version > best[1]:
                    best[:] = reply.value, reply.version
                return list(reply.contacts)
            return []

        def finished(_nodes: list[str]) -> None:
            on_result(*best)

        self._iterative_lookup(
            key_id(key), partial(FindValue, key=key), on_reply, finished
        )

    def iterative_find_node(self, target: int, on_done: Callable[[list[str]], None]) -> None:
        """Find the closest known nodes to ``target`` (including ourselves)."""

        def on_reply(reply: Any) -> list[str]:
            if isinstance(reply, FoundNodes):
                return list(reply.contacts)
            return []

        def finished(nodes: list[str]) -> None:
            merged = sorted(
                set(nodes) | {self.peer_id},
                key=lambda p: distance(node_id(p), target),
            )
            on_done(merged[: self.config.replication])

        self._iterative_lookup(
            target, partial(FindNode, target=target), on_reply, finished
        )

    # -- the iterative lookup engine ------------------------------------------------

    def _iterative_lookup(
        self,
        target: int,
        make_query: Callable[[int], Any],
        on_reply: Callable[[Any], list[str]],
        finished: Callable[[list[str]], None],
    ) -> None:
        """Query ever-closer peers (``make_query(request_id)`` is the wire
        message) until the closest known ones have all answered or failed."""
        state = {
            "queried": set(),
            "in_flight": 0,
            "best": self.closest_contacts(target, self.config.replication * 2),
        }

        def advance() -> None:
            candidates = [p for p in state["best"] if p not in state["queried"]]
            if state["in_flight"] == 0 and not candidates:
                finished(state["best"][: self.config.replication])
                return
            while state["in_flight"] < self.config.concurrency and candidates:
                peer = candidates.pop(0)
                if peer in state["queried"]:
                    # An unreachable peer fails inside request(), and the
                    # nested advance() may have queried this one.
                    continue
                state["queried"].add(peer)
                state["in_flight"] += 1
                self.dispatcher.request((peer,), make_query).subscribe(
                    partial(handle, peer)
                )

        def handle(peer: str, reply: Any) -> None:
            state["in_flight"] -= 1
            if not isinstance(reply, RequestFailure):
                self._learn(peer)  # it answered: a live contact
                for contact in on_reply(reply):
                    self._learn(contact)
                    if contact not in state["best"]:
                        state["best"].append(contact)
                state["best"].sort(key=lambda p: distance(node_id(p), target))
                del state["best"][self.config.replication * 3 :]
            advance()

        advance()

    # -- message handling ------------------------------------------------------------

    def _on_message(self, sender: str, message: Any) -> None:
        self._learn(sender)
        if isinstance(message, FindNode):
            contacts = tuple(
                p for p in self.closest_contacts(message.target, self.config.replication * 2)
                if p != sender
            )
            self._send(
                sender,
                FoundNodes(request_id=message.request_id, contacts=contacts),
                REPLY_PROTOCOL,
            )
        elif isinstance(message, FindValue):
            stored = self._storage.get(message.key)
            contacts = tuple(
                p for p in self.closest_contacts(key_id(message.key), self.config.replication)
                if p != sender
            )
            self._send(
                sender,
                FoundValue(
                    request_id=message.request_id,
                    key=message.key,
                    value=stored[0] if stored else None,
                    version=stored[1] if stored else -1,
                    contacts=contacts,
                ),
                REPLY_PROTOCOL,
            )
        elif isinstance(message, StoreValue):
            self._store_local(message.key, message.value, message.version)

    def _store_local(self, key: bytes, value: Any, version: int) -> None:
        existing = self._storage.get(key)
        if existing is None:
            self._storage[key] = (value, version)
            return
        current_value, current_version = existing
        merge = getattr(current_value, "merge", None)
        if callable(merge) and hasattr(value, "merge"):
            # CRDT values: concurrent writes join instead of racing.  The
            # stored version is the merged state's own version when it
            # exposes one, otherwise the max of the two.
            merged = merge(value)
            merged_version = getattr(merged, "version", max(version, current_version))
            self._storage[key] = (merged, merged_version)
        elif version > current_version:
            self._storage[key] = (value, version)

    def _send(self, peer: str, message: Any, protocol: str = PROTOCOL) -> None:
        try:
            self.network.send(
                self.peer_id, peer, message, protocol=protocol, require_edge=False
            )
        except NetworkError:
            pass  # peer left; its own timeout handles a reply it never gets
