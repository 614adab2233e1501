"""12/WAKU2-FILTER — lightweight content filtering for bandwidth-limited peers.

§I of the paper: a light version of WAKU-RELAY "for devices with limited
bandwidth".  A light node registers a content-topic filter with a full
node; the full node pushes only matching messages, so the light node never
joins the mesh or receives unrelated traffic.

Two roles:

* :class:`FilterNode` — a full (relay) peer serving subscriptions;
* :class:`FilterClient` — a light peer that subscribes and receives pushes.

Traffic flows over the transport's ``filter`` protocol channel.  A light
node cannot verify RLN proofs, so the full node's re-validation is the
only proof check its messages get: the client accepts a push only from a
full node it subscribed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.transport import Network
from repro.waku.message import WakuMessage, proof_verdict
from repro.waku.relay import WakuRelay

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.pipeline.batch_verifier import BatchVerifier

PROTOCOL = "filter"


@dataclass(frozen=True)
class FilterSubscribeRequest:
    """Register (or remove) a light node's content filter (unacknowledged)."""

    content_topics: tuple[str, ...]
    subscribe: bool

    def byte_size(self) -> int:
        return 48 + sum(len(t) for t in self.content_topics)


@dataclass(frozen=True)
class MessagePush:
    """A full node pushing one matching message to a light node."""

    message: WakuMessage

    def byte_size(self) -> int:
        return 16 + self.message.byte_size()


class FilterNode:
    """Full-node side: tracks filters and pushes matching relayed traffic."""

    def __init__(
        self,
        relay: WakuRelay,
        network: Network,
        *,
        proof_checker: "BatchVerifier | None" = None,
    ) -> None:
        self.relay = relay
        self.network = network
        #: Shared proof-verdict checker: light clients cannot verify RLN
        #: proofs themselves, so the full node re-validates before pushing
        #: — against the relay pipeline's verdict cache, not a fresh
        #: pairing (ROADMAP: verdict-cache sharing).
        self.proof_checker = proof_checker
        self.rejected_proofs = 0
        #: subscriber peer -> set of content topics
        self._filters: dict[str, set[str]] = {}
        relay.subscribe(self._on_relayed_message)
        network.register(relay.peer_id, self._on_request, protocol=PROTOCOL)

    def subscriber_count(self) -> int:
        return len(self._filters)

    def _on_request(self, sender: str, request: FilterSubscribeRequest) -> None:
        if not isinstance(request, FilterSubscribeRequest):
            return
        if request.subscribe:
            self._filters.setdefault(sender, set()).update(request.content_topics)
        else:
            topics = self._filters.get(sender)
            if topics is not None:
                topics.difference_update(request.content_topics)
                if not topics:
                    del self._filters[sender]

    def _on_relayed_message(self, message: WakuMessage) -> None:
        # Fresh pairing work rides the pipeline's executor at SERVICE
        # priority; the push happens at (simulated) verdict time.  A
        # synchronous executor resolves inline — the seed behaviour.
        proof_verdict(self.proof_checker, message).subscribe(
            lambda ok: self._push(message, ok)
        )

    def _push(self, message: WakuMessage, proof_ok: bool) -> None:
        if not proof_ok:
            self.rejected_proofs += 1
            return
        for subscriber, topics in self._filters.items():
            if message.content_topic in topics:
                if self.network.connected(self.relay.peer_id, subscriber):
                    self.network.send(
                        self.relay.peer_id,
                        subscriber,
                        MessagePush(message=message),
                        protocol=PROTOCOL,
                    )


class FilterClient:
    """Light-node side: subscribes to content topics, receives pushes."""

    def __init__(self, peer_id: str, network: Network) -> None:
        self.peer_id = peer_id
        self.network = network
        self._callbacks: dict[str, list[Callable[[WakuMessage], None]]] = {}
        #: full node -> content topics subscribed there; the only senders
        #: a push is accepted from.
        self._subscriptions: dict[str, set[str]] = {}
        self.received: list[WakuMessage] = []
        network.register(peer_id, self._on_push, protocol=PROTOCOL)

    def subscribe(
        self,
        full_node: str,
        content_topics: tuple[str, ...],
        callback: Callable[[WakuMessage], None] | None = None,
    ) -> None:
        for topic in content_topics:
            if callback is not None:
                self._callbacks.setdefault(topic, []).append(callback)
        request = FilterSubscribeRequest(content_topics=content_topics, subscribe=True)
        self.network.send(self.peer_id, full_node, request, protocol=PROTOCOL)
        self._subscriptions.setdefault(full_node, set()).update(content_topics)

    def unsubscribe(self, full_node: str, content_topics: tuple[str, ...]) -> None:
        request = FilterSubscribeRequest(content_topics=content_topics, subscribe=False)
        self.network.send(self.peer_id, full_node, request, protocol=PROTOCOL)
        topics = self._subscriptions.get(full_node)
        if topics is not None:
            topics.difference_update(content_topics)
            if not topics:
                del self._subscriptions[full_node]

    def _on_push(self, sender: str, push: MessagePush) -> None:
        if sender not in self._subscriptions or not isinstance(push, MessagePush):
            return
        self.received.append(push.message)
        for callback in self._callbacks.get(push.message.content_topic, []):
            callback(push.message)
