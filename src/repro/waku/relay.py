"""11/WAKU2-RELAY — "a thin layer over the libp2p GossipSub routing protocol".

§I of the paper: WAKU-RELAY is the transport layer of Waku, a
privacy-preserving pubsub over GossipSub.  The thin layer consists of:

* Waku-specific message framing (:class:`repro.waku.message.WakuMessage`),
* content-topic demultiplexing on top of the single pubsub mesh,
* anonymity-preserving defaults (receiver-derived message ids, no sender
  attribution in the wire format).

WAKU-RLN-RELAY (:mod:`repro.core.protocol`) extends this class with proof
attachment and validation.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.gossipsub.messages import PubSubMessage
from repro.gossipsub.router import GossipSubRouter, Validator
from repro.gossipsub.scoring import ScoreParams
from repro.net.simulator import Simulator
from repro.net.transport import Network, ProtocolTraffic
from repro.waku.message import DEFAULT_PUBSUB_TOPIC, WakuMessage

MessageCallback = Callable[[WakuMessage], None]


class WakuRelay:
    """One peer's relay endpoint."""

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        pubsub_topic: str = DEFAULT_PUBSUB_TOPIC,
        score_params: ScoreParams | None = None,
        rng: random.Random | None = None,
        telemetry=None,
    ) -> None:
        self.peer_id = peer_id
        self.pubsub_topic = pubsub_topic
        self.router = GossipSubRouter(
            peer_id,
            network,
            simulator,
            score_params=score_params,
            rng=rng,
            telemetry=telemetry,
        )
        self._content_callbacks: dict[str, list[MessageCallback]] = {}
        self._all_callbacks: list[MessageCallback] = []
        self.router.subscribe(self.pubsub_topic, self._on_pubsub_message)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.router.start()

    def stop(self) -> None:
        self.router.stop()

    # -- publishing ------------------------------------------------------------

    def publish(self, message: WakuMessage) -> PubSubMessage:
        """Publish a Waku message into the mesh."""
        return self.router.publish(self.pubsub_topic, message)

    # -- subscriptions ------------------------------------------------------------

    def subscribe(
        self, callback: MessageCallback, *, content_topic: str | None = None
    ) -> None:
        """Receive relayed messages, optionally filtered by content topic."""
        if content_topic is None:
            self._all_callbacks.append(callback)
        else:
            self._content_callbacks.setdefault(content_topic, []).append(callback)

    def set_validator(self, validator: Validator) -> None:
        """Install a pubsub validator (WAKU-RLN-RELAY's hook, §III-F).

        The validator may return a :class:`~repro.net.promise.Promise` to
        park the message until a batched verification verdict arrives.
        """
        self.router.set_validator(self.pubsub_topic, validator)

    # -- internals ----------------------------------------------------------------

    def _on_pubsub_message(self, pubsub_message: PubSubMessage) -> None:
        message = pubsub_message.payload
        if not isinstance(message, WakuMessage):
            return
        for callback in list(self._all_callbacks):
            callback(message)
        for callback in list(self._content_callbacks.get(message.content_topic, [])):
            callback(message)

    @property
    def stats(self):
        return self.router.stats

    def traffic(self) -> ProtocolTraffic:
        """This peer's relay-channel (gossipsub) bandwidth slice.

        Excludes request/response channels (store, witness, telemetry…)
        sharing the wire — the relay side of the telemetry-vs-relay byte
        split the cost-of-observability benchmark reports.
        """
        stats = self.router.network.stats.get(self.peer_id)
        if stats is None:
            return ProtocolTraffic()
        return stats.per_protocol.get("gossipsub", ProtocolTraffic())
