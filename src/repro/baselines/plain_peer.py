"""A plain WAKU-RELAY peer with optional content filtering + peer scoring.

This is the "state of the art" the paper's introduction measures RLN
against: no rate-limit proofs, optionally the GossipSub v1.1 peer-scoring
defence with an application-level spam classifier.  The classifier REJECTs
messages it flags, which feeds the scorer's invalid-message counter —
exactly how libp2p deployments wire content policies into scoring.

Two failure modes the experiments exercise:

* **unscored spam** (scoring off): everything is relayed;
* **censorship** (scoring on): the classifier's false positives get honest
  peers pruned and graylisted — the "prone to censorship" critique of §I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.gossipsub.messages import PubSubMessage
from repro.gossipsub.router import ValidationResult
from repro.gossipsub.scoring import ScoreParams
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelay

#: (message) -> True when the classifier flags the message as spam.
SpamClassifier = Callable[[WakuMessage], bool]


@dataclass
class PlainPeerStats:
    published: int = 0
    flagged: int = 0


class PlainRelayPeer:
    """Baseline relay peer (no RLN)."""

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        score_params: ScoreParams | None = None,
        classifier: SpamClassifier | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.peer_id = peer_id
        self.simulator = simulator
        self.classifier = classifier
        self.stats = PlainPeerStats()
        self.relay = WakuRelay(
            peer_id,
            network,
            simulator,
            score_params=score_params,
            rng=rng,
        )
        if classifier is not None:
            self.relay.set_validator(self._validate)
        self.received: list[WakuMessage] = []
        self.relay.subscribe(self.received.append)

    def start(self) -> None:
        self.relay.start()

    def stop(self) -> None:
        self.relay.stop()

    def publish(
        self, payload: bytes, *, content_topic: str = "/waku/1/chat/proto"
    ) -> WakuMessage:
        message = WakuMessage(
            payload=payload, content_topic=content_topic, timestamp=self.simulator.now
        )
        self.stats.published += 1
        self.relay.publish(message)
        return message

    def _validate(self, sender: str, pubsub_message: PubSubMessage) -> ValidationResult:
        message = pubsub_message.payload
        if not isinstance(message, WakuMessage):
            return ValidationResult.REJECT
        assert self.classifier is not None
        if self.classifier(message):
            self.stats.flagged += 1
            return ValidationResult.REJECT
        return ValidationResult.ACCEPT
