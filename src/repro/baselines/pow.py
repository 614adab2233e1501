"""Proof-of-Work spam protection — the Whisper baseline (§I).

Whisper (EIP-627), the p2p messaging layer of early Ethereum, priced
messages in computation: a message is relayed only if it carries a
hashcash-style nonce whose digest clears a difficulty target.  The paper's
critique, which experiment E8 quantifies:

* "The PoW technique imposes a high computational cost for messaging hence
  devices with limited resources won't be able to participate" — minting
  time scales as 2^difficulty / hash_rate, so the difficulty that prices
  out a spammer with server hardware prices out phones first;
* a well-resourced spammer buys messaging rate linearly with compute — no
  identification, no removal, no stake at risk.

Minting is modelled, not performed: the attempt count is drawn from its
geometric law and converted to a simulated minting delay through the
device's hash rate, so a 2^20 difficulty costs no wall-clock CPU.
Validators check the stamp's declared difficulty.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import ProtocolError
from repro.gossipsub.messages import PubSubMessage
from repro.gossipsub.router import ValidationResult
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelay


@dataclass(frozen=True)
class PoWStamp:
    """The nonce attached to a PoW-protected message."""

    nonce: int
    difficulty: int

    def byte_size(self) -> int:
        return 12


def sample_attempts(difficulty: int, rng: random.Random) -> int:
    """Sample how many attempts minting would take (geometric law).

    Inverse-CDF sampling, loop-free; one ``rng.random()`` draw per call.
    """
    p = 2.0 ** (-difficulty)
    u = rng.random()
    return max(1, int(math.ceil(math.log(1.0 - u) / math.log(1.0 - p)))) if p < 1 else 1


def expected_mint_seconds(difficulty: int, hash_rate: float) -> float:
    """Mean minting time for a device hashing ``hash_rate`` H/s."""
    if hash_rate <= 0:
        raise ProtocolError("hash rate must be positive")
    return (2.0**difficulty) / hash_rate


@dataclass
class PoWPeerStats:
    published: int = 0
    dropped_invalid: int = 0
    mint_seconds_total: float = 0.0
    hash_attempts_total: int = 0


class PoWRelayPeer:
    """A relay peer protected by Whisper-style PoW instead of RLN.

    ``hash_rate`` models the device: ~1e5 H/s for a phone-class device,
    ~1e8 H/s for a server-class spammer (single-threaded SHA-256 scales
    roughly like this).  Publishing *simulates* the minting delay: the
    message enters the mesh only after the sampled minting time has
    elapsed on the event clock.
    """

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        difficulty: int = 20,
        hash_rate: float = 1e5,
        rng: random.Random | None = None,
    ) -> None:
        if hash_rate <= 0:
            raise ProtocolError("hash rate must be positive")
        self.peer_id = peer_id
        self.simulator = simulator
        self.difficulty = difficulty
        self.hash_rate = hash_rate
        self.rng = rng or random.Random(zlib.crc32(peer_id.encode()))
        self.stats = PoWPeerStats()
        self.relay = WakuRelay(peer_id, network, simulator, rng=self.rng)
        self.relay.set_validator(self._validate)

    def start(self) -> None:
        self.relay.start()

    # -- publishing -------------------------------------------------------------

    def publish(
        self,
        payload: bytes,
        *,
        content_topic: str = "/whisper/1/chat/proto",
        on_published: Callable[[WakuMessage], None] | None = None,
    ) -> float:
        """Mint (simulated) and publish; returns the minting delay in seconds.

        The message is scheduled into the mesh after the minting delay —
        the messaging latency a resource-limited device pays under PoW.
        """
        attempts = sample_attempts(self.difficulty, self.rng)
        delay = attempts / self.hash_rate
        self.stats.hash_attempts_total += attempts
        self.stats.mint_seconds_total += delay
        # The stamp itself is faked (we did not really grind); validators
        # check the declared difficulty instead.
        stamp = PoWStamp(nonce=attempts, difficulty=self.difficulty)
        message = WakuMessage(
            payload=payload,
            content_topic=content_topic,
            timestamp=self.simulator.now,
            rate_limit_proof=stamp,
        )

        def fire() -> None:
            self.stats.published += 1
            self.relay.publish(message)
            if on_published is not None:
                on_published(message)

        self.simulator.schedule(delay, fire)
        return delay

    # -- validation ---------------------------------------------------------------

    def _validate(self, sender: str, pubsub_message: PubSubMessage) -> ValidationResult:
        message = pubsub_message.payload
        if not isinstance(message, WakuMessage):
            return ValidationResult.REJECT
        stamp = message.rate_limit_proof
        if not isinstance(stamp, PoWStamp) or stamp.difficulty < self.difficulty:
            self.stats.dropped_invalid += 1
            return ValidationResult.REJECT
        return ValidationResult.ACCEPT
