"""Pipeline stage 1 — stateless ingress gates.

Maps onto the *front* of the §III-F routing decision: everything here runs
before any field arithmetic, so an invalid-proof flood (experiment E10/E11)
that fails these gates costs a routing peer only integer comparisons:

* **framing** — the message must be a well-formed Waku message carrying a
  well-formed :class:`~repro.core.messages.RateLimitProof` bundle (§III-E's
  ``(m, (x, y), phi, epoch, tau, pi)``; a missing bundle is §III-F's
  implicit "no proof, no relay" drop);
* **size** — payloads over the configured ceiling are dropped before they
  are hashed (``x = H(m)`` later in the pipeline costs per-byte work);
* **epoch window** — §III-F item 1: more than ``Thr`` epochs from the local
  clock's epoch in either direction is dropped (integer subtraction only).

Message ids are not deduplicated here: the router's message table drops
a witnessed id (derived over payload, content topic and bundle) before
the validator runs, and a repeat after the seen TTL is judged
``DUPLICATE`` by the nullifier log from the cached proof verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.messages import RateLimitProof
from repro.errors import ProtocolError
from repro.waku.message import WakuMessage

#: Largest payload a relayed bundle may carry (1 MiB); a pipeline's
#: prefilter drops anything bigger before any field arithmetic.
MAX_PAYLOAD_BYTES = 1 << 20


class PrefilterOutcome(Enum):
    """Verdict of the stateless gates, in the order they are applied."""

    PASS = "pass"
    MALFORMED = "malformed"
    MISSING_PROOF = "missing-proof"
    TOO_LARGE = "too-large"
    STALE_EPOCH = "stale-epoch"

    def __init__(self, value: str) -> None:
        #: Index into per-gate tables (see ``ValidationOutcome.slot``).
        self.slot = len(type(self)._member_names_)


@dataclass
class PrefilterStats:
    """Per-gate drop counters (all drops here cost zero field operations)."""

    passed: int = 0
    #: Drops per gate, indexed by :attr:`PrefilterOutcome.slot` (PASS stays 0).
    counts: list[int] = field(default_factory=lambda: [0] * len(PrefilterOutcome))

    def total_dropped(self) -> int:
        return sum(self.counts)


class Prefilter:
    """The stateless gates, applied in §III-F order."""

    def __init__(
        self, *, max_epoch_gap: int, max_payload_bytes: int = MAX_PAYLOAD_BYTES
    ) -> None:
        if max_epoch_gap < 1:
            raise ProtocolError("max_epoch_gap must be >= 1")
        if max_payload_bytes < 1:
            raise ProtocolError("max_payload_bytes must be >= 1")
        self.max_epoch_gap = max_epoch_gap
        self.max_payload_bytes = max_payload_bytes
        self.stats = PrefilterStats()

    def check(self, message: object, local_epoch: int) -> PrefilterOutcome:
        """Classify one incoming bundle against the cheap gates."""
        if not isinstance(message, WakuMessage) or not isinstance(
            message.payload, (bytes, bytearray)
        ):
            outcome = PrefilterOutcome.MALFORMED
        elif not isinstance(proof := message.rate_limit_proof, RateLimitProof):
            outcome = PrefilterOutcome.MISSING_PROOF
        elif len(message.payload) > self.max_payload_bytes:
            outcome = PrefilterOutcome.TOO_LARGE
        # §III-F item 1's core.epoch.epoch_gap, spelled out on the hot path.
        elif abs(local_epoch - proof.epoch) > self.max_epoch_gap:
            outcome = PrefilterOutcome.STALE_EPOCH
        else:
            self.stats.passed += 1
            return PrefilterOutcome.PASS
        self.stats.counts[outcome.slot] += 1
        return outcome
