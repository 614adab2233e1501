"""The Waku message format (14/WAKU2-MESSAGE).

Every protocol in the Waku family — relay, store, filter, and RLN-relay —
moves :class:`WakuMessage` objects.  A message has a payload, a content
topic (application-level routing key, distinct from the pubsub topic the
relay meshes form around), a sender timestamp, and an optional
``rate_limit_proof`` attached by WAKU-RLN-RELAY (§III-E's metadata bundle;
typed as ``Any`` here because the proof structure lives in
:mod:`repro.core.messages`, a layer above).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.codec import Wire, memo_slots, size_of
from repro.crypto.hashing import message_id
from repro.net.promise import Promise

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.pipeline.batch_verifier import BatchVerifier
    from repro.telemetry.disttrace import SpanContext

#: The default pubsub topic of Waku v2 networks.
DEFAULT_PUBSUB_TOPIC = "/waku/2/default-waku/proto"


@dataclass(frozen=True, slots=True)
class WakuMessage(memo_slots("_size")):
    """One application message (its wire size remembered in a slot)."""

    payload: bytes
    content_topic: str
    timestamp: float = 0.0
    ephemeral: bool = False
    rate_limit_proof: Any = None
    #: Optional distributed-tracing envelope extension (PR 9): the
    #: sender's :class:`~repro.telemetry.disttrace.SpanContext`.  Not
    #: part of :meth:`message_id`: every relay hop re-stamps it, and the
    #: copy keeps its id; ``None`` costs zero wire bytes.
    trace: "SpanContext | None" = None

    def message_id(self, pubsub_topic: str = DEFAULT_PUBSUB_TOPIC) -> bytes:
        """The id a receiver derives: pubsub topic, payload, content topic and
        the bundle's wire bytes (§III-E's proof section, if it has one) — all
        §III-F judges; not ``timestamp``, ``ephemeral`` or ``trace``."""
        proof = self.rate_limit_proof
        try:  # a bundle whose fields do not encode is junk: hostile input
            section = proof.to_bytes() if isinstance(proof, Wire) else b""
        except (AttributeError, TypeError, OverflowError, struct.error):
            section = b""
        return message_id(self.payload, pubsub_topic, self.content_topic.encode("utf-8"), section)

    def byte_size(self) -> int:
        size = getattr(self, "_size", None)
        if size is None:
            size = len(self.payload) + len(self.content_topic) + 8 + 1
            proof = self.rate_limit_proof
            if proof is not None:
                size += size_of(proof, 128)
            if self.trace is not None:
                size += self.trace.byte_size()
            object.__setattr__(self, "_size", size)
        return size

    def with_proof(self, proof: Any) -> "WakuMessage":
        """Copy of this message carrying a rate-limit proof."""
        return replace(self, rate_limit_proof=proof)

    def with_trace(self, trace: "SpanContext | None") -> "WakuMessage":
        """Copy of this message carrying (or stripped of) a span context.

        Every relay hop of a traced message re-stamps it, so the copy is
        built field by field rather than through ``dataclasses.replace``.
        """
        return type(self)(
            self.payload,
            self.content_topic,
            self.timestamp,
            self.ephemeral,
            self.rate_limit_proof,
            trace,
        )


def proof_verdict(
    checker: "BatchVerifier | None", message: WakuMessage
) -> Promise[bool]:
    """The verdict a service path (store, filter, lightpush) waits on.

    Already resolved ``True`` when there is nothing to check (no checker
    configured, or a proof-less message).  Lives here, not beside the
    checker: :mod:`repro.pipeline` is a layer above and imports this one.
    """
    verdict = None if checker is None else checker.check_deferred(message)
    return _NOTHING_TO_CHECK if verdict is None else verdict


#: Shared by every unchecked message: a settled promise holds no callbacks.
_NOTHING_TO_CHECK: Promise[bool] = Promise()
_NOTHING_TO_CHECK.resolve(True)
