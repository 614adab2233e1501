"""GossipSub wire messages.

One :class:`RPC` envelope carries everything two peers exchange: full
messages being published/relayed, IHAVE/IWANT gossip, and GRAFT/PRUNE mesh
control — the protocol vocabulary of libp2p GossipSub v1.1 (reference [2]
of the paper) — plus v1.2's IDONTWANT.

``byte_size`` methods let the transport account bandwidth realistically;
an RLN message bundle is larger than a bare payload by exactly the proof
metadata the paper's §III-E enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.codec import memo_slots, size_of
from repro.crypto.hashing import message_id

_ENVELOPE_OVERHEAD = 16
_ID_SIZE = 32


@dataclass(frozen=True, slots=True)
class PubSubMessage(memo_slots("msg_id", "_size")):
    """An application message travelling through the mesh.

    ``payload`` is raw bytes or an object with ``byte_size()`` (the RLN
    bundle).  No id and no publisher identity travel — the anonymity
    WAKU-RELAY inherits from gossip routing (§I): receivers derive
    ``msg_id``, remembered in a slot like the size: one object, every peer.
    """

    topic: str
    payload: Any

    def __getattr__(self, name: str) -> bytes:
        """An empty ``msg_id`` slot's first read: ``payload.message_id(topic)``
        (a Waku message's covers its RLN bundle), else :func:`message_id`."""
        if name != "msg_id":
            raise AttributeError(name)
        derive = getattr(self.payload, "message_id", None)
        msg_id = derive(self.topic) if callable(derive) else message_id(self.payload, self.topic)
        object.__setattr__(self, "msg_id", msg_id)
        return msg_id

    def with_payload(self, payload: Any) -> "PubSubMessage":
        """A copy carrying ``payload`` (a re-stamped trace) under this id."""
        copy = PubSubMessage(self.topic, payload)
        object.__setattr__(copy, "msg_id", self.msg_id)
        return copy

    def byte_size(self) -> int:
        # The id term stays billed, though receivers derive the id.
        size = getattr(self, "_size", None)
        if size is None:
            size = _ENVELOPE_OVERHEAD + _ID_SIZE + len(self.topic)
            size += size_of(self.payload, 64)
            object.__setattr__(self, "_size", size)
        return size


@dataclass(frozen=True)
class IHave:
    """Gossip advertisement: 'I have these message ids on this topic'."""

    topic: str
    msg_ids: tuple[bytes, ...]

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic) + _ID_SIZE * len(self.msg_ids)


@dataclass(frozen=True)
class IWant:
    """Gossip request for full messages by id."""

    msg_ids: tuple[bytes, ...]

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + _ID_SIZE * len(self.msg_ids)


@dataclass(frozen=True)
class IDontWant:
    """Cancel (gossipsub v1.2): 'I hold these ids; do not send them to me'."""

    msg_ids: tuple[bytes, ...]

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + _ID_SIZE * len(self.msg_ids)


@dataclass(frozen=True)
class Graft:
    """Request to join the sender's mesh for a topic."""

    topic: str

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic)


@dataclass(frozen=True)
class Prune:
    """Notification of removal from the sender's mesh for a topic."""

    topic: str

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic)


@dataclass(frozen=True)
class Subscribe:
    """Topic (un)subscription announcement."""

    topic: str
    subscribe: bool

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic) + 1


@dataclass(frozen=True)
class RPC:
    """The envelope exchanged between neighbors."""

    messages: tuple[PubSubMessage, ...] = ()
    ihave: tuple[IHave, ...] = ()
    iwant: tuple[IWant, ...] = ()
    idontwant: tuple[IDontWant, ...] = ()
    graft: tuple[Graft, ...] = ()
    prune: tuple[Prune, ...] = ()
    subscriptions: tuple[Subscribe, ...] = ()

    def _groups(self) -> tuple[tuple, ...]:
        return (
            self.messages, self.ihave, self.iwant, self.idontwant,
            self.graft, self.prune, self.subscriptions,
        )

    def byte_size(self) -> int:
        total = self.__dict__.get("_size")
        if total is None:
            total = _ENVELOPE_OVERHEAD
            for group in self._groups():
                for item in group:
                    total += item.byte_size()
            object.__setattr__(self, "_size", total)
        return total

    def is_empty(self) -> bool:
        return not any(self._groups())
