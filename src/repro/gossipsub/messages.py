"""GossipSub wire messages.

One :class:`RPC` envelope carries everything two peers exchange: full
messages being published/relayed, IHAVE/IWANT gossip, and GRAFT/PRUNE mesh
control — the protocol vocabulary of libp2p GossipSub v1.1 (reference [2]
of the paper) — plus v1.2's IDONTWANT.

``byte_size`` methods let the transport account bandwidth realistically;
an RLN message bundle is larger than a bare payload by exactly the proof
metadata the paper's §III-E enumerates.  The envelope and its control
frames are :class:`~repro.codec.Record` tuples: every relayed copy builds
an envelope and every instant's end builds IHAVE and IDONTWANT lists.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any

from repro.codec import Record, memo_slots, size_of
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


class IHave(Record, namedtuple("IHave", "topic msg_ids")):
    """Gossip advertisement: 'I have these message ids on this topic'."""

    __slots__ = ()

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic) + _ID_SIZE * len(self.msg_ids)


class IWant(Record, namedtuple("IWant", "msg_ids")):
    """Gossip request for full messages by id."""

    __slots__ = ()

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + _ID_SIZE * len(self.msg_ids)


class IDontWant(Record, namedtuple("IDontWant", "msg_ids")):
    """Cancel (gossipsub v1.2): 'I hold these ids; do not send them to me'."""

    __slots__ = ()

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + _ID_SIZE * len(self.msg_ids)


class Graft(Record, namedtuple("Graft", "topic")):
    """Request to join the sender's mesh for a topic."""

    __slots__ = ()

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic)


class Prune(Record, namedtuple("Prune", "topic")):
    """Notification of removal from the sender's mesh for a topic."""

    __slots__ = ()

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic)


class Subscribe(Record, namedtuple("Subscribe", "topic subscribe")):
    """Topic (un)subscription announcement."""

    __slots__ = ()

    def byte_size(self) -> int:
        return _ENVELOPE_OVERHEAD + len(self.topic) + 1


_RPCFields = namedtuple(
    "RPC", "messages ihave iwant idontwant graft prune subscriptions", defaults=((),) * 7
)


class RPC(Record, _RPCFields):
    """The envelope exchanged between neighbors: seven groups, each a tuple
    of its frames (``PubSubMessage``s, then ``IHave`` ... ``Subscribe``),
    empty unless given."""

    __slots__ = ()

    def byte_size(self) -> int:
        # Billed once per send: a relayed copy's message remembers its own.
        total = _ENVELOPE_OVERHEAD
        for group in self:
            for item in group:
                total += item.byte_size()
        return total
