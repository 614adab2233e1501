"""Message and seen caches for GossipSub.

``SeenCache`` deduplicates deliveries (time-based TTL); ``MessageCache``
keeps the last few heartbeat windows of full messages so IHAVE gossip can
be answered with IWANT responses — the structure libp2p calls ``mcache``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.gossipsub.messages import PubSubMessage


class SeenCache:
    """TTL set of message ids; insertion-ordered for cheap expiry."""

    def __init__(self, ttl: float = 120.0) -> None:
        self.ttl = ttl
        self._entries: OrderedDict[bytes, float] = OrderedDict()
        #: Timestamp of the oldest (first) entry; infinity when empty.
        self._oldest = float("inf")

    def witness(self, msg_id: bytes, now: float) -> bool:
        """Record ``msg_id``; True if it was *already* seen (a duplicate)."""
        if self._oldest < now - self.ttl:
            self._expire(now)
        if msg_id in self._entries:
            return True
        if not self._entries:
            self._oldest = now
        self._entries[msg_id] = now
        return False

    def __contains__(self, msg_id: bytes) -> bool:
        return msg_id in self._entries

    def forget(self, msg_id: bytes) -> None:
        """Drop an id witnessed for a message that was never actually judged."""
        if self._entries.pop(msg_id, None) == self._oldest:
            self._reset_oldest()

    def _expire(self, now: float) -> None:
        cutoff = now - self.ttl
        while self._entries:
            oldest_id, oldest_time = next(iter(self._entries.items()))
            if oldest_time >= cutoff:
                break
            del self._entries[oldest_id]
        self._reset_oldest()

    def _reset_oldest(self) -> None:
        self._oldest = next(iter(self._entries.values()), float("inf"))

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class MessageCache:
    """Sliding-window cache: ``history_length`` heartbeats of messages.

    ``gossip_length`` (<= history_length) controls how many recent windows
    feed IHAVE advertisements, matching the libp2p defaults (5, 3).
    """

    history_length: int = 5
    gossip_length: int = 3
    _windows: list[list[bytes]] = field(default_factory=list)
    _messages: dict[bytes, PubSubMessage] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gossip_length > self.history_length:
            raise ValueError("gossip_length cannot exceed history_length")
        if not self._windows:
            self._windows = [[]]

    def put(self, message: PubSubMessage) -> None:
        if message.msg_id in self._messages:
            return
        self._messages[message.msg_id] = message
        self._windows[0].append(message.msg_id)

    def get(self, msg_id: bytes) -> PubSubMessage | None:
        return self._messages.get(msg_id)

    def gossip_ids(self, topic: str) -> list[bytes]:
        """Ids in the newest ``gossip_length`` windows for one topic."""
        out = []
        for window in self._windows[: self.gossip_length]:
            for msg_id in window:
                message = self._messages.get(msg_id)
                if message is not None and message.topic == topic:
                    out.append(msg_id)
        return out

    def shift(self) -> None:
        """Advance one heartbeat: open a new window, drop the oldest."""
        self._windows.insert(0, [])
        while len(self._windows) > self.history_length:
            for msg_id in self._windows.pop():
                self._messages.pop(msg_id, None)

    def __len__(self) -> int:
        return len(self._messages)
