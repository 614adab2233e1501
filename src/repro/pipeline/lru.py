"""A bounded least-recently-used map shared by the pipeline's caches.

The prefilter's per-topic message-id dedup and the proof-verdict cache
need the same primitive: a recency-ordered bounded map that evicts the
least-recently-touched entry when an insertion exceeds capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, TypeVar

from repro.errors import ProtocolError

K = TypeVar("K")
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """Recency-ordered map; inserting past ``capacity`` evicts the oldest."""

    __slots__ = ("capacity", "evictions", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError("LRU capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self._entries: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K) -> V | None:
        """Return the value for ``key`` (refreshing its recency), else None.

        A ``None`` value reads as absent and is not refreshed.
        """
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> bool:
        """Insert ``key`` as most recent, evicting the oldest past capacity;
        True if it was already present."""
        entries = self._entries
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return True
        entries[key] = value  # a new key goes in last
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        return False

    def discard(self, key: K) -> None:
        """Remove ``key`` if present."""
        self._entries.pop(key, None)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
