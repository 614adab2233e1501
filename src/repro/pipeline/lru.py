"""A bounded least-recently-used map: the proof-verdict cache's store.

Recency is the ``dict``'s own order (a hit is re-inserted at the end): an
entry costs its dict slot and no link."""

from __future__ import annotations

from typing import TypeVar

from repro.errors import ProtocolError

K = TypeVar("K")
V = TypeVar("V")


class BoundedLRU(dict[K, V]):
    """Recency-ordered map; inserting past ``capacity`` evicts the oldest."""

    __slots__ = ("capacity",)

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError("LRU capacity must be >= 1")
        super().__init__()
        self.capacity = capacity

    def get(self, key: K) -> V | None:
        """Return the value for ``key`` (refreshing its recency), else None;
        a ``None`` value reads as absent."""
        value = self.pop(key, None)
        if value is not None:
            self[key] = value
        return value

    def put(self, key: K, value: V) -> None:
        """Insert ``key`` as most recent, evicting the oldest past capacity."""
        self.pop(key, None)
        self[key] = value
        if len(self) > self.capacity:
            del self[next(iter(self))]
