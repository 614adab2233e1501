"""The delivery record: which peers' relays delivered a payload, and when.

A deployment keeps no delivery state of its own.  A script, test or
experiment that counts deliveries, or measures how long a message took
to reach the fleet (E7), builds a :class:`DeliveryTracker` over the
deployment before publishing.
"""

from __future__ import annotations

from functools import partial


class DeliveryTracker:
    """First delivery time per (payload, peer), plus publish marks for latency.

    Build it over a deployment (anything with ``peers`` and ``simulator``)
    before publishing; it subscribes once to every peer's relay::

        tracker = DeliveryTracker(deployment)
        tracker.mark_published(payload)    # only needed for latencies
        deployment.peer("peer-000").publish(payload)

    It keeps one entry per distinct payload delivered, for as long as its
    holder keeps it.
    """

    def __init__(self, deployment) -> None:
        self.simulator = deployment.simulator
        self._published_at: dict[bytes, float] = {}
        self._delivered_at: dict[bytes, dict[str, float]] = {}
        for peer_id, peer in deployment.peers.items():
            peer.relay.subscribe(partial(self._on_delivery, peer_id))

    def mark_published(self, payload: bytes) -> None:
        self._published_at[payload] = self.simulator.now

    def _on_delivery(self, peer_id: str, message) -> None:
        # A later delivery of the same payload (say, republished in
        # another epoch) keeps the first time.
        self._delivered_at.setdefault(message.payload, {}).setdefault(
            peer_id, self.simulator.now
        )

    def latencies(self, payload: bytes) -> list[float]:
        start = self._published_at.get(payload)
        if start is None:
            return []
        return [t - start for t in self._delivered_at.get(payload, {}).values()]

    def delivery_count(self, payload: bytes) -> int:
        """How many distinct peers' relays delivered ``payload``."""
        return len(self._delivered_at.get(payload, {}))

    def dissemination_time(self, payload: bytes) -> float | None:
        """Time until the last delivery (the paper's NetworkDelay notion)."""
        latencies = self.latencies(payload)
        return max(latencies) if latencies else None
