"""Experiment metrics: spam containment, goodput, latency, resource waste.

These are the measurements the benchmark harness prints for experiments
E7–E10; they operate on the stats counters every peer/router/validator in
the reproduction maintains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.analysis.reporting import percentile


@dataclass(frozen=True)
class SpamContainment:
    """How far spam travelled and what it cost the network."""

    spam_published: int
    spam_deliveries: int  # sum over peers of spam messages delivered to apps
    honest_published: int
    honest_deliveries: int
    peer_count: int

    @property
    def spam_reach(self) -> float:
        """Average fraction of peers each spam message reached."""
        if self.spam_published == 0 or self.peer_count == 0:
            return 0.0
        return self.spam_deliveries / (self.spam_published * self.peer_count)

    @property
    def honest_reach(self) -> float:
        if self.honest_published == 0 or self.peer_count == 0:
            return 0.0
        return self.honest_deliveries / (self.honest_published * self.peer_count)

    @property
    def containment_factor(self) -> float:
        """honest_reach / spam_reach — higher means better containment."""
        if self.spam_reach == 0:
            return math.inf
        return self.honest_reach / self.spam_reach


def spam_containment(
    peers: Mapping[str, object],
    *,
    is_spam_payload,
    spam_published: int,
    honest_published: int,
) -> SpamContainment:
    """Compute containment from peers exposing a ``received`` message list."""
    spam_deliveries = 0
    honest_deliveries = 0
    for peer in peers.values():
        for message in getattr(peer, "received", []):
            if is_spam_payload(message.payload):
                spam_deliveries += 1
            else:
                honest_deliveries += 1
    return SpamContainment(
        spam_published=spam_published,
        spam_deliveries=spam_deliveries,
        honest_published=honest_published,
        honest_deliveries=honest_deliveries,
        peer_count=len(peers),
    )


@dataclass(frozen=True)
class LatencySummary:
    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, maximum=0.0)
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 0.5, presorted=True),
            p95=percentile(ordered, 0.95, presorted=True),
            maximum=ordered[-1],
        )


class DeliveryTracker:
    """Records publish and delivery times to compute dissemination latency.

    Wire it to peers before publishing::

        tracker = DeliveryTracker(simulator)
        for peer in peers.values():
            peer.relay.subscribe(tracker.on_delivery(peer.peer_id))
        tracker.mark_published(payload)
    """

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self._published_at: dict[bytes, float] = {}
        self._delivered_at: dict[bytes, dict[str, float]] = {}

    def mark_published(self, payload: bytes) -> None:
        self._published_at[payload] = self.simulator.now

    def on_delivery(self, peer_id: str):
        def callback(message) -> None:
            payload = message.payload
            if payload in self._published_at:
                self._delivered_at.setdefault(payload, {})[peer_id] = self.simulator.now

        return callback

    def latencies(self, payload: bytes) -> list[float]:
        start = self._published_at.get(payload)
        if start is None:
            return []
        return [t - start for t in self._delivered_at.get(payload, {}).values()]

    def delivery_count(self, payload: bytes) -> int:
        return len(self._delivered_at.get(payload, {}))

    def dissemination_time(self, payload: bytes) -> float | None:
        """Time until the last delivery (the paper's NetworkDelay notion)."""
        latencies = self.latencies(payload)
        return max(latencies) if latencies else None

    def summary(self, payload: bytes) -> LatencySummary:
        return LatencySummary.of(self.latencies(payload))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    items = list(values)
    return sum(items) / len(items) if items else 0.0


@dataclass(frozen=True)
class NullifierMapLoad:
    """Aggregated §III-F nullifier-map telemetry across a set of peers.

    Built from :class:`~repro.core.validator.ValidatorStats` objects —
    the memory story of the per-epoch map the paper argues stays small
    because entries older than the accepted window are pruned.  E15
    reports it next to the revocation timeline at 1M members.
    """

    peer_count: int
    entries_retained: int
    entries_pruned: int
    #: Largest any single peer's map ever grew.
    peak_entries: int

    @property
    def mean_retained(self) -> float:
        if self.peer_count == 0:
            return 0.0
        return self.entries_retained / self.peer_count

    @property
    def prune_ratio(self) -> float:
        """Fraction of all observed entries the window pruning reclaimed."""
        total = self.entries_retained + self.entries_pruned
        if total == 0:
            return 0.0
        return self.entries_pruned / total


def nullifier_map_load(stats: Iterable[object]) -> NullifierMapLoad:
    """Aggregate the nullifier-map counters over ``ValidatorStats``."""
    peers = retained = pruned = peak = 0
    for entry in stats:
        peers += 1
        retained += getattr(entry, "nullifier_entries", 0)
        pruned += getattr(entry, "nullifiers_pruned", 0)
        peak = max(peak, getattr(entry, "nullifier_peak_entries", 0))
    return NullifierMapLoad(
        peer_count=peers,
        entries_retained=retained,
        entries_pruned=pruned,
        peak_entries=peak,
    )
