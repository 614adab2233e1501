"""Link-latency models for the network simulator.

§III-F defines NetworkDelay as "the maximum time that it takes for a
message to be fully disseminated in the network"; per-link latency models
are the knob experiments turn to produce a given dissemination bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol

from repro.errors import NetworkError


class LatencyModel(Protocol):
    """Samples the one-way delay of a (src, dst) link."""

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        ...

    def worst_case(self) -> float:
        """Upper bound on a single link's latency (for Thr computation)."""
        ...


@dataclass(frozen=True)
class ConstantLatency:
    """Every link takes exactly ``seconds``."""

    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise NetworkError("latency must be non-negative")

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return self.seconds

    def worst_case(self) -> float:
        return self.seconds


@dataclass(frozen=True)
class UniformLatency:
    """Latency uniform in [low, high] — a simple WAN model."""

    low: float = 0.02
    high: float = 0.2

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise NetworkError("need 0 <= low <= high")

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def worst_case(self) -> float:
        return self.high


def dissemination_bound(
    latency: LatencyModel, peer_count: int, mesh_degree: int
) -> float:
    """Worst-case network delay: per-link worst case times the hop bound.

    A GossipSub mesh of degree D over N peers has diameter at most
    ceil(log_D(N)) + 1 with overwhelming probability (random-regular-graph
    diameter); we use that as the paper's NetworkDelay estimate.
    """
    import math

    if peer_count < 2 or mesh_degree < 2:
        return latency.worst_case()
    hops = math.ceil(math.log(peer_count, mesh_degree)) + 1
    return latency.worst_case() * hops
