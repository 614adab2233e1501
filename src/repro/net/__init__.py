"""Network substrate: event simulator, clocks, latency, topology, transport."""

from repro.net.simulator import EventHandle, Simulator
from repro.net.clock import DriftModel, PeerClock
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    UniformLatency,
    dissemination_bound,
)
from repro.net.topology import (
    erdos_renyi,
    full_mesh,
    peer_names,
    random_regular,
    small_world,
    star,
)
from repro.net.request import (
    PendingRequest,
    RequestDispatcher,
    RequestFailure,
    RequestStats,
)
from repro.net.transport import Network, TrafficStats

__all__ = [
    "PendingRequest",
    "RequestDispatcher",
    "RequestFailure",
    "RequestStats",
    "EventHandle",
    "Simulator",
    "DriftModel",
    "PeerClock",
    "ConstantLatency",
    "LatencyModel",
    "UniformLatency",
    "dissemination_bound",
    "erdos_renyi",
    "full_mesh",
    "peer_names",
    "random_regular",
    "small_world",
    "star",
    "Network",
    "TrafficStats",
]
