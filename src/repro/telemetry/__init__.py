"""Unified telemetry for the RLN-relay reproduction.

One :class:`Telemetry` object per simulation run bundles the three
surfaces the subsystems share:

* a :class:`~repro.telemetry.registry.MetricsRegistry` of interned
  counters, bound gauges and histograms (``name{label=value}`` keys);
* per-peer :class:`~repro.telemetry.disttrace.DistTracer` ring buffers
  minting spans that ride a bundle from relay ingress to verdict (and
  evidence to network-wide exclusion) stamping the *simulated* clock —
  local to the peer, or hung under the upstream hop when the publisher
  sampled the bundle;
* a :class:`~repro.telemetry.export.TelemetrySnapshot` exporter (JSON
  artifact + Prometheus text).

Everything is opt-in: every component takes ``telemetry=None`` and falls
back to :data:`DISABLED`, one object that is also its own registry,
tracer, span and metric — the disabled path does no formatting, no
allocation, no storage, keeping seed behavior bit-identical (E16's
overhead arm).

Typical benchmark wiring::

    telemetry = Telemetry()
    peer = WakuRLNRelayPeer(..., telemetry=telemetry)
    ...
    snap = telemetry.snapshot()
    stage = telemetry.registry.histogram(
        "trace_stage_seconds", kind="bundle", stage=tracing.PAIRING)
    print(stage.p50, stage.p99)   # exact, from retained samples
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.collector import CollectorOptions, CollectorPeer
from repro.telemetry.disttrace import DISABLED, Disabled, DistTracer
from repro.telemetry.export import TelemetrySnapshot
from repro.telemetry.registry import MetricsRegistry


class Telemetry:
    """The per-run telemetry hub: one registry, per-peer tracers."""

    enabled = True

    def __init__(self, *, trace_sample: float = 0.0) -> None:
        self.registry = MetricsRegistry()
        #: Head-sampling probability for cross-peer traces.  0.0 (default)
        #: mints no span contexts: zero wire overhead and bit-identical
        #: relay behaviour; the sampling RNG is per-peer and dedicated, so
        #: any rate perturbs nothing outside tracing.
        self.trace_sample = trace_sample
        self._disttracers: dict[str, DistTracer] = {}
        #: The tracers that archived a record since the exporter (one per
        #: hub) last drained them.
        self.fresh: dict[str, bool] = {}

    def disttracer(
        self, peer_id: str, *, clock: Callable[[], float] | None = None
    ) -> DistTracer:
        """The (cached) tracer for ``peer_id``; a later caller may supply
        the clock."""
        dist = self._disttracers.get(peer_id)
        if dist is None:
            dist = self._disttracers[peer_id] = DistTracer(
                peer_id,
                registry=self.registry,
                sample=self.trace_sample,
                clock=clock,
            )
            dist.fresh = self.fresh
        elif clock is not None:
            dist.clock = clock
        return dist

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot.of(self.registry)


def resolve(telemetry: "Telemetry | Disabled | None") -> "Telemetry | Disabled":
    """The ``telemetry=None`` seam every constructor funnels through."""
    return DISABLED if telemetry is None else telemetry


__all__ = [
    "CollectorOptions",
    "CollectorPeer",
    "Telemetry",
    "TelemetrySnapshot",
    "resolve",
]
