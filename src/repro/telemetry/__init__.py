"""Unified telemetry for the RLN-relay reproduction.

One :class:`Telemetry` object per simulation run bundles the three
surfaces the subsystems share:

* a :class:`~repro.telemetry.registry.MetricsRegistry` of interned
  Counter/Gauge/Histogram handles (``name{label=value}`` keys);
* per-peer :class:`~repro.telemetry.disttrace.DistTracer` ring buffers
  minting spans that ride a bundle from relay ingress to verdict (and
  evidence to network-wide exclusion) stamping the *simulated* clock —
  local to the peer, or hung under the upstream hop when the publisher
  sampled the bundle;
* a :class:`~repro.telemetry.export.TelemetrySnapshot` exporter (JSON
  artifact + Prometheus text).

Everything is opt-in: every component takes ``telemetry=None`` and falls
back to :data:`NULL_TELEMETRY`, whose registry and tracers are shared
no-op singletons — the disabled path does no formatting, no allocation,
no storage, keeping seed behavior bit-identical (E16's overhead arm).

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

from repro.telemetry.export import (
    TelemetrySnapshot,
    render_prometheus,
    write_snapshot,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_SAMPLE_CAPACITY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NullRegistry,
    metric_key,
)
from repro.telemetry.disttrace import (
    DistTracer,
    NULL_DISTTRACER,
    NULL_TRACE,
    NullDistTracer,
    NullTrace,
    PropagationTree,
    SpanContext,
    SpanRecord,
    TraceAssembler,
)
from repro.telemetry.otlp import (
    TELEMETRY_PROTOCOL,
    TELEMETRY_REPLY_PROTOCOL,
    TelemetryBatch,
)
from repro.telemetry.exporter import TelemetryExporter
from repro.telemetry.alerts import (
    AlertEvent,
    AlertRule,
    RuleEngine,
    SLO,
    default_rule_pack,
)
from repro.telemetry.health import HealthMonitor, PeerLiveness
from repro.telemetry.query import (
    ANY,
    BadFraction,
    Combined,
    FleetQuerier,
    HealthCount,
    HealthScore,
    Instant,
    Quantile,
    Rate,
    SeriesRing,
    select,
)
from repro.telemetry.collector import CollectorOptions, CollectorPeer


class Telemetry:
    """The per-run telemetry hub: one registry, per-peer tracers."""

    enabled = True

    def __init__(
        self, *, trace_capacity: int = 256, trace_sample: float = 0.0
    ) -> None:
        self.registry = MetricsRegistry()
        self.trace_capacity = trace_capacity
        #: Head-sampling probability for cross-peer traces.  0.0 (default)
        #: mints no span contexts: zero wire overhead and bit-identical
        #: relay behaviour; the sampling RNG is per-peer and dedicated, so
        #: any rate perturbs nothing outside tracing.
        self.trace_sample = trace_sample
        self._disttracers: dict[str, DistTracer] = {}

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
                capacity=self.trace_capacity,
            )
        elif clock is not None:
            dist.clock = clock
        return dist

    def disttracers(self) -> dict[str, DistTracer]:
        return dict(self._disttracers)

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot.of(self.registry)


class NullTelemetry:
    """The disabled hub: shared no-op registry and tracer, empty snapshot."""

    enabled = False
    registry = NULL_REGISTRY
    trace_sample = 0.0

    def disttracer(
        self, peer_id: str, *, clock: Callable[[], float] | None = None
    ) -> NullDistTracer:
        return NULL_DISTTRACER

    def disttracers(self) -> dict[str, DistTracer]:
        return {}

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot({})


NULL_TELEMETRY = NullTelemetry()


def resolve(telemetry: "Telemetry | NullTelemetry | None") -> "Telemetry | NullTelemetry":
    """The ``telemetry=None`` seam every constructor funnels through."""
    return NULL_TELEMETRY if telemetry is None else telemetry


__all__ = [
    "ANY",
    "AlertEvent",
    "AlertRule",
    "BadFraction",
    "CollectorOptions",
    "CollectorPeer",
    "Combined",
    "Counter",
    "FleetQuerier",
    "HealthCount",
    "HealthMonitor",
    "HealthScore",
    "Instant",
    "PeerLiveness",
    "Quantile",
    "Rate",
    "RuleEngine",
    "SLO",
    "SeriesRing",
    "default_rule_pack",
    "select",
    "DEFAULT_BUCKETS",
    "DEFAULT_SAMPLE_CAPACITY",
    "DistTracer",
    "NULL_DISTTRACER",
    "NullDistTracer",
    "PropagationTree",
    "SpanContext",
    "SpanRecord",
    "TraceAssembler",
    "TELEMETRY_PROTOCOL",
    "TELEMETRY_REPLY_PROTOCOL",
    "TelemetryBatch",
    "TelemetryExporter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACE",
    "NullRegistry",
    "NullTelemetry",
    "NullTrace",
    "Telemetry",
    "TelemetrySnapshot",
    "metric_key",
    "render_prometheus",
    "resolve",
    "write_snapshot",
]
