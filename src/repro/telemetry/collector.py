"""The collector peer: fold per-peer telemetry deltas into a fleet view.

A :class:`CollectorPeer` is the infrastructure node a production RLN fleet
would run its observability pipeline on: it owns the ``telemetry``
protocol channel on the simulated network, decodes
:class:`~repro.telemetry.otlp.ExportRequest` pushes (and idle peers'
one-way :class:`~repro.telemetry.otlp.Heartbeat` frames) from every
peer's :class:`~repro.telemetry.exporter.TelemetryExporter`, and folds the
delta batches into **per-peer cumulative state** keyed by the batch's
resource attributes.  Folding is deliberately mechanical:

* counters add their integer deltas (exact),
* gauges replace (last-value temporality),
* histograms add their sparse bucket/count deltas and replace the
  cumulative ``sum``/``min``/``max`` absolutes,

so a peer whose every batch arrived is reconstructed *exactly*, and
:meth:`fleet_snapshot` — the additive
:meth:`~repro.telemetry.export.TelemetrySnapshot.merge` of the per-peer
states — equals the offline merge of per-peer snapshots field for field
(the E17 assertion).  Retransmissions are dedup'd by the per-peer
``seq`` (acked but not re-folded), and drop-oldest losses upstream show
up as sequence gaps the collector counts instead of silently absorbing.

Alerting (when rules are configured) follows one sampling discipline:
**one ring point per series per simulated instant, taken when the
instant is over**.  A fold only notes that a sample is due at its
instant; the collector takes it, stamped with that instant, before
anything of a later instant is counted and before a later evaluation.
Readers of alert state (:meth:`firing`, :meth:`alert_events`,
:meth:`render_prometheus`) take it early, so they see every fold so far,
and leave it due.  Because ring points at one instant replace each
other, the final point is exactly the one the instant's last fold would
have left, and it sees *everything* delivered at that instant — later
retransmissions and malformed requests included — in whatever order the
network dispatched them.  So alerting costs one pass per distinct fold
instant plus one per evaluation, however many peers folded.  A pass
reads the collector's long-lived
:class:`~repro.telemetry.alerts.StateIndex`, whose ``version`` every
request but a heartbeat moves (a fold, a retransmission or a malformed
request may change an entry or a counted stat), as does every entry
indexed: a pass after nothing but heartbeats selects nothing, and reads
the liveness counts :meth:`HealthMonitor.counts` keeps.

The collector answers fleet questions the process-local registries
cannot: :meth:`render_prometheus` re-renders the whole deployment's
metrics as one text exposition, and :meth:`waterfall` rebuilds the
per-stage trace waterfall (p50/p99 bucket estimates) network-wide from
the merged ``trace_stage_seconds`` histograms.  Every exported
:class:`~repro.telemetry.disttrace.SpanRecord` is a ``publish`` root, a
parented hop or a linked leaf, and becomes a node of the
:class:`~repro.telemetry.disttrace.TraceAssembler`'s propagation trees:
a local root never leaves its peer, and one that arrives anyway is not
assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry import tracing
from repro.telemetry.alerts import AlertRule, RuleEngine, StateIndex
from repro.telemetry.disttrace import TraceAssembler
from repro.telemetry.export import TelemetrySnapshot, render_prometheus
from repro.telemetry.health import HealthMonitor
from repro.telemetry.registry import metric_key
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    Heartbeat,
    HistogramDelta,
    MetricDelta,
    TELEMETRY_PROTOCOL,
    TELEMETRY_REPLY_PROTOCOL,
)


@dataclass(frozen=True)
class CollectorOptions:
    """Fleet-telemetry wiring knobs for :meth:`RLNDeployment.create`."""

    #: Export interval every peer's exporter ticks on (simulated seconds).
    interval: float = 1.0
    #: Stand up a second collector the exporters fail over to.
    backup: bool = False
    #: Cross-peer head-sampling probability.  0.0 keeps every relayed
    #: message context-free and relay behaviour bit-identical; 1.0 traces
    #: every publish into a collector-assembled propagation tree.
    trace_sample: float = 0.0
    #: Install the built-in RLN alert pack
    #: (:func:`~repro.telemetry.alerts.default_rule_pack`) scaled to
    #: ``evaluation_interval``, and have an idle exporter send a one-way
    #: liveness heartbeat each interval.  Off: no rule engine is
    #: constructed, no evaluation ticker is scheduled, and the seed
    #: behaviour stays bit-identical.
    alerting: bool = False
    #: Simulated seconds between rule-engine evaluation passes.
    evaluation_interval: float = 0.5


@dataclass
class CollectorStats:
    """Collector-side accounting."""

    batches: int = 0
    metrics_applied: int = 0
    #: Publish roots and parented spans handed to the assembler.
    spans: int = 0
    #: Retransmissions (seq already folded) — acked, not re-applied.
    duplicates: int = 0
    #: Sequence gaps observed (exporter drop-oldest upstream).
    gaps: int = 0
    lost_batches: int = 0
    acks_sent: int = 0
    malformed: int = 0
    #: Per-peer cumulative drops the batch headers self-reported.
    reported_drops: dict[str, int] = field(default_factory=dict)


def _clashes(state: dict[str, dict], deltas: Sequence[MetricDelta]) -> bool:
    """Whether a delta's kind or histogram bounds differ from its series' in
    ``state`` or in an earlier delta of ``deltas`` — :func:`fold_delta`
    would raise on it, or fold it into the wrong kind of series."""
    shapes: dict[str, tuple] = {}
    for delta in deltas:
        key, kind = delta.key, delta.kind
        shape = (kind, delta.bounds if kind == "histogram" else ())
        if key not in shapes:
            entry = state.get(key)
            shapes[key] = shape if entry is None else (entry["kind"], tuple(entry.get("le", ())))
        if shapes[key] != shape:
            return True
    return False


def fold_delta(state: dict[str, dict], delta: MetricDelta) -> None:
    """Apply one wire delta to a peer's cumulative collected-shape state."""
    key = delta.key
    entry = state.get(key)
    if entry is None:
        entry = state[key] = {"name": delta.name, "kind": delta.kind, "labels": dict(delta.labels)}
        if delta.kind == "counter":
            entry["value"] = 0
        elif delta.kind == "histogram":
            bounds = list(delta.bounds)
            entry.update(count=0, le=bounds, buckets=[0] * (len(bounds) + 1))
    if isinstance(delta, CounterDelta):
        entry["value"] += delta.delta
    elif isinstance(delta, GaugeValue):
        entry["value"] = delta.value
    else:
        assert isinstance(delta, HistogramDelta)
        entry["count"] += delta.count_delta
        buckets = entry["buckets"]
        for index, bucket_delta in delta.bucket_deltas:
            buckets[index] += bucket_delta
        # Cumulative absolutes: replace, never accumulate — exact
        # regardless of float rounding or missed windows.
        entry["sum"] = delta.sum_total
        entry["min"] = delta.min_total
        entry["max"] = delta.max_total


class CollectorPeer:
    """One collector node: fold pushes, ack, aggregate, re-render."""

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        rules: Sequence[AlertRule] = (),
        evaluation_interval: float = 0.5,
        export_interval: float = 1.0,
    ) -> None:
        self.peer_id = peer_id
        self.network = network
        self.simulator = simulator
        self.stats = CollectorStats()
        self._states: dict[str, dict[str, dict]] = {}
        self._resources: dict[str, dict[str, str]] = {}
        self._last_seq: dict[str, int] = {}
        #: Memoized fleet merge; invalidated by every fold.
        self._fleet_cache: TelemetrySnapshot | None = None
        #: Liveness classification from fold and heartbeat times — always
        #: on (it is passive bookkeeping with zero scheduling cost).
        self.health = HealthMonitor(interval=export_interval)
        #: The rule engine + its evaluation ticker exist only when rules
        #: were configured: a rule-less collector schedules nothing.
        self.engine: RuleEngine | None = None
        self._stop_evaluation: Callable[[], None] | None = None
        #: The simulated instant whose ring points are still owed: set by
        #: a fold, settled by :meth:`_take_due_sample`.
        self._sample_due: float | None = None
        #: What rules read — every peer's state, then the self-metrics —
        #: indexed as entries appear; entries change in place.
        self._index = StateIndex()
        if rules:
            self.engine = RuleEngine(rules)
            self.evaluation_interval = evaluation_interval
            self._stop_evaluation = simulator.every(
                evaluation_interval, self._evaluate
            )
        #: ``CollectorStats`` as collected-shape counters (:meth:`self_metrics`),
        #: built once and kept level: ``(field, entry)`` pairs that
        #: :meth:`_restate` writes, and a reported-drops entry per peer
        #: that its folds write.
        self._self_state: dict[str, dict] = {}
        self._reported: dict[str, dict] = {}
        counter = self._self_entry
        self._counted = [
            ("batches", counter("collector_batches_total")),
            ("lost_batches", counter("collector_lost_batches_total")),
            ("duplicates", counter("collector_duplicates_total")),
            ("gaps", counter("collector_gaps_total")),
            ("malformed", counter("collector_malformed_total")),
            ("acks_sent", counter("collector_acks_sent_total")),
        ]
        #: Propagation-tree assembly from exported spans.
        self.assembler = TraceAssembler()
        network.register(peer_id, self._on_export, protocol=TELEMETRY_PROTOCOL)

    # -- inbound ---------------------------------------------------------------

    def _on_export(self, sender: str, request: Any) -> None:
        # First, before any counter below moves: an earlier instant is
        # over, so its sample must not see this one's loss or duplicates.
        self._take_due_sample()
        if isinstance(request, Heartbeat):
            # Liveness only: nothing to fold, nothing to ack.
            drops = self.stats.reported_drops.get(request.peer, 0)
            self.health.observe(request.peer, self.simulator.now, reported_drops=drops)
            return
        # Anything else may change an entry or a counted stat.
        self._index.version += 1
        if not isinstance(request, ExportRequest):
            self.stats.malformed += 1
            return
        batch = request.batch
        last = self._last_seq.get(batch.peer, 0)
        if batch.seq <= last:
            # A retransmission of something already folded (the ack was
            # lost or late): acknowledge again, never double-count.
            self.stats.duplicates += 1
        elif _clashes(self._states.get(batch.peer, {}), batch.metrics):
            # Refused whole, like any malformed request: no fold, no ack.
            self.stats.malformed += 1
            return
        else:
            lost = batch.seq - last - 1
            if lost > 0:
                self.stats.gaps += 1
                self.stats.lost_batches += lost
            self._fold(batch)
            self._last_seq[batch.peer] = batch.seq
            self.health.observe(
                batch.peer,
                self.simulator.now,
                lost_batches=lost,
                reported_drops=batch.dropped_batches,
            )
            if self.engine is not None:
                # Only a note: more may land at this instant, and the
                # one point it gets is taken when it is over.
                self._sample_due = self.simulator.now
        self.stats.acks_sent += 1
        self.network.send(
            self.peer_id,
            sender,
            ExportAck(request_id=request.request_id, seq=batch.seq),
            protocol=TELEMETRY_REPLY_PROTOCOL,
            require_edge=False,  # direct dial back, not a mesh link
        )

    def _fold(self, batch) -> None:
        self._fleet_cache = None
        self.stats.batches += 1
        self._resources[batch.peer] = {
            "peer": batch.peer,
            "role": batch.role,
            "shard": str(batch.shard),
        }
        self.stats.reported_drops[batch.peer] = batch.dropped_batches
        if batch.peer not in self._reported:
            counter = self._self_entry
            self._reported[batch.peer] = counter("collector_reported_drops_total", peer=batch.peer)
        self._reported[batch.peer]["value"] = batch.dropped_batches
        state = self._states.setdefault(batch.peer, {})
        for delta in batch.metrics:
            size = len(state)
            fold_delta(state, delta)
            if len(state) > size:
                # A new series: walked after every earlier peer, and after its own.
                rank = list(self._states).index(batch.peer)
                self._index.added((rank, size), state[delta.key])
        self.stats.metrics_applied += len(batch.metrics)
        for span in batch.spans:
            # A local root never leaves its peer; one that arrives anyway
            # belongs to no tree.
            if not span.local:
                self.assembler.add(span)
                self.stats.spans += 1

    # -- fleet views -----------------------------------------------------------

    def peers(self) -> list[str]:
        return sorted(self._states)

    def peer_snapshot(self, peer: str) -> TelemetrySnapshot:
        """One peer's reconstructed cumulative snapshot."""
        return TelemetrySnapshot.from_collected(self._states.get(peer, {}))

    def fleet_snapshot(self) -> TelemetrySnapshot:
        """Every peer's state, additively merged; rebuilt only after a fold.

        Collector self-metrics are deliberately *not* in here — the E17
        contract is that this equals the offline merge of per-peer snapshots.
        """
        if self._fleet_cache is None:
            fleet = TelemetrySnapshot({})
            for peer in self.peers():
                fleet = fleet.merge(self.peer_snapshot(peer))
            self._fleet_cache = fleet
        return self._fleet_cache

    def self_metrics(self) -> dict[str, dict]:
        """The collector's own bookkeeping as collected-shape entries.

        ``CollectorStats`` as ``collector_*_total`` counters labeled with
        the collector's id (and the exporting peer for self-reported
        drops), so exporter loss is alertable: in the exposition and the
        rule engine's view, never in :meth:`fleet_snapshot`.  The entries
        are live (read-only by convention).
        """
        self._restate()
        return dict(self._self_state)

    def _self_entry(self, name: str, **extra: str) -> dict:
        labels = {"collector": self.peer_id, **extra}
        entry = {"name": name, "kind": "counter", "labels": labels, "value": 0}
        self._self_state[metric_key(name, labels)] = entry
        # Walk order: after every peer's state.
        self._index.added((math.inf, len(self._self_state) - 1), entry)
        return entry

    def _restate(self) -> None:
        """Bring the counted entries level with ``stats``."""
        for counted, entry in self._counted:
            entry["value"] = getattr(self.stats, counted)

    def render_prometheus(self) -> str:
        """The whole deployment as one Prometheus text exposition.

        The fleet merge plus the collector's :meth:`self_metrics` and —
        when a rule engine is configured — the
        ``ALERTS{alertname,severity,alertstate}`` gauge for every
        pending/firing alert, so alert state is itself scrapeable.
        """
        self._take_due_sample(even_now=True)
        extra = self.self_metrics()
        if self.engine is not None:
            extra.update(self.engine.alerts_entries())
        exposition = self.fleet_snapshot().merge(TelemetrySnapshot.from_collected(extra))
        return render_prometheus(exposition)

    # -- alerting & liveness ---------------------------------------------------

    def _take_due_sample(self, *, even_now: bool = False) -> None:
        """Write the ring points a fold left owing, at that fold's instant.

        One due *now* is left alone — more may still land at this instant —
        unless a reader wants the folds so far (``even_now``); it then
        stays due.  Nothing the sample reads has changed since the due
        instant: :meth:`_on_export`, where every mutation happens, settles
        first.
        """
        due = self._sample_due
        if due is None:
            return
        if due < self.simulator.now:
            self._sample_due = None
        elif not even_now:
            return
        self._restate()
        self.engine.sample(due, self._index)

    def _evaluate(self) -> None:
        assert self.engine is not None
        self._take_due_sample()
        self._restate()
        self.engine.evaluate(self.simulator.now, self._index, health=self.health)

    def firing(self) -> list[str]:
        """Names of currently firing alerts (empty without an engine)."""
        self._take_due_sample(even_now=True)
        return self.engine.firing() if self.engine is not None else []

    def alert_events(self) -> list[dict]:
        """The bounded alert-transition log as plain dicts."""
        self._take_due_sample(even_now=True)
        return self.engine.event_log() if self.engine is not None else []

    def health_report(self) -> dict:
        """Fleet liveness now: score, status counts, per-peer rows."""
        return self.health.report(self.simulator.now)

    def waterfall(
        self, kind: str = "bundle", stages: tuple[str, ...] | None = None
    ) -> list[dict]:
        """Fleet-wide per-stage waterfall rows from the merged histograms.

        Quantiles are the snapshot's deterministic bucket estimates — the
        additive representation cannot carry exact order statistics
        across the wire; rows are ``{stage, count, p50, p90, p99, max}``.
        """
        if stages is None:
            stages = (
                tracing.BUNDLE_STAGE_ORDER
                if kind == "bundle"
                else tracing.REVOCATION_STAGE_ORDER
            )
        fleet = self.fleet_snapshot()
        rows: list[dict] = []
        for stage in stages:
            entry = fleet.histogram("trace_stage_seconds", kind=kind, stage=stage)
            if entry is None or entry["count"] == 0:
                continue
            rows.append({
                "stage": stage,
                "count": entry["count"],
                "p50": entry["quantiles"]["p50"],
                "p90": entry["quantiles"]["p90"],
                "p99": entry["quantiles"]["p99"],
                "max": entry["max"],
            })
        return rows
