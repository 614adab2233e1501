"""The collector peer: fold per-peer telemetry deltas into a fleet view.

A :class:`CollectorPeer` is the infrastructure node a production RLN fleet
would run its observability pipeline on: it owns the ``telemetry``
protocol channel on the simulated network, decodes
:class:`~repro.telemetry.otlp.ExportRequest` pushes from every peer's
:class:`~repro.telemetry.exporter.TelemetryExporter`, and folds the
delta batches into **per-peer cumulative state** keyed by the batch's
resource attributes.  Folding is deliberately mechanical:

* counters add their integer deltas (exact),
* gauges replace (last-value temporality),
* histograms add their sparse bucket/count deltas and replace the
  cumulative ``sum``/``min``/``max`` absolutes,

so a peer whose every batch arrived is reconstructed *exactly*, and
:meth:`fleet_snapshot` — PR 6's proven additive
:meth:`~repro.telemetry.export.TelemetrySnapshot.merge` over the per-peer
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
instant plus one per evaluation, however many peers folded.
:meth:`RuleEngine.sample` stays the eager primitive underneath.

The collector answers fleet questions the process-local registries
cannot: :meth:`render_prometheus` re-renders the whole deployment's
metrics as one text exposition, and :meth:`waterfall` rebuilds the
per-stage trace waterfall (p50/p99 bucket estimates) network-wide.  The
one exported span stream is routed by content: a marked
:class:`~repro.telemetry.disttrace.SpanRecord` is a waterfall exemplar
(bounded ring), a ``publish`` root or parented one a node of the
:class:`~repro.telemetry.disttrace.TraceAssembler`'s propagation trees.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry import tracing
from repro.telemetry.alerts import AlertRule, RuleEngine, SLO
from repro.telemetry.disttrace import SpanRecord, TraceAssembler
from repro.telemetry.export import TelemetrySnapshot, render_prometheus
from repro.telemetry.health import HealthMonitor
from repro.telemetry.registry import metric_key
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
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
    #: ``evaluation_interval``, and turn the push stream into the
    #: liveness heartbeat.  Off: no rule engine is constructed, no
    #: evaluation ticker is scheduled, and the seed behaviour stays
    #: bit-identical.
    alerting: bool = False
    #: Simulated seconds between rule-engine evaluation passes.
    evaluation_interval: float = 0.5


@dataclass
class CollectorStats:
    """Collector-side accounting."""

    batches: int = 0
    metrics_applied: int = 0
    #: Marked spans kept as waterfall exemplars.
    traces: int = 0
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


def fold_delta(state: dict[str, dict], delta: MetricDelta) -> None:
    """Apply one wire delta to a peer's cumulative collected-shape state."""
    key = delta.key
    entry = state.get(key)
    if isinstance(delta, CounterDelta):
        if entry is None:
            entry = state[key] = {
                "name": delta.name,
                "kind": "counter",
                "labels": dict(delta.labels),
                "value": 0,
            }
        entry["value"] += delta.delta
    elif isinstance(delta, GaugeValue):
        if entry is None:
            entry = state[key] = {
                "name": delta.name,
                "kind": "gauge",
                "labels": dict(delta.labels),
            }
        entry["value"] = delta.value
    else:
        assert isinstance(delta, HistogramDelta)
        if entry is None:
            bounds = list(delta.bounds)
            entry = state[key] = {
                "name": delta.name,
                "kind": "histogram",
                "labels": dict(delta.labels),
                "count": 0,
                "le": bounds,
                "buckets": [0] * (len(bounds) + 1),
            }
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
        trace_capacity: int = 1024,
        rules: Sequence[AlertRule] = (),
        slos: Sequence[SLO] = (),
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
        #: Memoized fleet merge; invalidated by every fold (satellite of
        #: PR 10 — ``waterfall``/``render_prometheus`` used to re-merge
        #: every peer's state on every call).
        self._fleet_cache: TelemetrySnapshot | None = None
        #: Liveness classification from fold metadata — always on (it is
        #: passive bookkeeping with zero wire or scheduling cost).
        self.health = HealthMonitor(interval=export_interval)
        #: The rule engine + its evaluation ticker exist only when rules
        #: were configured: a rule-less collector schedules nothing and
        #: stays event-for-event identical to the PR 7 collector.
        self.engine: RuleEngine | None = None
        self._stop_evaluation: Callable[[], None] | None = None
        #: The simulated instant whose ring points are still owed: set by
        #: a fold, settled by :meth:`_take_due_sample`.
        self._sample_due: float | None = None
        if rules or slos:
            self.engine = RuleEngine(rules, slos)
            self.evaluation_interval = evaluation_interval
            self._stop_evaluation = simulator.every(
                evaluation_interval, self._evaluate
            )
        #: The exemplar ring: each record beside the peer whose batch
        #: carried it.  An entry's collector seq is its place counted back
        #: from the newest (``_next_trace_seq - 1``); the monotone seq lets
        #: pollers resume where they left off instead of re-reading the
        #: whole ring (see :meth:`recent_traces`).
        self._exemplars: deque[SpanRecord] = deque(maxlen=trace_capacity)
        self._exemplar_peers: deque[str] = deque(maxlen=trace_capacity)
        self._next_trace_seq = 1
        #: Propagation-tree assembly from exported spans.
        self.assembler = TraceAssembler()
        network.register(peer_id, self._on_export, protocol=TELEMETRY_PROTOCOL)

    # -- inbound ---------------------------------------------------------------

    def _on_export(self, sender: str, request: Any) -> None:
        # First, before any counter below moves: an earlier instant is
        # over, so its sample must not see this one's loss or duplicates.
        self._take_due_sample()
        if not isinstance(request, ExportRequest):
            self.stats.malformed += 1
            return
        batch = request.batch
        last = self._last_seq.get(batch.peer, 0)
        if batch.seq <= last:
            # A retransmission of something already folded (the ack was
            # lost or late): acknowledge again, never double-count.
            self.stats.duplicates += 1
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
        state = self._states.setdefault(batch.peer, {})
        for delta in batch.metrics:
            fold_delta(state, delta)
        self.stats.metrics_applied += len(batch.metrics)
        for span in batch.spans:
            if span.stamps:
                self._exemplars.append(span)
                self._exemplar_peers.append(batch.peer)
                self._next_trace_seq += 1
                self.stats.traces += 1
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
        """Every peer's state, additively merged (PR 6 semantics).

        Memoized: the merge is rebuilt only after a fold changed some
        peer's state, so back-to-back ``waterfall``/``render_prometheus``
        calls between folds share one snapshot.  Collector self-metrics
        are deliberately *not* in here — the E17 exactness contract is
        that this equals the offline merge of per-peer snapshots.
        """
        if self._fleet_cache is None:
            fleet = TelemetrySnapshot({})
            for peer in self.peers():
                fleet = fleet.merge(self.peer_snapshot(peer))
            self._fleet_cache = fleet
        return self._fleet_cache

    def self_metrics(self) -> dict[str, dict]:
        """The collector's own bookkeeping as collected-shape entries.

        This is what makes exporter loss *alertable* rather than merely
        inspectable: ``CollectorStats`` re-rendered as
        ``collector_*_total`` counters labeled with the collector's id
        (plus the exporting peer for self-reported drops), injected into
        the exposition and the rule-engine view — never into
        :meth:`fleet_snapshot`.
        """
        base = {"collector": self.peer_id}
        out: dict[str, dict] = {}

        def counter(name: str, value: int, extra: dict[str, str] | None = None):
            labels = dict(base)
            if extra:
                labels.update(extra)
            out[metric_key(name, labels)] = {
                "name": name,
                "kind": "counter",
                "labels": labels,
                "value": value,
            }

        counter("collector_batches_total", self.stats.batches)
        counter("collector_lost_batches_total", self.stats.lost_batches)
        counter("collector_duplicates_total", self.stats.duplicates)
        counter("collector_gaps_total", self.stats.gaps)
        counter("collector_malformed_total", self.stats.malformed)
        counter("collector_acks_sent_total", self.stats.acks_sent)
        for peer, drops in sorted(self.stats.reported_drops.items()):
            counter("collector_reported_drops_total", drops, {"peer": peer})
        return out

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
        exposition = self.fleet_snapshot().merge(
            TelemetrySnapshot.from_collected(extra)
        )
        return render_prometheus(exposition)

    # -- alerting & liveness ---------------------------------------------------

    def _alert_states(self) -> "list[dict[str, dict]]":
        """What rules see: every peer's state plus the self-metrics."""
        states: "list[dict[str, dict]]" = list(self._states.values())
        states.append(self.self_metrics())
        return states

    def _take_due_sample(self, *, even_now: bool = False) -> None:
        """Write the ring points a fold left owing, at that fold's instant.

        A sample due at an instant that is over is that instant's final
        point.  One due *now* is left alone — more may still land at this
        instant — unless a reader wants the folds so far (``even_now``);
        it then stays due, so the instant still gets its final point.
        Nothing the sample reads has changed since the due instant: every
        mutation of the states and the stats happens in
        :meth:`_on_export`, which settles first.
        """
        due = self._sample_due
        if due is None:
            return
        if due < self.simulator.now:
            self._sample_due = None
        elif not even_now:
            return
        self.engine.sample(due, self._alert_states())

    def _evaluate(self) -> None:
        assert self.engine is not None
        self._take_due_sample()
        self.engine.evaluate(
            self.simulator.now, self._alert_states(), health=self.health
        )

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

    def recent_traces(
        self, kind: str | None = None, *, since_seq: int = 0
    ) -> tuple[tuple[int, str, SpanRecord], ...]:
        """Recent (seq, peer, trace) exemplars, oldest first.

        ``since_seq`` returns only exemplars newer than a previously seen
        collector seq, so a benchmark polling every interval reads each
        exemplar once instead of re-scanning the whole deque.  The seq is
        monotone across the ring's evictions: a poller that fell behind
        sees the gap in the numbering.
        """
        first = self._next_trace_seq - len(self._exemplars)
        items: "tuple[tuple[int, str, SpanRecord], ...]" = tuple(
            zip(itertools.count(first), self._exemplar_peers, self._exemplars)
        )
        if since_seq > 0:
            items = tuple(item for item in items if item[0] > since_seq)
        if kind is not None:
            items = tuple(item for item in items if item[2].kind == kind)
        return items

    def waterfall(
        self,
        kind: str = "bundle",
        stages: tuple[str, ...] | None = None,
        *,
        exemplars: int = 0,
        since_seq: int = 0,
    ) -> list[dict]:
        """Fleet-wide per-stage waterfall rows from the merged histograms.

        Quantiles are the snapshot's deterministic bucket estimates — the
        additive representation cannot carry exact order statistics
        across the wire; rows are ``{stage, count, p50, p90, p99, max}``.
        ``exemplars > 0`` attaches up to that many per-stage exemplar
        durations drawn from the newest trace records — filtered by
        ``since_seq`` like :meth:`recent_traces`, so repeated polls don't
        re-walk the whole exemplar ring.
        """
        if stages is None:
            stages = (
                tracing.BUNDLE_STAGE_ORDER
                if kind == "bundle"
                else tracing.REVOCATION_STAGE_ORDER
            )
        # deque(maxlen=exemplars) keeps only the newest N durations in
        # O(1) per append (the list version popped the head each time —
        # O(n²) across a large exemplar ring).
        stage_exemplars: dict[str, deque[float]] = {}
        if exemplars > 0:
            for _seq, _peer, record in self.recent_traces(kind, since_seq=since_seq):
                for stage, duration in record.stages():
                    durations = stage_exemplars.get(stage)
                    if durations is None:
                        durations = stage_exemplars[stage] = deque(maxlen=exemplars)
                    durations.append(duration)
        fleet = self.fleet_snapshot()
        rows: list[dict] = []
        for stage in stages:
            entry = fleet.histogram("trace_stage_seconds", kind=kind, stage=stage)
            if entry is None or entry["count"] == 0:
                continue
            row = {
                "stage": stage,
                "count": entry["count"],
                "p50": entry["quantiles"]["p50"],
                "p90": entry["quantiles"]["p90"],
                "p99": entry["quantiles"]["p99"],
                "max": entry["max"],
            }
            if exemplars > 0:
                row["exemplars"] = tuple(stage_exemplars.get(stage, ()))
            rows.append(row)
        return rows
