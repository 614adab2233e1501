"""The push half of fleet telemetry: diff, batch, send, never block.

A :class:`TelemetryExporter` runs beside one peer's
:class:`~repro.telemetry.Telemetry` hub and periodically turns the live
registry into :class:`~repro.telemetry.otlp.TelemetryBatch` deltas pushed
to a collector peer.  Three properties matter more than anything it
reports:

* **It never backpressures the relay hot path** (on the simulated
  clock; its host cost is the tick's CPU).  The exporter's only touch on
  the instrumented subsystems is reading the registry's series; its
  outbound queue is bounded and sheds *oldest-first* when the collector
  is slow or dead, counting the loss in a self-reported
  ``telemetry_dropped_batches_total`` counter that rides the next batch.
* **Delta temporality with exact reconstruction.**  Each tick diffs the
  series written or marked since the last tick against what it last exported
  (:class:`~repro.telemetry.otlp.DeltaTracker`); the additive fields
  travel as integer deltas and the non-additive ones as absolutes, so a
  collector that receives every batch holds the peer's snapshot
  *exactly* — and one that missed a dropped batch is wrong only by that
  window's additive increments, never permanently skewed on gauges or
  histogram ``sum``/``min``/``max``.
* **Reliability is the dispatcher's problem.**  Batches go out strictly
  in ``seq`` order, one in flight, through the shared
  :class:`~repro.net.request.RequestDispatcher` — per-attempt timeout,
  bounded rounds, failover down the collector list (primary then backup).
  A batch that exhausts every collector stays queued for the next tick;
  sustained outage turns into drop-oldest, not memory growth.
  An idle tick that owes nothing sends, with ``heartbeat=True``, one
  one-way :class:`~repro.telemetry.otlp.Heartbeat` to the first collector
  in the list still in the topology: no seq, no queue entry, no timer,
  no ack.

Finished spans (:class:`~repro.telemetry.disttrace.SpanRecord`) are
exported once each, bounded per batch, as the collector's
propagation-tree nodes.  Local roots never leave their peer: their
timings ride the metric path as the per-stage histograms, the only
copy the collector sees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import NetworkError, ProtocolError
from repro.net.request import RequestDispatcher, RequestFailure
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry.disttrace import SpanRecord
from repro.telemetry.otlp import (
    ExportAck,
    ExportRequest,
    Heartbeat,
    TELEMETRY_PROTOCOL,
    TELEMETRY_REPLY_PROTOCOL,
    DeltaTracker,
    TelemetryBatch,
)

#: Default export interval (simulated seconds).
DEFAULT_INTERVAL = 1.0

#: Default outbound-queue bound (batches, drop-oldest beyond).
DEFAULT_QUEUE_LIMIT = 16


@dataclass
class ExporterStats:
    """Exporter-side accounting (dispatcher reliability lives in
    ``dispatcher.stats``)."""

    ticks: int = 0
    batches_built: int = 0
    #: One-way ``Heartbeat`` frames sent (idle ticks owing nothing).
    heartbeats: int = 0
    batches_sent: int = 0
    #: Drop-oldest sheds; the ``telemetry_dropped_batches_total`` series.
    batches_dropped: int = 0
    #: Requests that exhausted every collector (batch requeued).
    push_failures: int = 0
    spans_exported: int = 0
    #: Spans over ``max_spans_per_batch`` in one tick (cursor still
    #: advances — bounded batches, no silent stall).
    spans_truncated: int = 0
    #: Spans evicted from a tracer ring before a tick saw them.
    spans_missed: int = 0
    #: ``close()``'s final drain: batches built at close time and the
    #: spans they rescued from behind the per-tracer cursors — proof the
    #: last partial tick strands nothing.
    close_flush_batches: int = 0
    close_flush_spans: int = 0


class TelemetryExporter:
    """One peer's periodic delta push to the collector fleet."""

    def __init__(
        self,
        peer_id: str,
        telemetry,
        network: Network,
        simulator: Simulator,
        *,
        collectors: Sequence[str],
        role: str = "full",
        shard: int = -1,
        interval: float = DEFAULT_INTERVAL,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        timeout: float = 0.5,
        rounds: int = 2,
        max_spans_per_batch: int = 64,
        heartbeat: bool = False,
        start: bool = True,
    ) -> None:
        if not telemetry.enabled:
            raise ProtocolError(
                "TelemetryExporter needs an enabled Telemetry hub; a "
                "disabled peer has nothing to export"
            )
        if not collectors:
            raise ProtocolError("need at least one collector")
        if interval <= 0:
            raise ProtocolError("export interval must be positive")
        if queue_limit < 1:
            raise ProtocolError("queue_limit must be >= 1")
        self.peer_id = peer_id
        self.telemetry = telemetry
        self.simulator = simulator
        self.collectors = list(collectors)
        self.role = role
        self.shard = shard
        self.interval = interval
        self.queue_limit = queue_limit
        self.max_spans_per_batch = max_spans_per_batch
        #: An idle tick that owes nothing sends a ``Heartbeat``, so the
        #: collector can tell "nothing changed" from "peer is gone" (a queued
        #: or in-flight batch already says the peer is alive).  Off, an idle
        #: peer is wire-silent; ``RLNDeployment.create`` sets it with ``alerting``.
        self.heartbeat = heartbeat
        #: The one frame every beat sends: it says nothing but the id.
        self._heartbeat = Heartbeat(peer_id)
        self.stats = ExporterStats()
        self.dispatcher = RequestDispatcher(
            peer_id,
            network,
            simulator,
            protocol=TELEMETRY_PROTOCOL,
            reply_protocol=TELEMETRY_REPLY_PROTOCOL,
            timeout=timeout,
            rounds=rounds,
            # Collectors are infrastructure, dialed directly: no mesh edge,
            # so GossipSub never sees them and relay behaviour is untouched.
            require_edge=False,
        )
        #: Self-reported loss: a series of the peer's own registry, so it
        #: travels in the *next* batch's counter delta (and merges
        #: fleet-wide) like any other metric.
        registry = telemetry.registry
        self._dropped = registry.marker(registry.bind(
            "telemetry_dropped_batches_total", lambda: self.stats.batches_dropped, peer=peer_id
        ))
        self._deltas = DeltaTracker()
        self._span_cursor: dict[str, int] = {}
        self._next_seq = 1
        self._queue: deque[TelemetryBatch] = deque()
        self._inflight = False
        self._stop = simulator.every(interval, self.export) if start else None

    # -- the periodic tick -----------------------------------------------------

    def export(self) -> TelemetryBatch | None:
        """One tick: diff the registry, enqueue the delta, pump the queue."""
        self.stats.ticks += 1
        batch = self._build_batch()
        if batch is None and self.heartbeat and not self.pending:
            self._beat()
        return self._push(batch)

    def flush(self) -> None:
        """Build and enqueue whatever changed right now (final drain aid).

        The caller still runs the simulator afterwards so the in-flight
        request can complete; :attr:`pending` reports whether anything is
        still unacked.
        """
        self._push(self._build_batch())

    @property
    def pending(self) -> bool:
        """Whether any batch is queued or awaiting its ack."""
        return self._inflight or bool(self._queue)

    def close(self) -> None:
        """Stop the ticker and drain what the last tick never saw.

        A peer shutting down mid-interval would otherwise strand finished
        spans behind the per-tracer cursors forever; the final
        build rescues them into one last (queued, droppable) batch, and
        ``stats.close_flush_*`` proves exactly what it rescued.
        """
        if self._stop is not None:
            self._stop()
            self._stop = None
        batch = self._push(self._build_batch())
        if batch is not None:
            self.stats.close_flush_batches += 1
            self.stats.close_flush_spans += len(batch.spans)

    # -- building --------------------------------------------------------------

    def _build_batch(self) -> TelemetryBatch | None:
        changed = self.telemetry.registry.changed()
        metrics = self._deltas.deltas(changed) if changed else ()
        spans = self._drain_spans()
        if not metrics and not spans:
            return None
        batch = TelemetryBatch(
            peer=self.peer_id,
            role=self.role,
            shard=self.shard,
            seq=self._next_seq,
            time=self.simulator.now,
            dropped_batches=self.stats.batches_dropped,
            metrics=metrics,
            spans=spans,
        )
        self._next_seq += 1
        self.stats.batches_built += 1
        self.stats.spans_exported += len(spans)
        return batch

    def _drain_spans(self) -> tuple[SpanRecord, ...]:
        """Finished spans past the cursor of each tracer that archived one
        since the last drain (the hub's ``fresh``), in name order.

        The cursor keys on the per-tracer monotone ``seq``, ring eviction
        shows up as a gap counted in ``spans_missed``, and
        ``max_spans_per_batch`` bounds the batch while the cursor still
        advances (no silent stall).  Only the spans past the cursor are
        read, not the whole ring.
        """
        marked = self.telemetry.fresh
        if not marked:
            return ()
        records: list[SpanRecord] = []
        room = self.max_spans_per_batch
        stats = self.stats
        tracers, disttracer = sorted(marked), self.telemetry.disttracer
        marked.clear()
        for tracer_id in tracers:
            cursor = self._span_cursor.get(tracer_id, -1)
            fresh = disttracer(tracer_id).finished_since(cursor)  # never empty: marked
            stats.spans_missed += fresh[0].seq - cursor - 1
            self._span_cursor[tracer_id] = fresh[-1].seq
            taken = fresh[: max(0, room - len(records))]
            stats.spans_truncated += len(fresh) - len(taken)
            records.extend(taken)
        return tuple(records)

    # -- queueing / sending ----------------------------------------------------

    def _beat(self) -> None:
        # Down the collector list, as every batch starts: the first one
        # still in the topology hears it.
        for collector in self.collectors:
            try:
                self.dispatcher.network.send(
                    self.peer_id, collector, self._heartbeat,
                    protocol=TELEMETRY_PROTOCOL, require_edge=False,
                )
            except NetworkError:
                continue
            self.stats.heartbeats += 1
            return

    def _push(self, batch: TelemetryBatch | None) -> TelemetryBatch | None:
        """Queue ``batch`` (dropping the oldest when full), then pump."""
        if batch is not None:
            if len(self._queue) >= self.queue_limit:
                self._queue.popleft()
                self.stats.batches_dropped += 1
                self._dropped()
            self._queue.append(batch)
        self._pump()
        return batch

    def _pump(self) -> None:
        if self._inflight or not self._queue:
            return
        batch = self._queue.popleft()
        self._inflight = True

        def accept(response: Any) -> bool:
            return (
                isinstance(response, ExportAck)
                and response.seq == batch.seq
                and response.accepted
            )

        pending = self.dispatcher.request(
            self.collectors,
            lambda request_id: ExportRequest(request_id=request_id, batch=batch),
            accept=accept,
        )

        def settled(result: Any) -> None:
            self._inflight = False
            if isinstance(result, RequestFailure):
                # Every collector exhausted: keep the batch at the head so
                # seq order survives; the next tick (or flush) retries,
                # and drop-oldest bounds a sustained outage.
                self.stats.push_failures += 1
                self._queue.appendleft(batch)
                return
            self.stats.batches_sent += 1
            self._pump()

        pending.subscribe(settled)
