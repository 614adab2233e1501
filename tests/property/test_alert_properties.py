"""Property tests: alert evaluation determinism and hysteresis no-flap.

The two invariants the alerting stack stands on:

* **Fold-order independence.**  The collector folds batches in event
  order, but batches landing at the *same* simulated instant may fold in
  any order (dispatch ties).  Over random per-peer counter streams and
  random same-instant interleavings (each peer's own sequence order
  preserved — seq discipline guarantees that), the engine's event log,
  ring contents, and final rule states must be bit-identical.  The
  mechanism: rings coalesce same-time points by replacement, and
  counter folds at one instant commute in their cumulative sum.

* **No flapping without crossing the clear band.**  Over arbitrary value
  sequences, every FIRING event carries a breaching value, every
  RESOLVED event carries a cleared value, lifecycle states alternate
  fire/resolve, and — the hysteresis guarantee — no resolve ever happens
  while the value sits inside the (clear, fire] band.

* **What a pass keeps is exact.**  The engine keeps each selection per
  index version, and the liveness counts until a version bump or a
  deadline.  A collector fed drawn folds (new and updated entries,
  retransmissions, lost and malformed batches), heartbeats and passes
  must produce, on every pass, the values, transitions and ring points of
  a twin engine that indexes the collector's states afresh and reads a
  monitor that classifies every peer each time; a hand-kept index must
  read as a fresh one; kept counts must equal classifying every peer and
  leave the same transitions, whoever else reads the monitor and when.
"""

import random
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry.alerts import (
    FIRING,
    RESOLVED,
    AlertRule,
    FleetView,
    HealthCount,
    Instant,
    Rate,
    RuleEngine,
    StateIndex,
    default_rule_pack,
)
from repro.telemetry.collector import CollectorPeer
from repro.telemetry.health import HealthMonitor
from repro.telemetry.otlp import (
    CounterDelta,
    ExportRequest,
    GaugeValue,
    Heartbeat,
    HistogramDelta,
    TelemetryBatch,
)
from repro.telemetry.registry import metric_key

PEERS = ("peer-a", "peer-b", "peer-c")


def peer_state(peer, value):
    labels = {"peer": peer, "stage": "verify"}
    key = metric_key("pipeline_drops_total", labels)
    return {
        key: {
            "name": "pipeline_drops_total",
            "kind": "counter",
            "labels": labels,
            "value": value,
        }
    }


# Per peer: the cumulative counter value it reports at ticks 0..N-1.
deltas_strategy = st.lists(
    st.integers(min_value=0, max_value=7), min_size=2, max_size=10
)
streams_strategy = st.fixed_dictionaries(
    {peer: deltas_strategy for peer in PEERS}
)


def build_engine():
    rule = AlertRule(
        name="spam",
        expr=Rate(Instant("pipeline_drops_total", stage="verify"), window=4.0),
        op=">",
        threshold=2.0,
        for_duration=1.0,
        clear_threshold=1.0,
    )
    return RuleEngine([rule])


def run_interleaving(streams, orders):
    """Fold every peer's tick-t batch at time t, same-instant order drawn
    from ``orders``; evaluate after each instant.  Returns the full
    observable engine output."""
    engine = build_engine()
    cumulative = {peer: 0 for peer in PEERS}
    states = {peer: peer_state(peer, 0) for peer in PEERS}
    ticks = max(len(s) for s in streams.values())
    events = []
    for t in range(ticks):
        order = orders[t % len(orders)]
        for peer in order:
            stream = streams[peer]
            if t >= len(stream):
                continue
            cumulative[peer] += stream[t]
            states[peer] = peer_state(peer, cumulative[peer])
            # one sample per fold, exactly like CollectorPeer._on_export
            engine.sample(float(t), list(states.values()))
        events += engine.evaluate(float(t), list(states.values()))
    rings = {
        key: list(ring.points)
        for key, ring in engine._rings.items()
    }
    return [e.to_dict() for e in events], rings, engine.state("spam")


@given(
    streams=streams_strategy,
    orderings=st.lists(st.permutations(PEERS), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_evaluation_is_fold_order_independent(streams, orderings):
    baseline = run_interleaving(streams, [list(PEERS)])
    shuffled = run_interleaving(streams, [list(o) for o in orderings])
    assert shuffled == baseline


values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False), min_size=1, max_size=40
)


@given(values=values_strategy)
@settings(max_examples=100)
def test_hysteresis_never_flaps_inside_band(values):
    rule = AlertRule(
        name="depth-high",
        expr=Instant("depth", agg="max"),
        op=">",
        threshold=10.0,
        clear_threshold=4.0,
    )
    engine = RuleEngine([rule])
    events = []
    for i, value in enumerate(values):
        labels = {}
        state = {
            metric_key("depth", labels): {
                "name": "depth",
                "kind": "gauge",
                "labels": labels,
                "value": value,
            }
        }
        events += engine.evaluate(float(i), [state])
    lifecycle = [e for e in events if e.state in (FIRING, RESOLVED)]
    # strict alternation: fire, resolve, fire, ...
    for prev, nxt in zip(lifecycle, lifecycle[1:]):
        assert prev.state != nxt.state
    for event in lifecycle:
        if event.state == FIRING:
            assert rule.breaching(event.value)  # value > 10
        else:
            assert rule.cleared(event.value)  # value <= 4
            # in particular: never resolved inside the (4, 10] band
            assert not (4.0 < event.value <= 10.0)


# -- what a pass keeps is exact -------------------------------------------------

TICK = 0.25
BOUNDS = (10.0, 25.0, 60.0)


class Classifying(HealthMonitor):
    """The reference monitor: every ``counts`` classifies every peer."""

    def counts(self, now):
        out = {}
        for peer in self._peers:
            status = self.classify(peer, now)
            out[status] = out.get(status, 0) + 1
        return out


class Mirrored(HealthMonitor):
    """The collector's monitor, feeding a :class:`Classifying` twin."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.twin = Classifying(**kwargs)

    def observe(self, peer, now, **kwargs):
        super().observe(peer, now, **kwargs)
        self.twin.observe(peer, now, **kwargs)


def liveness_trail(monitor):
    return {
        peer: (state.base_status, list(state.transitions), state.last_fold)
        for peer, state in monitor._peers.items()
    }


def ring_points(engine):
    return {key: list(ring.points) for key, ring in engine._rings.items()}


class Twinned(RuleEngine):
    """The collector's engine; every pass also steps a twin engine that
    indexes the collector's states afresh, and the two must agree."""

    def __init__(self, rules, collector):
        super().__init__(rules)
        self.twin = RuleEngine(rules)
        self.collector = collector

    def fresh(self):
        collector = self.collector
        return StateIndex.of([*collector._states.values(), collector.self_metrics()])

    def sample(self, now, states):
        super().sample(now, states)
        self.twin.sample(now, self.fresh())
        assert ring_points(self) == ring_points(self.twin)

    def evaluate(self, now, states, *, health=None):
        events = super().evaluate(now, states, health=health)
        assert events == self.twin.evaluate(now, self.fresh(), health=health.twin)
        assert ring_points(self) == ring_points(self.twin)
        assert {name: self.value(name) for name in self._states} == {
            name: self.twin.value(name) for name in self._states
        }
        assert liveness_trail(health) == liveness_trail(health.twin)
        return events


def kept_rules():
    """The shipped pack, a selection of every self-metric, and a count of
    every liveness status."""
    selections = [
        ("self-" + name, Instant(name))
        for name in (
            "collector_batches_total", "collector_lost_batches_total",
            "collector_duplicates_total", "collector_gaps_total",
            "collector_malformed_total", "collector_acks_sent_total",
            "collector_reported_drops_total",
        )
    ]
    selections += [
        ("prefilter", Instant("pipeline_drops_total", agg="max", stage="prefilter")),
        ("latency-count", Instant("trace_total_seconds", field="count")),
        *((status, HealthCount(status)) for status in ("healthy", "stale", "flapping")),
    ]
    return default_rule_pack(evaluation_interval=4 * TICK) + [
        AlertRule(name=name, expr=expr, threshold=1.0) for name, expr in selections
    ]


def histogram(buckets):
    count = sum(buckets)
    return HistogramDelta(
        "trace_total_seconds", (("kind", "revocation-network"),), count, 30.0 * count,
        0.0, 70.0, tuple((index, n) for index, n in enumerate(buckets) if n), BOUNDS,
    )


delta = st.one_of(
    st.builds(
        lambda stage, n: CounterDelta("pipeline_drops_total", (("stage", stage),), n),
        st.sampled_from(("verify", "prefilter")), st.integers(0, 9),
    ),
    st.builds(lambda v: GaugeValue("executor_queue_depth", (), v), st.integers(0, 30)),
    st.builds(
        lambda v: GaugeValue("witness_cache_hit_ratio", (), v), st.sampled_from((0.0, 0.4, 1.0))
    ),
    st.builds(lambda n: CounterDelta("telemetry_dropped_batches_total", (), n), st.integers(0, 2)),
    st.builds(histogram, st.lists(st.integers(0, 3), min_size=4, max_size=4)),
    # a gauge on a counter's key: the batch is refused as malformed
    st.just(GaugeValue("pipeline_drops_total", (("stage", "verify"),), 1)),
)
peer_id = st.sampled_from(("peer-a", "peer-b", "peer-c"))
kept_action = st.one_of(
    st.tuples(
        st.just("fold"), peer_id, st.lists(delta, max_size=3),
        st.integers(0, 2),  # batches lost before it
        st.integers(0, 2),  # drops the exporter reports
    ),
    st.tuples(st.just("duplicate"), peer_id),
    st.tuples(st.just("malformed")),
    st.tuples(st.just("heartbeat"), peer_id),
    st.tuples(st.just("heartbeat"), peer_id),
    st.tuples(st.just("evaluate")),
    st.tuples(st.just("read")),
)
#: (ticks since the previous instant, what lands at this one, in order);
#: long gaps let peers go stale and silent, and come back.
kept_schedule = st.lists(
    st.tuples(st.integers(1, 12), st.lists(kept_action, min_size=1, max_size=5)),
    min_size=1, max_size=16,
)


@given(schedule=kept_schedule)
@settings(max_examples=80, deadline=None)
def test_a_versioned_pass_equals_a_pass_over_fresh_states(schedule):
    sim = Simulator()
    graph = full_mesh(2)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(5)
    )
    collector_id, sender = sorted(graph.nodes)
    collector = CollectorPeer(
        collector_id, network, sim, rules=kept_rules(), evaluation_interval=4 * TICK,
        export_interval=TICK,
    )
    collector.engine = Twinned(kept_rules(), collector)
    collector.health = Mirrored(interval=TICK)
    seqs = {}

    def batch(peer, seq, metrics=(), dropped=0):
        return TelemetryBatch(
            peer=peer, role="full", shard=0, seq=seq, time=sim.now, dropped_batches=dropped,
            metrics=tuple(metrics),
        )

    def deliver(step):
        kind = step[0]
        if kind == "fold":
            _, peer, metrics, lost, dropped = step
            seq = seqs.get(peer, 0) + lost + 1
            collector._on_export(sender, ExportRequest(1, batch(peer, seq, metrics, dropped)))
            if collector._last_seq.get(peer) == seq:  # folded, not refused
                seqs[peer] = seq
        elif kind == "duplicate":
            collector._on_export(sender, ExportRequest(2, batch(step[1], seqs.get(step[1], 0))))
        elif kind == "malformed":
            collector._on_export(sender, b"not an export request")
        elif kind == "heartbeat":
            collector._on_export(sender, Heartbeat(step[1]))
        elif kind == "evaluate":
            collector._evaluate()
        else:
            assert collector.firing() == collector.engine.twin.firing()

    now = 0.0
    for gap, steps in schedule:
        now += gap * TICK
        for step in steps:
            sim.schedule_at(now, partial(deliver, step))
    sim.run(now + 8 * TICK)
    collector._take_due_sample(even_now=True)
    engine = collector.engine
    assert engine.event_log() == engine.twin.event_log()
    assert engine.evaluations == engine.twin.evaluations > 0


kept_index_op = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(("a", "b")), st.integers(0, 5)),
    st.tuples(st.just("write"), st.integers(0, 20), st.integers(0, 5)),
    st.tuples(st.just("pass")),
)


@given(ops=st.lists(kept_index_op, min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_a_kept_index_reads_as_a_fresh_one(ops):
    # An index kept as entries appear (each bumps its version) and change
    # in place (the keeper bumps it) reads as the states indexed anew.
    rules = [
        AlertRule(name="a", expr=Rate(Instant("a"), window=4.0)),
        AlertRule(name="b", expr=Instant("b", agg="max")),
        # the same key with another default: a selection of its own
        AlertRule(name="b-or-9", expr=Instant("b", agg="max", default=9.0)),
    ]
    kept, fresh = RuleEngine(rules), RuleEngine(rules)
    index, state = StateIndex(), {}
    for now, op in enumerate(ops):
        if op[0] == "add":
            _, name, value = op
            entry = {"name": name, "kind": "gauge", "labels": {}, "value": value}
            state[str(len(state))] = entry
            index.added((0, len(state) - 1), entry)
        elif op[0] == "write" and state:
            entries = list(state.values())
            entries[op[1] % len(entries)]["value"] = op[2]
            index.version += 1
        assert kept.evaluate(float(now), index) == fresh.evaluate(float(now), [state])
        assert ring_points(kept) == ring_points(fresh)
        for rule in rules[1:]:
            direct = rule.expr.read(FleetView(float(now), StateIndex.of([state]), {}, None))
            assert kept.value(rule.name) == fresh.value(rule.name) == direct


liveness_op = st.one_of(
    st.tuples(st.just("observe"), peer_id),
    st.tuples(
        st.sampled_from(("counts", "classify", "liveness", "report")), peer_id, st.integers(0, 12)
    ),
    st.tuples(st.just("wait"), st.integers(1, 14)),
)


@given(ops=st.lists(liveness_op, min_size=1, max_size=60))
# A read back in time: the peer silent at 10 was stale at 5.
@example(
    ops=[("observe", "peer-a"), ("wait", 10), ("counts", "peer-a", 0), ("counts", "peer-a", 5)]
)
# A read ahead records a transition (stale at 8) that a read back at 2,
# still before the kept answer's deadline, must see and undo.
@example(
    ops=[
        ("observe", "peer-a"), ("wait", 8), ("counts", "peer-a", 8), ("classify", "peer-a", 0),
        ("counts", "peer-a", 6),
    ]
)
# A flapping peer kept alive by heartbeats stops flapping when its oldest
# transitions leave the window.
@example(
    ops=[
        ("observe", "peer-a"), ("wait", 4), ("classify", "peer-a", 0), ("observe", "peer-a"),
        ("wait", 4), ("classify", "peer-a", 0), ("observe", "peer-a"), ("counts", "peer-a", 0),
        *[("wait", 2), ("observe", "peer-a")] * 9, ("counts", "peer-a", 0),
    ]
)
@settings(max_examples=150, deadline=None)
def test_kept_counts_equal_classifying_every_peer(ops):
    # Observes follow the clock; reads may look back up to 12 intervals,
    # so a read can record a transition at an earlier time than the last.
    kept, reference = (cls(interval=1.0, flap_window=20.0) for cls in (HealthMonitor, Classifying))
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "wait":
            now += op[1]
            continue
        if kind == "observe":
            kept.observe(op[1], now)
            reference.observe(op[1], now)
            continue
        _, peer, back = op
        at = now - back
        if kind == "report":
            assert kept.report(at) == reference.report(at)
        elif kind == "counts" or peer not in kept._peers:
            assert kept.counts(at) == reference.counts(at)
        else:
            assert getattr(kept, kind)(peer, at) == getattr(reference, kind)(peer, at)
        assert liveness_trail(kept) == liveness_trail(reference)
