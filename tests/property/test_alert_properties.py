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
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.alerts import FIRING, RESOLVED, AlertRule, Instant, Rate, RuleEngine
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
