"""Unit tests for the rule engine (repro.telemetry.alerts).

The lifecycle contract under test:

* a breach shorter than ``for_duration`` never fires (pending expires
  back without an event);
* hysteresis: once firing, only a value past the *clear* threshold
  resolves — values oscillating inside the band keep the alert firing;
* burn-rate (SLO) rules fire only when the fast AND slow windows both
  exceed their burn factors, and resolve at their clear threshold;
* transitions land in a bounded event log with exact simulated times,
  and pending/firing rules render as ``ALERTS{...}`` gauge entries;
* the built-in RLN pack is well-formed and default-quiet.
"""

import pytest

from repro.telemetry.alerts import (
    FIRING,
    INACTIVE,
    PENDING,
    RESOLVED,
    AlertRule,
    BurnRate,
    HealthCount,
    Instant,
    Rate,
    RuleEngine,
    default_rule_pack,
)
from repro.telemetry.registry import metric_key


def gauge_state(name, value, **labels):
    entry = {"name": name, "kind": "gauge", "labels": labels, "value": value}
    return {metric_key(name, labels): entry}


def hist_state(name, le, buckets, **labels):
    entry = {
        "name": name,
        "kind": "histogram",
        "labels": labels,
        "count": sum(buckets),
        "le": list(le),
        "buckets": list(buckets),
        "sum": 0.0,
        "min": 0.0,
        "max": 0.0,
    }
    return {metric_key(name, labels): entry}


def drive(engine, series, step=1.0):
    """Evaluate once per value; returns every emitted transition."""
    events = []
    for i, value in enumerate(series):
        events += engine.evaluate(i * step, [gauge_state("depth", value)])
    return events


def depth_rule(**kw):
    defaults = dict(
        name="depth-high", expr=Instant("depth", agg="max"), op=">", threshold=10.0
    )
    defaults.update(kw)
    return AlertRule(**defaults)


# -- rule construction --------------------------------------------------------


def test_rule_rejects_unknown_comparator():
    with pytest.raises(ValueError):
        depth_rule(op="~")


def test_rule_rejects_breaching_clear_threshold():
    with pytest.raises(ValueError):
        depth_rule(clear_threshold=11.0)  # 11 > 10 breaches
    with pytest.raises(ValueError):
        AlertRule(name="low", expr=Instant("depth"), op="<", threshold=2.0,
                  clear_threshold=1.0)  # 1 < 2 breaches


def test_engine_rejects_duplicate_names():
    with pytest.raises(ValueError):
        RuleEngine([depth_rule(), depth_rule()])


# -- thresholds and for_duration ----------------------------------------------


def test_immediate_fire_without_for_duration():
    engine = RuleEngine([depth_rule()])
    events = drive(engine, [0, 20])
    assert [(e.state, e.time) for e in events] == [(FIRING, 1.0)]
    assert engine.firing() == ["depth-high"]


def test_for_duration_requires_sustained_breach():
    engine = RuleEngine([depth_rule(for_duration=2.0)])
    # breaches at t=1 and t=2 only — pending expires, never fires
    events = drive(engine, [0, 20, 20, 0, 0])
    assert [e.state for e in events] == [PENDING]
    assert engine.state("depth-high") == INACTIVE


def test_for_duration_fires_after_dwell():
    engine = RuleEngine([depth_rule(for_duration=2.0)])
    events = drive(engine, [0, 20, 20, 20, 20])
    assert [(e.state, e.time) for e in events] == [(PENDING, 1.0), (FIRING, 3.0)]


def test_comparator_directions():
    low = AlertRule(name="ratio-low", expr=Instant("depth"), op="<", threshold=0.5)
    engine = RuleEngine([low])
    events = drive(engine, [1.0, 0.4])
    assert [e.state for e in events] == [FIRING]


# -- hysteresis ---------------------------------------------------------------


def test_hysteresis_holds_inside_band():
    engine = RuleEngine([depth_rule(clear_threshold=4.0)])
    # fire at 20, then oscillate inside (4, 10] — stays firing
    events = drive(engine, [20, 8, 6, 9, 5])
    assert [e.state for e in events] == [FIRING]
    assert engine.state("depth-high") == FIRING


def test_hysteresis_resolves_past_clear():
    engine = RuleEngine([depth_rule(clear_threshold=4.0)])
    events = drive(engine, [20, 8, 3])
    assert [(e.state, e.time) for e in events] == [(FIRING, 0.0), (RESOLVED, 2.0)]
    assert engine.state("depth-high") == RESOLVED


def test_clear_defaults_to_threshold():
    engine = RuleEngine([depth_rule()])
    events = drive(engine, [20, 10])  # 10 is not > 10: resolved
    assert [e.state for e in events] == [FIRING, RESOLVED]


def test_refire_after_resolve():
    engine = RuleEngine([depth_rule(clear_threshold=4.0)])
    events = drive(engine, [20, 3, 20])
    assert [e.state for e in events] == [FIRING, RESOLVED, FIRING]


def test_zero_threshold_rule_resolves():
    # the exporter-loss shape: "> 0.0" with default clear — a return to
    # exactly zero must resolve (the complement is evaluated, not <)
    rule = AlertRule(name="loss", expr=Instant("depth"), op=">", threshold=0.0)
    engine = RuleEngine([rule])
    events = drive(engine, [1.0, 0.0])
    assert [e.state for e in events] == [FIRING, RESOLVED]


# -- SLO burn rates -----------------------------------------------------------


def slo(clear_ratio=0.9, **kw):
    """The burn-rate rule shape: fire on >= 1.0, clear below ``clear_ratio``."""
    defaults = dict(
        budget=0.1,
        fast_window=2.0,
        slow_window=10.0,
        fast_burn=6.0,
        slow_burn=3.0,
    )
    defaults.update(kw)
    return AlertRule(
        name="lat-slo",
        expr=BurnRate("lat", 5.0, **defaults),
        op=">=",
        threshold=1.0,
        clear_threshold=clear_ratio,
        severity="critical",
    )


def test_slo_validation():
    with pytest.raises(ValueError):
        slo(budget=0.0)
    with pytest.raises(ValueError):
        slo(fast_window=10.0, slow_window=10.0)
    with pytest.raises(ValueError):
        slo(clear_ratio=0.0)
    with pytest.raises(ValueError):
        slo(clear_ratio=1.0)


@pytest.mark.parametrize("factor", ["fast_burn", "slow_burn"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_a_burn_factor_must_be_positive(factor, value):
    # A factor <= 0 used to construct fine and divide by zero on the
    # first evaluation, inside the collector's evaluation ticker.
    with pytest.raises(ValueError):
        BurnRate("m", 1.0, **{factor: value})


def test_slo_fires_only_when_both_windows_burn():
    engine = RuleEngine([slo()])
    # 100% bad traffic: burn = 1.0/0.1 = 10x — over both 6x and 3x.
    buckets_total = 0
    events = []
    for i in range(12):
        buckets_total += 2
        state = hist_state("lat", [5.0], [0, buckets_total])
        events += engine.evaluate(float(i), [state])
    assert any(e.state == FIRING for e in events)
    fired_at = next(e.time for e in events if e.state == FIRING)
    assert fired_at <= 2.0  # both windows saturate fast at 100% bad


def test_slo_short_spike_does_not_fire():
    engine = RuleEngine([slo()])
    # long good history, then one bad window shorter than the slow burn
    good = 0
    events = []
    for i in range(10):
        good += 10
        events += engine.evaluate(float(i), [hist_state("lat", [5.0], [good, 0])])
    # one spike: 3 bad among plenty of good — slow window stays under 3x
    events += engine.evaluate(10.0, [hist_state("lat", [5.0], [good, 3])])
    assert not any(e.state == FIRING for e in events)
    assert engine.firing() == []


def test_slo_resolves_at_clear_ratio():
    engine = RuleEngine([slo()])
    bad = 0
    for i in range(4):
        bad += 5
        engine.evaluate(float(i), [hist_state("lat", [5.0], [0, bad])])
    assert engine.firing() == ["lat-slo"]
    # recovery: only good traffic from here; windows drain below clear
    good = 0
    for i in range(4, 20):
        good += 50
        engine.evaluate(float(i), [hist_state("lat", [5.0], [good, bad])])
    assert engine.firing() == []
    assert engine.state("lat-slo") == RESOLVED


# -- event log & exposition ---------------------------------------------------


def test_event_log_is_bounded():
    engine = RuleEngine([depth_rule()], event_capacity=4)
    series = [20, 0] * 10  # fire/resolve every other step
    drive(engine, series)
    assert len(engine.events) == 4


def test_events_serialize():
    engine = RuleEngine([depth_rule(severity="critical", description="d")])
    drive(engine, [20])
    (event,) = engine.event_log()
    assert event == {
        "time": 0.0,
        "alertname": "depth-high",
        "state": "firing",
        "value": 20.0,
        "severity": "critical",
        "description": "d",
    }


def test_alerts_entries_cover_pending_and_firing():
    engine = RuleEngine(
        [depth_rule(), depth_rule(name="slow", for_duration=5.0)]
    )
    drive(engine, [20])
    entries = engine.alerts_entries()
    states = {e["labels"]["alertname"]: e["labels"]["alertstate"]
              for e in entries.values()}
    assert states == {"depth-high": "firing", "slow": "pending"}
    assert all(e["value"] == 1 for e in entries.values())


def test_alerts_entries_empty_when_quiet():
    engine = RuleEngine([depth_rule()])
    drive(engine, [0, 0])
    assert engine.alerts_entries() == {}


# -- the built-in pack --------------------------------------------------------


def test_default_rule_pack_shape():
    rules = default_rule_pack(evaluation_interval=0.5)
    shape = [
        (r.name, r.op, r.threshold, r.clear_threshold, r.for_duration, r.severity,
         r.description)
        for r in rules
    ]
    assert shape == [
        ("rln-spam-flood", ">", 1.0, 0.5, 1.0, "critical",
         "fleet-wide invalid-proof/spam rejection rate"),
        ("rln-peer-silent", ">=", 1.0, 0.0, 0.0, "critical",
         "a peer stopped exporting telemetry"),
        ("rln-witness-hit-ratio", "<", 0.5, 0.75, 2.5, "warning",
         "light-member witness cache degradation"),
        ("rln-executor-saturation", ">", 16.0, 4.0, 1.0, "warning",
         "crypto executor queue saturation"),
        ("rln-exporter-loss", ">", 0.0, None, 0.0, "warning",
         "telemetry export batches being lost"),
        ("rln-revocation-lag", ">=", 1.0, 0.9, 0.0, "critical",
         "spam-detection to network-wide exclusion latency"),
    ]
    spam, silent, witness, saturation, loss, lag = (r.expr for r in rules)
    assert isinstance(spam, Rate) and spam.window == 2.5
    assert spam.source.key == "sum(pipeline_drops_total{stage=verify}.value)"
    assert isinstance(silent, HealthCount) and silent.status == "silent"
    assert witness.key == "avg(witness_cache_hit_ratio{}.value)" and witness.default == 1.0
    assert saturation.key == "max(executor_queue_depth{}.value)"
    assert isinstance(loss, Rate) and loss.window == 2.5
    assert loss.source.names == (
        "telemetry_dropped_batches_total", "collector_lost_batches_total"
    )
    assert isinstance(lag, BurnRate)
    assert (lag.budget, lag.fast_burn, lag.slow_burn) == (0.1, 6.0, 3.0)
    assert (lag.fast.window, lag.slow.window, lag.fast.objective) == (5.0, 30.0, 25.0)
    assert lag.fast.matchers == (("kind", "revocation-network"),)
    # the pack must construct a valid engine
    engine = RuleEngine(rules)
    assert engine.firing() == []


def test_default_rule_pack_quiet_on_empty_fleet():
    rules = default_rule_pack()
    engine = RuleEngine(rules)
    for i in range(20):
        assert engine.evaluate(i * 0.5, [{}]) == []
    assert engine.firing() == []
    assert all(engine.state(rule.name) == "inactive" for rule in rules)
