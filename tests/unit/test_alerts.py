"""Unit tests for the rule engine (repro.telemetry.alerts).

The lifecycle contract under test:

* a breach shorter than ``for_duration`` never fires (pending expires
  back without an event);
* hysteresis: once firing, only a value past the *clear* threshold
  resolves — values oscillating inside the band keep the alert firing;
* SLO burn-rate rules fire only when the fast AND slow windows both
  exceed their burn factors, and resolve at ``clear_ratio``;
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
    RuleEngine,
    SLO,
    default_rule_pack,
)
from repro.telemetry.query import Instant
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


def slo(**kw):
    defaults = dict(
        name="lat-slo",
        metric="lat",
        objective=5.0,
        budget=0.1,
        fast_window=2.0,
        slow_window=10.0,
        fast_burn=6.0,
        slow_burn=3.0,
    )
    defaults.update(kw)
    return SLO(**defaults)


def test_slo_validation():
    with pytest.raises(ValueError):
        slo(budget=0.0)
    with pytest.raises(ValueError):
        slo(fast_window=10.0, slow_window=10.0)
    with pytest.raises(ValueError):
        slo(clear_ratio=0.0)


def test_slo_fires_only_when_both_windows_burn():
    engine = RuleEngine(slos=[slo()])
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
    engine = RuleEngine(slos=[slo()])
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
    engine = RuleEngine(slos=[slo()])
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
    rules, slos_ = default_rule_pack(evaluation_interval=0.5)
    names = [r.name for r in rules] + [s.name for s in slos_]
    assert names == [
        "rln-spam-flood",
        "rln-peer-silent",
        "rln-witness-hit-ratio",
        "rln-executor-saturation",
        "rln-exporter-loss",
        "rln-revocation-lag",
    ]
    # the pack must construct a valid engine
    engine = RuleEngine(rules, slos_)
    assert engine.firing() == []


def test_default_rule_pack_quiet_on_empty_fleet():
    rules, slos_ = default_rule_pack()
    engine = RuleEngine(rules, slos_)
    for i in range(20):
        assert engine.evaluate(i * 0.5, [{}]) == []
    assert engine.firing() == []
    assert all(engine.state(rule.name) == "inactive" for rule in rules)
