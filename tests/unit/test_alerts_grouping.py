"""Selections read the name buckets of a state index — same answers as the scan."""

import pytest

from repro.telemetry import alerts
from repro.telemetry.alerts import (
    RING_CAPACITY,
    AlertRule,
    BadFraction,
    BurnRate,
    Instant,
    Rate,
    RuleEngine,
    SeriesRing,
    StateIndex,
    _matches,
    select_many,
)
from repro.telemetry.registry import metric_key


def entry(name, value, **labels):
    return metric_key(name, labels), {
        "name": name, "kind": "counter", "labels": labels, "value": value,
    }


def fleet():
    return tuple(
        dict(
            [
                entry("drops_total", index + 1, peer=peer, stage="verify"),
                entry("drops_total", 10 * index, peer=peer, stage="prefilter"),
                entry("sends_total", 7, peer=peer),
            ]
        )
        for index, peer in enumerate(("a", "b", "c"))
    )


@pytest.mark.parametrize(
    "name, matchers",
    [
        ("drops_total", ()),
        ("drops_total", (("stage", "verify"),)),
        ("drops_total", (("peer", "b"), ("stage", "prefilter"))),
        ("sends_total", (("peer", "b"),)),
        ("absent_total", ()),
    ],
)
def test_a_grouped_selection_equals_the_scan(name, matchers):
    states = fleet()
    scanned = [
        entry
        for state in states
        for entry in state.values()
        if _matches(entry, name, matchers)
    ]
    assert select_many(states, name, matchers) == scanned
    # entries reported in any order land in walk order
    index = StateIndex()
    for rank, state in reversed(list(enumerate(states))):
        for place, entry in reversed(list(enumerate(state.values()))):
            index.added((rank, place), entry)
    assert select_many(index, name, matchers) == scanned


def test_a_pass_walks_the_states_once(monkeypatch):
    calls = []
    real = alerts._matches
    monkeypatch.setattr(
        alerts, "_matches", lambda *args: calls.append(args[1]) or real(*args)
    )
    engine = RuleEngine(
        [
            AlertRule(name=name, expr=Rate(expr, window=5.0), threshold=1e9)
            for name, expr in (
                ("drops", Instant("drops_total", stage="verify")),
                ("sends", Instant("sends_total")),
            )
        ]
    )
    engine.sample(1.0, fleet())
    # six drops_total entries and three sends_total ones were candidates;
    # no sampler looked at another sampler's series
    assert sorted(calls) == ["drops_total"] * 6 + ["sends_total"] * 3
    ring = engine._rings[Instant("drops_total", stage="verify").key]
    assert ring.points[-1] == (1.0, 6)


def test_an_slo_selects_its_histograms_once_per_pass(monkeypatch):
    selections = []
    real = alerts.select_many
    monkeypatch.setattr(
        alerts, "select_many", lambda *args: selections.append(args[1]) or real(*args)
    )
    engine = RuleEngine(
        [AlertRule(name="lag", expr=BurnRate("lat", 5.0), op=">=", threshold=1.0)]
    )
    histogram = {
        "name": "lat", "kind": "histogram", "labels": {}, "le": [1.0, 5.0],
        "buckets": [4, 2, 4], "count": 10, "sum": 30.0, "min": 0.1, "max": 9.0,
    }
    engine.sample(1.0, [{"lat": histogram}])
    assert selections == ["lat"]  # fast and slow window, bad and total: one merge
    fast = BadFraction("lat", 5.0, 5.0)
    assert engine._rings[fast._bad_key].points[-1] == (1.0, 4)
    assert engine._rings[fast._total_key].points[-1] == (1.0, 10)


def test_ring_window_walk_equals_the_copying_reference():
    ring = SeriesRing()
    for step in range(RING_CAPACITY + 8):
        ring.note(step * 0.5, float(step * step))

    def reference(window, now):
        points = [p for p in ring.points if p[0] >= now - window]
        if len(points) < 2:
            return 0.0, 0.0
        rise = max(0.0, points[-1][1] - points[0][1])
        elapsed = points[-1][0] - points[0][0]
        return rise, (rise / elapsed if elapsed > 0 else 0.0)

    for now in (0.0, 3.9, 4.0, 11.5, 12.0, 40.0, RING_CAPACITY / 2 + 3.5):
        for window in (0.25, 0.5, 2.0, 7.75, 100.0):
            assert (ring.delta(window, now), ring.rate(window, now)) == reference(
                window, now
            )
