"""Unit tests for the instant-query layer (repro.telemetry.query).

The guarantees the alerting stack leans on:

* selection matches on metric name + label matchers (``ANY`` = present
  with any value) across *many* collected-shape states without merging;
* aggregation (sum/max/min/avg/count) is exact, with an explicit
  ``default`` for empty selections (the false-positive guard);
* ``SeriesRing`` coalesces same-sim-time points by replacement — the
  property that makes windowed reads independent of same-instant fold
  order — and ``rate``/``delta`` clamp negative movement to zero;
* ``BadFraction`` counts observations above an objective from the
  non-cumulative bucket representation, windowed via paired rings;
* the ``FleetQuerier`` interns samplers by series key (two rules
  watching one series share one ring).
"""

import itertools

import pytest

from repro.telemetry.export import TelemetrySnapshot
from repro.telemetry.query import (
    ANY,
    BadFraction,
    Combined,
    FleetQuerier,
    Instant,
    Quantile,
    Rate,
    SeriesRing,
    aggregate,
    count_over,
    merge_histograms,
    select,
    sum_by,
)
from repro.telemetry.registry import metric_key


def counter(name, value, **labels):
    return {"name": name, "kind": "counter", "labels": labels, "value": value}


def gauge(name, value, **labels):
    return {"name": name, "kind": "gauge", "labels": labels, "value": value}


def histogram(name, le, buckets, *, total=None, sum_=0.0, mn=0.0, mx=0.0, **labels):
    return {
        "name": name,
        "kind": "histogram",
        "labels": labels,
        "count": sum(buckets) if total is None else total,
        "le": list(le),
        "buckets": list(buckets),
        "sum": sum_,
        "min": mn,
        "max": mx,
    }


def state(*entries):
    return {metric_key(e["name"], e["labels"]): e for e in entries}


# -- selection ----------------------------------------------------------------


def test_select_by_name_and_labels():
    s = state(
        counter("drops_total", 3, peer="a", stage="verify"),
        counter("drops_total", 5, peer="a", stage="dedup"),
        counter("other_total", 9, peer="a", stage="verify"),
    )
    got = select(s, "drops_total", stage="verify")
    assert [e["value"] for e in got] == [3]


def test_select_any_requires_label_presence():
    s = state(
        counter("drops_total", 1, peer="a", stage="verify"),
        counter("drops_total", 2),
    )
    assert len(select(s, "drops_total", stage=ANY)) == 1
    assert len(select(s, "drops_total")) == 2


def test_select_across_multiple_states_without_merging():
    a = state(counter("drops_total", 3, stage="verify"))
    b = state(counter("drops_total", 4, stage="verify"))
    got = select([a, b], "drops_total", stage="verify")
    assert sorted(e["value"] for e in got) == [3, 4]


# -- aggregation --------------------------------------------------------------


def test_aggregate_modes():
    entries = [gauge("depth", v, peer=str(v)) for v in (1.0, 4.0, 7.0)]
    assert aggregate(entries, "sum") == 12.0
    assert aggregate(entries, "max") == 7.0
    assert aggregate(entries, "min") == 1.0
    assert aggregate(entries, "avg") == 4.0
    assert aggregate(entries, "count") == 3.0


def test_aggregate_empty_uses_default():
    assert aggregate([], "avg", default=1.0) == 1.0
    assert aggregate([], "sum") == 0.0


def test_aggregate_histogram_needs_summary_field():
    h = histogram("lat", [1.0], [2, 1], sum_=0.5)
    assert aggregate([h], "sum", field_name="count") == 3
    with pytest.raises(ValueError):
        aggregate([h], "sum", field_name="value")


def test_aggregate_unknown_mode():
    with pytest.raises(ValueError):
        aggregate([], "median")


def test_sum_by_groups_on_label():
    entries = [
        counter("drops_total", 3, peer="a", stage="verify"),
        counter("drops_total", 4, peer="b", stage="verify"),
        counter("drops_total", 5, peer="a", stage="dedup"),
    ]
    assert sum_by(entries, "peer") == {"a": 8.0, "b": 4.0}


# -- histogram merge + objective counting -------------------------------------


def test_merge_histograms_adds_buckets():
    a = histogram("lat", [1.0, 5.0], [2, 1, 0], sum_=1.0, mn=0.1, mx=2.0)
    b = histogram("lat", [1.0, 5.0], [1, 0, 3], sum_=20.0, mn=0.5, mx=9.0)
    merged = merge_histograms([a, b])
    assert merged["buckets"] == [3, 1, 3]
    assert merged["count"] == 7
    assert merged["max"] == 9.0
    assert merged["min"] == 0.1


def test_an_empty_side_contributes_neither_min_nor_max():
    # An eagerly interned series that observed nothing exports min = max
    # = 0.0; those are placeholders, not observations, whichever side of
    # whichever merge entry point they arrive on.
    key = metric_key("lat", {})
    empty = histogram("lat", [1.0, 5.0], [0, 0, 0])
    busy = histogram("lat", [1.0, 5.0], [2, 1, 0], sum_=2.1, mn=0.3, mx=1.5)
    for order in itertools.permutations([empty, busy, empty]):
        merged = merge_histograms(order)
        assert (merged["min"], merged["max"], merged["count"]) == (0.3, 1.5, 3)
    snap_empty = TelemetrySnapshot.from_collected({key: empty})
    snap_busy = TelemetrySnapshot.from_collected({key: busy})
    assert snap_empty.merge(snap_busy) == snap_busy.merge(snap_empty) == snap_busy
    both_empty = snap_empty.merge(snap_empty).data[key]
    assert (both_empty["min"], both_empty["max"], both_empty["count"]) == (0.0, 0.0, 0)


def test_merge_histograms_rejects_mismatched_bounds():
    a = histogram("lat", [1.0], [1, 0])
    b = histogram("lat", [2.0], [1, 0])
    with pytest.raises(ValueError):
        merge_histograms([a, b])


def test_count_over_objective_uses_bucket_bounds():
    # bounds [1, 5]: buckets <=1s, <=5s, +Inf
    h = histogram("lat", [1.0, 5.0], [4, 2, 3])
    bad, total = count_over([h], 5.0)
    assert (bad, total) == (3, 9)
    bad, total = count_over([h], 1.0)
    assert (bad, total) == (5, 9)
    # objective between bounds: the whole straddling bucket counts bad
    bad, _ = count_over([h], 2.0)
    assert bad == 5


# -- rings --------------------------------------------------------------------


def test_ring_coalesces_same_time_points():
    ring = SeriesRing(capacity=8)
    ring.note(1.0, 5.0)
    ring.note(1.0, 7.0)
    ring.note(2.0, 9.0)
    assert list(ring.points) == [(1.0, 7.0), (2.0, 9.0)]


def test_ring_rate_and_delta():
    ring = SeriesRing(capacity=8)
    for t, v in [(0.0, 0.0), (1.0, 4.0), (2.0, 10.0)]:
        ring.note(t, v)
    assert ring.delta(10.0, 2.0) == 10.0
    assert ring.rate(10.0, 2.0) == 5.0
    # window excludes the first point
    assert ring.delta(1.0, 2.0) == 6.0


def test_ring_rate_clamps_negative_and_degenerate():
    ring = SeriesRing(capacity=8)
    ring.note(0.0, 10.0)
    assert ring.rate(5.0, 0.0) == 0.0  # single point
    ring.note(1.0, 4.0)
    assert ring.rate(5.0, 1.0) == 0.0  # counter reset clamps
    assert ring.delta(5.0, 1.0) == 0.0


def test_ring_bounded_capacity():
    ring = SeriesRing(capacity=4)
    for i in range(10):
        ring.note(float(i), float(i))
    assert len(ring.points) == 4
    assert ring.points[-1] == (9.0, 9.0)


# -- expressions --------------------------------------------------------------


def make_view(querier, now, states, **kw):
    return querier.view(now, states, **kw)


def test_instant_default_guards_empty_fleet():
    expr = Instant("witness_cache_hit_ratio", agg="avg", default=1.0)
    q = FleetQuerier()
    view = make_view(q, 0.0, [state()])
    assert expr.instant(view) == 1.0


def test_instant_sums_across_peers():
    expr = Instant("pipeline_drops_total", stage="verify")
    a = state(counter("pipeline_drops_total", 3, peer="a", stage="verify"))
    b = state(counter("pipeline_drops_total", 4, peer="b", stage="verify"))
    q = FleetQuerier()
    assert expr.instant(make_view(q, 0.0, [a, b])) == 7


def test_quantile_over_merged_histograms():
    h1 = histogram("lat", [1.0, 5.0, 10.0], [8, 0, 0, 0], kind="bundle")
    h2 = histogram("lat", [1.0, 5.0, 10.0], [0, 0, 2, 0], kind="bundle")
    expr = Quantile("lat", 0.5, kind="bundle")
    q = FleetQuerier()
    assert expr.instant(make_view(q, 0.0, [state(h1), state(h2)])) <= 1.0
    high = Quantile("lat", 0.99, kind="bundle")
    assert high.instant(make_view(q, 0.0, [state(h1), state(h2)])) > 5.0


def test_rate_samples_through_querier():
    expr = Rate(Instant("drops_total"), window=10.0)
    q = FleetQuerier()
    q.register(expr)
    for t, v in [(0.0, 0), (1.0, 10), (2.0, 30)]:
        q.sample(t, [state(counter("drops_total", v))])
    assert expr.instant(q.view(2.0, [])) == 15.0


def test_rate_without_registration_is_zero():
    expr = Rate(Instant("drops_total"), window=10.0)
    q = FleetQuerier()
    assert expr.instant(q.view(0.0, [])) == 0.0


def test_combined_sums_sources():
    expr = Combined([Instant("a_total"), Instant("b_total")])
    s = state(counter("a_total", 3), counter("b_total", 4))
    q = FleetQuerier()
    assert expr.instant(make_view(q, 0.0, [s])) == 7


def test_bad_fraction_windows_over_objective():
    expr = BadFraction("lat", objective=5.0, window=10.0)
    q = FleetQuerier()
    q.register(expr)
    # t=0: 4 observations, all fast; t=5: 6 more, 4 slow
    q.sample(0.0, [state(histogram("lat", [1.0, 5.0], [4, 0, 0]))])
    q.sample(5.0, [state(histogram("lat", [1.0, 5.0], [4, 2, 4]))])
    assert expr.instant(q.view(5.0, [])) == pytest.approx(4 / 6)


def test_bad_fraction_idle_is_zero():
    expr = BadFraction("lat", objective=5.0, window=10.0)
    q = FleetQuerier()
    q.register(expr)
    q.sample(0.0, [state()])
    q.sample(5.0, [state()])
    assert expr.instant(q.view(5.0, [])) == 0.0


def test_querier_interns_samplers_by_key():
    q = FleetQuerier()
    q.register(Rate(Instant("drops_total"), window=5.0))
    q.register(Rate(Instant("drops_total"), window=30.0))  # same source
    assert len(q._samplers) == 1


def test_windowed_expr_cannot_be_sampled():
    rate = Rate(Instant("x_total"), window=5.0)
    with pytest.raises(TypeError):
        Rate(rate, window=10.0).source.over_states(())
