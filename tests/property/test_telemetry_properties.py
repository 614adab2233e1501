"""Property-based tests for telemetry snapshot merging.

The load-bearing algebra: snapshots are an additive view of an event
stream, so merging the snapshots of two disjoint streams must

* **commute** (``merge(A, B) == merge(B, A)``, bit-exact — float
  addition commutes even where it does not associate), and
* **equal recording the combined stream** — one registry fed A's events
  then B's events snapshots to ``snap(A).merge(snap(B))``: exactly for
  every integer-valued field (counts, bucket counts, and hence the
  bucket-derived quantile estimates), and up to float
  addition-reordering rounding for the ``sum``/``value`` accumulators.

Event vocabulary: counter increments, gauge deltas (the owner of a
bound gauge adding, the mergeable gauge operation), histogram observations and histograms
interned without an observation — the operations the instrumented
subsystems actually perform.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TelemetrySnapshot
from repro.telemetry.registry import MetricsRegistry, metric_key

#: A small, shared metric vocabulary so streams collide on keys (the
#: interesting case) while still exercising disjoint metrics.
NAMES = ("events_total", "drops_total", "depth", "wait_seconds", "svc_seconds")
LABELS = ({}, {"peer": "a"}, {"peer": "b"})
BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0)

counter_events = st.tuples(
    st.just("counter"),
    st.sampled_from(NAMES[:2]),
    st.sampled_from(LABELS),
    st.integers(min_value=0, max_value=1000),
)
gauge_events = st.tuples(
    st.just("gauge"),
    st.just(NAMES[2]),
    st.sampled_from(LABELS),
    st.integers(min_value=-50, max_value=50),
)
histogram_events = st.tuples(
    st.just("histogram"),
    st.sampled_from(NAMES[3:]),
    st.sampled_from(LABELS),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
)
#: A series interned but never observed — what every eagerly bound
#: histogram looks like on a peer that recorded nothing.  Its exported
#: ``min``/``max`` placeholders must not leak into a merge.
empty_histograms = st.tuples(
    st.just("intern"), st.sampled_from(NAMES[3:]), st.sampled_from(LABELS), st.none()
)
events = st.lists(
    counter_events | gauge_events | histogram_events | empty_histograms,
    min_size=0,
    max_size=40,
)


def record(registry: MetricsRegistry, stream) -> None:
    gauges: dict[str, list] = {}  # what each bound gauge reads
    for kind, name, labels, value in stream:
        if kind == "counter":
            registry.counter(name, **labels).inc(value)
        elif kind == "gauge":
            key = metric_key(name, labels)
            if key not in gauges:
                cell = gauges[key] = [0.0]
                registry.bind(name, lambda cell=cell: cell[0], "gauge", **labels)
            gauges[key][0] += float(value)
        elif kind == "histogram":
            registry.histogram(name, buckets=BUCKETS, **labels).observe(value)
        else:
            registry.histogram(name, buckets=BUCKETS, **labels)


def snap(stream) -> TelemetrySnapshot:
    registry = MetricsRegistry()
    record(registry, stream)
    return TelemetrySnapshot.of(registry)


def assert_equivalent(x: TelemetrySnapshot, y: TelemetrySnapshot) -> None:
    """Exact on integer fields and quantiles; tolerant on float sums."""
    assert x.data.keys() == y.data.keys()
    for key in x.data:
        a, b = x.data[key], y.data[key]
        assert a.keys() == b.keys(), key
        for field in a:
            if field in ("sum", "value"):
                assert math.isclose(
                    a[field], b[field], rel_tol=1e-9, abs_tol=1e-12
                ), (key, field)
            else:
                assert a[field] == b[field], (key, field)


@settings(max_examples=200)
@given(events, events)
def test_merge_commutes(stream_a, stream_b):
    a, b = snap(stream_a), snap(stream_b)
    assert a.merge(b) == b.merge(a)


@settings(max_examples=200)
@given(events, events)
def test_merge_equals_combined_stream(stream_a, stream_b):
    merged = snap(stream_a).merge(snap(stream_b))
    assert_equivalent(merged, snap(stream_a + stream_b))


@settings(max_examples=100)
@given(events, events, events)
def test_merge_is_associative(stream_a, stream_b, stream_c):
    a, b, c = snap(stream_a), snap(stream_b), snap(stream_c)
    assert_equivalent(a.merge(b).merge(c), a.merge(b.merge(c)))


@given(events)
def test_empty_snapshot_is_the_identity(stream):
    a = snap(stream)
    empty = TelemetrySnapshot({})
    assert a.merge(empty) == a
    assert empty.merge(a) == a


@given(events)
def test_json_roundtrip_preserves_merge_inputs(stream):
    a = snap(stream)
    assert TelemetrySnapshot.from_json(a.to_json()) == a


# -- bounded-reservoir histograms ---------------------------------------------
#
# Beyond ``sample_capacity`` the retained samples degrade into a uniform
# reservoir (Vitter's algorithm R, rng seeded from the metric key).  The
# claims worth pinning: exactness below capacity, determinism and
# boundedness always, and a quantile *rank-drift* bound beyond capacity.
# Which reservoir slots survive depends only on (metric key, n), so an
# adversarial data *order* could in principle bias the estimate; feeding
# a seed-shuffled permutation of known ranks keeps the test honest while
# the drift bound stays many standard errors wide (capacity 256: one
# standard error of the p50 rank is ~0.031).

import bisect
import random as stdlib_random

from repro.analysis.reporting import percentile as exact_percentile

CAPACITY = 256


def fill(values, capacity=CAPACITY):
    registry = MetricsRegistry()
    histogram = registry.histogram("wait_seconds", sample_capacity=capacity)
    for value in values:
        histogram.observe(value)
    return histogram


@settings(max_examples=100)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        max_size=60,
    )
)
def test_percentiles_exact_below_capacity(values):
    histogram = fill(values, capacity=64)
    for q in (0.5, 0.9, 0.99):
        assert histogram.percentile(q) == exact_percentile(sorted(values), q, presorted=True)


@settings(max_examples=50)
@given(st.integers(min_value=300, max_value=2000), st.integers(min_value=0, max_value=2**30))
def test_reservoir_quantile_rank_drift_is_bounded(n, shuffle_seed):
    ranks = list(range(n))
    stdlib_random.Random(shuffle_seed).shuffle(ranks)
    histogram = fill(float(rank) for rank in ranks)
    assert len(histogram._samples) == CAPACITY
    for q, drift in ((0.5, 0.25), (0.99, 0.25)):
        estimate = histogram.percentile(q)
        estimated_rank = bisect.bisect_left(sorted(range(n)), estimate) / (n - 1)
        assert abs(estimated_rank - q) <= drift, (q, estimated_rank)
    # Exact summary fields never degrade.
    assert histogram.count == n
    assert histogram.minimum == 0.0 and histogram.maximum == float(n - 1)
    assert sum(histogram.bucket_counts) == n


@settings(max_examples=50)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=0,
        max_size=400,
    )
)
def test_reservoir_is_deterministic_and_bounded(values):
    first, second = fill(values, capacity=128), fill(values, capacity=128)
    assert first._samples == second._samples
    assert len(first._samples) <= 128
    assert first.percentile(0.5) == second.percentile(0.5)
    # The retained multiset is drawn from what was observed.
    observed = sorted(values)
    for sample in first._samples:
        index = bisect.bisect_left(observed, sample)
        assert index < len(observed) and observed[index] == sample
