"""Unit tests for the telemetry package: registry, tracing, export.

The load-bearing guarantees:

* histogram bucket boundaries follow Prometheus ``le`` semantics (a
  value equal to a bound lands in that bound's bucket) and percentiles
  read from the live object are *exact* (shared linear interpolation
  from :mod:`repro.analysis.reporting`, not bucket estimates);
* the disabled path is an identity: shared no-op singletons, nothing
  stored, nothing formatted;
* traces stamp the injected clock and fold spans into the shared stage
  histograms, skipped stages producing no spans at all;
* snapshots round-trip through JSON, merge additively, and render the
  standard Prometheus text format.
"""

import math

import pytest

from repro.analysis.reporting import percentile as exact_percentile
from repro.telemetry import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NULL_DISTTRACER,
    NULL_TELEMETRY,
    NULL_TRACE,
    DistTracer,
    MetricsRegistry,
    Telemetry,
    TelemetrySnapshot,
    metric_key,
    render_prometheus,
    resolve,
)
from repro.telemetry import tracing


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_metric_key_sorts_labels():
    assert metric_key("m", {}) == "m"
    assert metric_key("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"


def test_registry_interns_by_key():
    registry = MetricsRegistry()
    a = registry.counter("events_total", peer="p1")
    b = registry.counter("events_total", peer="p1")
    c = registry.counter("events_total", peer="p2")
    assert a is b and a is not c
    a.inc()
    a.inc(3)
    assert b.value == 4 and c.value == 0


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(TypeError):
        registry.gauge("thing")


def test_bound_series_read_their_owner_at_read_time():
    registry = MetricsRegistry()
    registry.counter("first")
    stats = {"events": 0, "depth": 2}
    registry.bind("events_total", lambda: stats["events"], peer="p1", kind="home")
    registry.bind("depth", lambda: stats["depth"], "gauge", peer="p1")
    stats["events"] += 3
    # Looked up, collected and exported like any interned metric; the
    # ``kind`` label does not collide with the positional metric kind.
    assert registry.counter("events_total", peer="p1", kind="home").value == 3
    assert registry.gauge("depth", peer="p1").value == 2
    collected = registry.collect()
    assert list(collected) == ["first", "events_total{kind=home,peer=p1}", "depth{peer=p1}"]
    assert collected["events_total{kind=home,peer=p1}"] == {
        "name": "events_total",
        "kind": "counter",
        "labels": {"peer": "p1", "kind": "home"},
        "value": 3,
    }
    assert collected["depth{peer=p1}"]["kind"] == "gauge"
    stats["events"] -= 1  # a rollback in the owner is a rollback in the series
    assert registry.collect()["events_total{kind=home,peer=p1}"]["value"] == 2


def test_rebinding_replaces_the_reader_in_place_and_checks_the_kind():
    registry = MetricsRegistry()
    registry.bind("a_total", lambda: 1)
    registry.bind("b_total", lambda: 2)
    registry.bind("a_total", lambda: 10)
    assert [(k, e["value"]) for k, e in registry.collect().items()] == [
        ("a_total", 10),
        ("b_total", 2),
    ]
    with pytest.raises(TypeError):
        registry.bind("a_total", lambda: 0, "gauge")
    with pytest.raises(TypeError):
        registry.gauge("a_total")
    with pytest.raises(ValueError):
        registry.bind("h", lambda: 0, "histogram")


def test_gauge_set_and_add():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(7.0)
    gauge.add(-2.0)
    assert gauge.value == 5.0


def test_histogram_bucket_boundaries_le_semantics():
    histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
    # value == bound -> that bound's bucket (Prometheus le semantics);
    # above the last bound -> the +Inf overflow bucket.
    for value, bucket in ((0.5, 0), (1.0, 0), (1.5, 1), (2.0, 1), (4.0, 2), (9.0, 3)):
        before = histogram.bucket_counts[bucket]
        histogram.observe(value)
        assert histogram.bucket_counts[bucket] == before + 1
    assert histogram.count == 6
    assert sum(histogram.bucket_counts) == 6


def test_default_buckets_are_log_spaced_and_fixed():
    assert len(DEFAULT_BUCKETS) == 33
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)
    ratios = [b / a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])]
    assert all(r == pytest.approx(10 ** 0.25, rel=1e-6) for r in ratios)


def test_histogram_percentiles_are_exact():
    histogram = MetricsRegistry().histogram("h")
    samples = [0.001 * i for i in (9, 1, 7, 3, 5, 2, 8, 4, 6, 10)]
    for s in samples:
        histogram.observe(s)
    for q in (0.0, 0.25, 0.50, 0.90, 0.99, 1.0):
        assert histogram.percentile(q) == exact_percentile(samples, q)
    assert histogram.p50 == exact_percentile(samples, 0.5)
    assert histogram.maximum == max(samples)
    assert histogram.minimum == min(samples)
    assert histogram.total == pytest.approx(sum(samples)) and histogram.count == len(samples)
    # Percentiles stay exact across interleaved observes (lazy re-sort).
    histogram.observe(0.0001)
    assert histogram.p50 == exact_percentile(samples + [0.0001], 0.5)


def test_empty_histogram_reads_zero():
    histogram = MetricsRegistry().histogram("h")
    assert histogram.p50 == 0.0 and histogram.p99 == 0.0
    assert histogram.total == 0.0 and histogram.count == 0
    assert math.isinf(histogram.minimum)
    assert histogram.extremes() == (0.0, 0.0)
    registry = MetricsRegistry()
    registry.histogram("h")
    entry = registry.collect()["h"]
    assert entry["min"] == 0.0 and entry["max"] == 0.0


def test_negative_only_histogram_reports_its_own_maximum():
    """``maximum`` used to start at 0.0, so a stream of negative values
    (clock skew, a signed drift) reported a max above every sample, and
    the fleet merge carried it."""
    peers = []
    for samples in ((-0.5, -0.25, -2.0), (-3.0, -1.5)):
        registry = MetricsRegistry()
        histogram = registry.histogram("skew_seconds", buckets=(-1.0, 0.0, 1.0))
        for value in samples:
            histogram.observe(value)
        assert histogram.maximum == max(samples)
        assert histogram.extremes() == (min(samples), max(samples))
        peers.append(TelemetrySnapshot.of(registry))
    entry = peers[0].histogram("skew_seconds")
    assert entry["min"] == -2.0 and entry["max"] == -0.25
    merged = peers[0].merge(peers[1]).histogram("skew_seconds")
    assert merged["min"] == -3.0 and merged["max"] == -0.25


# ---------------------------------------------------------------------------
# the disabled path
# ---------------------------------------------------------------------------


def test_null_registry_hands_out_shared_singletons():
    assert NULL_REGISTRY.counter("a", x="1") is NULL_COUNTER
    assert NULL_REGISTRY.counter("b") is NULL_COUNTER
    assert NULL_REGISTRY.gauge("c") is NULL_GAUGE
    assert NULL_REGISTRY.histogram("d") is NULL_HISTOGRAM
    NULL_COUNTER.inc(5)
    NULL_GAUGE.set(3.0)
    NULL_HISTOGRAM.observe(1.0)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0.0
    assert NULL_HISTOGRAM.count == 0 and NULL_HISTOGRAM.p99 == 0.0
    assert NULL_REGISTRY.bind("e_total", lambda: 1, peer="p") is None
    assert NULL_REGISTRY.collect() == {} and NULL_REGISTRY.metrics() == {}


def test_resolve_defaults_to_the_null_hub():
    assert resolve(None) is NULL_TELEMETRY
    telemetry = Telemetry()
    assert resolve(telemetry) is telemetry
    assert NULL_TELEMETRY.disttracer("anyone") is NULL_DISTTRACER
    assert NULL_TELEMETRY.snapshot().data == {}
    assert NULL_DISTTRACER.begin() is NULL_TRACE
    NULL_TRACE.mark("anything")
    assert NULL_DISTTRACER.finish(NULL_TRACE) is None
    assert NULL_DISTTRACER.recent() == ()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_trace_spans_are_consecutive_mark_deltas():
    clock = ManualClock()
    registry = MetricsRegistry()
    tracer = DistTracer("p1", registry=registry, clock=clock)
    trace = tracer.begin()
    clock.now = 0.010
    trace.mark(tracing.PREFILTER)
    # cheap-checks / verdict-cache skipped entirely: no zero-length spans.
    clock.now = 0.030
    trace.mark(tracing.PAIRING)
    clock.now = 0.031
    trace.mark(tracing.RESOLVE)
    record = tracer.finish(trace)

    assert dict(record.stages()) == {
        tracing.PREFILTER: pytest.approx(0.010),
        tracing.PAIRING: pytest.approx(0.020),
        tracing.RESOLVE: pytest.approx(0.001),
    }
    assert record.duration == pytest.approx(0.031)
    stage = registry.histogram(
        "trace_stage_seconds", kind="bundle", stage=tracing.PAIRING
    )
    assert stage.count == 1 and stage.p50 == pytest.approx(0.020)
    assert registry.histogram("trace_total_seconds", kind="bundle").count == 1
    assert registry.counter("traces_finished_total", kind="bundle").value == 1
    assert tracer.recent() == (record,)


def test_finish_resolves_each_series_once_per_tracer():
    class CountingRegistry(MetricsRegistry):
        def __init__(self):
            super().__init__()
            self.lookups = []

        def histogram(self, name, **kwargs):
            self.lookups.append((name, kwargs.get("kind"), kwargs.get("stage")))
            return super().histogram(name, **kwargs)

        def counter(self, name, **labels):
            self.lookups.append((name, labels.get("kind"), None))
            return super().counter(name, **labels)

    clock = ManualClock()
    registry = CountingRegistry()
    tracer = DistTracer("p1", registry=registry, clock=clock)

    def span(kind, stages):
        trace = tracer.begin(kind)
        for stage in stages:
            clock.now += 0.01
            trace.mark(stage)
        tracer.finish(trace)

    span("bundle", (tracing.PREFILTER, tracing.PAIRING))
    once = sorted(registry.lookups)
    assert once == sorted(
        [
            ("trace_stage_seconds", "bundle", tracing.PREFILTER),
            ("trace_stage_seconds", "bundle", tracing.PAIRING),
            ("trace_total_seconds", "bundle", None),
            ("traces_finished_total", "bundle", None),
        ]
    )
    span("bundle", (tracing.PREFILTER, tracing.PAIRING))
    assert sorted(registry.lookups) == once  # the handles were reused
    span("revocation", (tracing.PAIRING,))  # same stage, its own series
    assert sorted(registry.lookups[len(once):]) == [
        ("trace_stage_seconds", "revocation", tracing.PAIRING),
        ("trace_total_seconds", "revocation", None),
        ("traces_finished_total", "revocation", None),
    ]
    plain = MetricsRegistry.histogram
    assert plain(registry, "trace_stage_seconds", kind="bundle", stage=tracing.PAIRING).count == 2
    assert plain(registry, "trace_stage_seconds", kind="revocation", stage=tracing.PAIRING).count == 1
    assert plain(registry, "trace_total_seconds", kind="revocation").count == 1
    assert MetricsRegistry.counter(registry, "traces_finished_total", kind="bundle").value == 2


def test_tracer_ring_is_bounded():
    tracer = DistTracer("p1", registry=MetricsRegistry(), capacity=4)
    records = [tracer.finish(tracer.begin()) for _ in range(6)]
    assert tracer.recent() == tuple(records[2:])
    assert tracer.recent("revocation") == ()


def test_telemetry_caches_tracers_per_peer():
    telemetry = Telemetry()
    clock = ManualClock()
    first = telemetry.disttracer("p1")
    again = telemetry.disttracer("p1", clock=clock)
    assert first is again
    assert again.clock is clock  # a later caller can supply the clock
    assert first.registry is telemetry.registry  # spans fold into the hub
    assert telemetry.disttracer("p2") is not first


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("events_total", peer="p1").inc(3)
    registry.gauge("depth", peer="p1").set(2.0)
    histogram = registry.histogram("latency_seconds", peer="p1", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.7, 2.0):
        histogram.observe(value)
    return registry


def test_snapshot_json_roundtrip():
    snapshot = TelemetrySnapshot.of(_sample_registry())
    assert TelemetrySnapshot.from_json(snapshot.to_json()) == snapshot
    assert snapshot.value("events_total", peer="p1") == 3
    assert snapshot.value("missing_total") == 0.0
    entry = snapshot.histogram("latency_seconds", peer="p1")
    assert entry["count"] == 4 and entry["buckets"] == [1, 2, 1]
    assert set(entry["quantiles"]) == {"p50", "p90", "p99"}


def test_snapshot_merge_rejects_mismatches():
    a = TelemetrySnapshot.of(_sample_registry())
    other = MetricsRegistry()
    other.gauge("events_total", peer="p1")
    with pytest.raises(ValueError):
        a.merge(TelemetrySnapshot.of(other))
    rebucketed = MetricsRegistry()
    rebucketed.histogram("latency_seconds", peer="p1", buckets=(0.5,)).observe(0.2)
    with pytest.raises(ValueError):
        a.merge(TelemetrySnapshot.of(rebucketed))


def test_render_prometheus_text_format():
    text = render_prometheus(TelemetrySnapshot.of(_sample_registry()))
    lines = text.splitlines()
    assert "# TYPE events_total counter" in lines
    assert "# TYPE latency_seconds histogram" in lines
    assert 'events_total{peer="p1"} 3' in lines
    # Cumulative buckets, +Inf closing bucket, _sum and _count.
    assert 'latency_seconds_bucket{peer="p1",le="0.1"} 1' in lines
    assert 'latency_seconds_bucket{peer="p1",le="1.0"} 3' in lines
    assert 'latency_seconds_bucket{peer="p1",le="+Inf"} 4' in lines
    assert 'latency_seconds_count{peer="p1"} 4' in lines
    assert any(line.startswith('latency_seconds_sum{peer="p1"}') for line in lines)


def test_render_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("events_total", peer='a\\b"c\nd').inc(2)
    text = render_prometheus(TelemetrySnapshot.of(registry))
    assert 'events_total{peer="a\\\\b\\"c\\nd"} 2' in text.splitlines()
    # No raw newline or unescaped quote survives inside the braces.
    (sample_line,) = [l for l in text.splitlines() if l.startswith("events_total{")]
    assert "\n" not in sample_line
    assert sample_line.count('"') == sample_line.count('\\"') + 2


def test_histogram_reservoir_bounds_retained_samples():
    registry = MetricsRegistry()
    histogram = registry.histogram("wait_seconds", sample_capacity=8)
    for value in range(100):
        histogram.observe(float(value))
    assert len(histogram._samples) == 8
    assert histogram.count == 100
    assert sum(histogram.bucket_counts) == 100  # bucket counts stay exact
    assert histogram.minimum == 0.0 and histogram.maximum == 99.0
    assert all(0.0 <= sample <= 99.0 for sample in histogram._samples)
    with pytest.raises(ValueError):
        registry.histogram("bad_capacity", sample_capacity=0)
