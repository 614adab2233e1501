"""The metrics registry: Counter / Gauge / Histogram keyed by name{labels}.

Every subsystem counts its events in its own ``*Stats`` object
(``ValidatorStats``, ``TreeSyncStats``, ``CoordinatorStats``, …) — one
plain ``stats.x += 1`` per event, the only place the count lives.  This
module is how those counts become series, in the idiom of production
p2p metrics registries:

* metrics are interned by canonical key ``name{label=value,…}`` — asking
  twice returns the same object;
* :meth:`MetricsRegistry.bind` interns a counter or gauge whose ``value``
  is *read* from its owner (``lambda: stats.x``) whenever anyone looks:
  no second store that could disagree with the figure a benchmark
  prints.  Only histograms are written to directly;
* :class:`Histogram` keeps **fixed log-spaced buckets** (for the
  Prometheus/snapshot export, where merging across peers must stay
  additive) *and* the raw sample stream (for exact p50/p90/p99/max in
  benchmark waterfalls — bucket quantiles are estimates, exact ones are
  what the paper-facing tables print);
* the whole surface has a **zero-cost disabled mode**:
  :data:`NULL_REGISTRY` hands out shared no-op singletons whose methods
  do nothing and its ``bind`` registers nothing, so code instruments
  unconditionally and a disabled run stays bit-identical to the seed
  (the E16 overhead arm pins this).

Telemetry is *off by default* everywhere: every constructor takes
``telemetry=None`` and falls back to the null objects.
"""

from __future__ import annotations

import random
import zlib
from array import array
from bisect import bisect_left
from typing import Callable, Iterable, Mapping

from repro.analysis.reporting import percentile

#: Log-spaced bucket upper bounds: 1 µs → 100 s, four buckets per decade.
#: Fixed (never resized) so bucket counts merge additively across peers
#: and across snapshots; observations above the last bound land in the
#: implicit +Inf overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(1e-6 * (10 ** (step / 4)), 12) for step in range(33)
)

#: How many exact samples a histogram retains before switching to
#: reservoir sampling.  Large enough that every benchmark waterfall stays
#: exact; small enough that a long-running fleet run is O(1) memory per
#: histogram instead of O(observations).
DEFAULT_SAMPLE_CAPACITY = 4096


def metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical registry key: ``name`` or ``name{k=v,…}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (events, drops, bytes…)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, mesh size, occupancy…)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class BoundMetric:
    """A counter or gauge whose value is read from its owner on demand
    (what :meth:`MetricsRegistry.bind` interns; nothing to increment)."""

    __slots__ = ("name", "labels", "kind", "_read")

    def __init__(
        self, name: str, labels: Mapping[str, str], kind: str, read: Callable[[], float]
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self._read = read

    @property
    def value(self) -> int | float:
        return self._read()


class Histogram:
    """Log-spaced bucket counts plus a bounded exact-sample reservoir.

    ``observe`` is the hot path: one bisect over the fixed bounds, a few
    integer/float updates, one append to a ``array('d')`` — no per-sample
    object kept, sorting deferred to the first percentile read.  The first
    ``sample_capacity`` samples are retained verbatim, so
    :meth:`percentile` is *exact* for every benchmark-sized stream;
    beyond that the retained set degrades gracefully into a uniform
    **reservoir** (Vitter's algorithm R) whose replacement choices are
    drawn from a private :class:`random.Random` seeded from the metric's
    canonical label key — deterministic per metric, never touching any
    simulation RNG, so long-running fleet runs neither grow memory
    without bound nor perturb modeled behaviour.  Bucket counts, count,
    sum, min and max stay exact regardless.  Snapshots export only the
    bucket counts and summary fields, which is what keeps snapshot
    merging additive and commutative.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "bucket_counts",
        "count",
        "total",
        "minimum",
        "maximum",
        "sample_capacity",
        "_samples",
        "_sorted_at",
        "_reservoir_rng",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        *,
        buckets: Iterable[float] | None = None,
        sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.bounds: tuple[float, ...] = (
            DEFAULT_BUCKETS if buckets is None else tuple(sorted(buckets))
        )
        #: Per-bucket (non-cumulative) counts; index ``len(bounds)`` is
        #: the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        #: ``±inf`` until the first observation; an export reads them
        #: through :meth:`extremes`, which says 0.0 for an empty one.
        self.minimum = float("inf")
        self.maximum = float("-inf")
        if sample_capacity < 1:
            raise ValueError("sample_capacity must be >= 1")
        self.sample_capacity = sample_capacity
        #: Raw doubles, not a list of float objects: the collector walks
        #: no per-sample pointer, and a retained sample costs 8 bytes.
        self._samples = array("d")
        #: ``count`` when the samples were last sorted: any later
        #: observation may have changed them.
        self._sorted_at = 0
        self._reservoir_rng: random.Random | None = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        count = self.count = self.count + 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if count <= self.sample_capacity:
            self._samples.append(value)
        else:
            # Algorithm R: sample i (1-based == self.count) replaces a
            # random slot with probability capacity/i, keeping the
            # retained set a uniform sample of everything observed.
            if self._reservoir_rng is None:
                self._reservoir_rng = random.Random(
                    zlib.crc32(metric_key(self.name, self.labels).encode("utf-8"))
                )
            slot = self._reservoir_rng.randrange(count)
            if slot < self.sample_capacity:
                self._samples[slot] = value

    def extremes(self) -> tuple[float, float]:
        """``(min, max)`` as exports carry them: ``(0.0, 0.0)`` when empty."""
        if self.count:
            return self.minimum, self.maximum
        return 0.0, 0.0

    # -- exact readouts (benchmark waterfalls) ------------------------------

    def percentile(self, q: float) -> float:
        """Linear-interpolated quantile over the retained samples.

        Exact while ``count <= sample_capacity`` (every sample retained);
        beyond that, a uniform-reservoir estimate whose rank drift the
        property suite bounds.
        """
        if self._sorted_at != self.count:
            self._samples = array("d", sorted(self._samples))
            self._sorted_at = self.count
        return percentile(self._samples, q, presorted=True)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)


Metric = Counter | Gauge | BoundMetric | Histogram


class MetricsRegistry:
    """Interned metrics by canonical key; the enabled half of the seam."""

    def __init__(self, *, buckets: Iterable[float] | None = None) -> None:
        self._default_buckets = (
            DEFAULT_BUCKETS if buckets is None else tuple(sorted(buckets))
        )
        self._metrics: dict[str, Metric] = {}

    def _intern(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, labels, **kwargs)
        elif metric.kind != cls.kind:
            raise TypeError(
                f"metric {key!r} is a {metric.kind}, requested {cls.kind}"
            )
        return metric

    def bind(
        self, name: str, read: Callable[[], float], kind: str = "counter", /, **labels: str
    ) -> None:
        """Intern ``name{labels}`` as a series whose value is ``read()``.

        The owner keeps counting in its own ``*Stats`` object; the series
        is looked up like any other (``counter(name, **labels).value``).
        Binding a key again replaces the reader and keeps its place.
        ``kind`` (``"counter"`` or ``"gauge"``) is positional-only because
        ``kind=`` is also a label several series carry.
        """
        if kind not in ("counter", "gauge"):
            raise ValueError(f"cannot bind a {kind}")
        key = metric_key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None and existing.kind != kind:
            raise TypeError(f"metric {key!r} is a {existing.kind}, bound as {kind}")
        self._metrics[key] = BoundMetric(name, labels, kind, read)

    def counter(self, name: str, **labels: str) -> Counter:
        return self._intern(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._intern(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Iterable[float] | None = None,
        sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
        **labels: str,
    ) -> Histogram:
        return self._intern(
            Histogram,
            name,
            labels,
            buckets=buckets or self._default_buckets,
            sample_capacity=sample_capacity,
        )

    # -- reading ------------------------------------------------------------

    def metrics(self) -> dict[str, Metric]:
        """Live metric objects by canonical key (read-only by convention)."""
        return dict(self._metrics)

    def collect(self) -> "dict[str, dict]":
        """One atomic read of every metric into plain JSON-able dicts.

        The snapshot path's read: bound series are read from their owners
        here, in the same pass as the histograms.  (The push exporter
        diffs the live objects of :meth:`metrics` instead, so an idle
        series costs it no copy.)
        """
        out: dict[str, dict] = {}
        for key, metric in self._metrics.items():
            entry: dict = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                low, high = metric.extremes()
                entry.update(
                    count=metric.count,
                    sum=metric.total,
                    min=low,
                    max=high,
                    le=list(metric.bounds),
                    buckets=list(metric.bucket_counts),
                )
            else:
                entry["value"] = metric.value
            out[key] = entry
        return out


class NullCounter:
    """Shared do-nothing counter for the disabled path."""

    __slots__ = ()
    kind = "counter"
    name = ""
    labels: dict[str, str] = {}
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        return None


class NullGauge:
    """Shared do-nothing gauge for the disabled path."""

    __slots__ = ()
    kind = "gauge"
    name = ""
    labels: dict[str, str] = {}
    value = 0.0

    def set(self, value: float) -> None:
        return None

    def add(self, delta: float) -> None:
        return None


class NullHistogram:
    """Shared do-nothing histogram (every quantile reads 0) for the disabled path."""

    __slots__ = ()
    kind = "histogram"
    name = ""
    labels: dict[str, str] = {}
    bounds: tuple[float, ...] = ()
    count = 0
    total = 0.0
    minimum = 0.0
    maximum = 0.0
    p50 = p90 = p99 = 0.0

    def observe(self, value: float) -> None:
        return None

    def percentile(self, q: float) -> float:
        return 0.0


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """The disabled registry: every request returns a shared no-op.

    No keys are formatted, nothing is stored, ``bind`` drops its reader
    — a disabled run pays the owner's plain ``stats.x += 1`` per event
    and an empty method call per histogram observation, which the E16
    overhead arm shows is within noise of the seed.
    """

    def counter(self, name: str, **labels: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, **labels: str) -> NullHistogram:
        return NULL_HISTOGRAM

    def bind(self, name: str, read, kind: str = "counter", /, **labels: str) -> None:
        return None

    def metrics(self) -> dict[str, Metric]:
        return {}

    def collect(self) -> dict[str, dict]:
        return {}


NULL_REGISTRY = NullRegistry()
