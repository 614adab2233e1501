"""The metrics registry: counters, bound gauges and histograms keyed by name{labels}.

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
  prints, and no poll: the owner marks it (:meth:`MetricsRegistry.marker`)
  where it moves.  Every gauge is bound; only histograms are written to;
* :class:`Histogram` keeps **fixed log-spaced buckets** (for the
  Prometheus/snapshot export, where merging across peers must stay
  additive) *and* the raw sample stream (for exact p50/p90/p99/max in
  benchmark waterfalls — bucket quantiles are estimates, exact ones are
  what the paper-facing tables print);
* the whole surface has a **zero-cost disabled mode**:
  :data:`~repro.telemetry.disttrace.DISABLED` stands in for the registry
  and every metric it would hand out — writes do nothing, ``bind``
  registers nothing — so code instruments unconditionally and a disabled
  run stays bit-identical to the seed (the E16 overhead arm pins this).

Telemetry is *off by default* everywhere: every constructor takes
``telemetry=None`` and falls back to that one object.
"""

from __future__ import annotations

import random
import zlib
from array import array
from bisect import bisect_left
from functools import partial
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

    __slots__ = ("name", "labels", "value", "key", "written")

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0
        self.key, self.written = name, {}  # where a write is marked: see ``changed``

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount
        self.written[self.key] = True


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
        "name", "labels", "bounds", "bucket_counts", "count", "total", "minimum", "maximum",
        "sample_capacity", "_samples", "_sorted_at", "_reservoir_rng", "key", "written",
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
        self.key, self.written = name, {}  # as a Counter's

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
        self.written[self.key] = True

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


Metric = Counter | BoundMetric | Histogram


class MetricsRegistry:
    """Interned metrics by canonical key; the enabled half of the seam."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        #: The series written or marked since :meth:`changed`.
        self._written: dict[str, bool] = {}

    def _intern(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, labels, **kwargs)
            metric.key, metric.written = key, self._written
            self._written[key] = True  # first sight
        elif metric.kind != cls.kind:
            raise TypeError(
                f"metric {key!r} is a {metric.kind}, requested {cls.kind}"
            )
        return metric

    def bind(
        self, name: str, read: Callable[[], float], kind: str = "counter", /, **labels: str
    ) -> str:
        """Intern ``name{labels}`` as a series whose value is ``read()``; its key.

        The owner keeps counting in its own ``*Stats`` object and marks the
        series (:meth:`marker`) where it moves; the series is looked up like
        any other (``counter(name, **labels).value``).  Binding a key again
        replaces the reader, keeps its place and marks it.  ``kind``
        (``"counter"`` or ``"gauge"``) is positional-only because ``kind=``
        is also a label several series carry.
        """
        if kind not in ("counter", "gauge"):
            raise ValueError(f"cannot bind a {kind}")
        key = metric_key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None and existing.kind != kind:
            raise TypeError(f"metric {key!r} is a {existing.kind}, bound as {kind}")
        self._metrics[key] = BoundMetric(name, labels, kind, read)
        self._written[key] = True  # reported afresh
        return key

    def marker(self, *keys: str) -> Callable[[], None]:
        """The call an owner makes where the bound series ``keys`` may have
        moved: it marks each for the next :meth:`changed` (an unmoved one
        costs that reader one comparison; a move left unmarked is lost)."""
        return partial(self._written.update, dict.fromkeys(keys, True))

    def counter(self, name: str, **labels: str) -> Counter:
        return self._intern(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> BoundMetric:
        """The gauge bound as ``name{labels}``: a gauge is only ever bound."""
        metric = self._metrics.get(metric_key(name, labels))
        if metric is None or metric.kind != "gauge":
            raise TypeError(f"no gauge is bound as {metric_key(name, labels)!r}")
        return metric

    def histogram(
        self,
        name: str,
        *,
        buckets: Iterable[float] | None = None,
        sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
        **labels: str,
    ) -> Histogram:
        return self._intern(
            Histogram, name, labels, buckets=buckets or None, sample_capacity=sample_capacity
        )

    # -- reading ------------------------------------------------------------

    def changed(self) -> list[tuple[str, Metric]]:
        """``(key, metric)`` for every series written, marked or registered
        since the previous call, in registration order.  One reader per
        registry (its peer's exporter); an idle call reads nothing."""
        moved = self._written
        if not moved:
            return []
        out = [(key, metric) for key, metric in self._metrics.items() if key in moved]
        moved.clear()
        return out

    def collect(self) -> "dict[str, dict]":
        """One atomic read of every metric into plain JSON-able dicts.

        The snapshot path's read: bound series are read from their owners
        here, in the same pass as the histograms.  (The push exporter
        diffs the live objects :meth:`changed` names instead, so an idle
        series costs it no copy.)
        """
        out: dict[str, dict] = {}
        for key, metric in self._metrics.items():
            entry: dict = {"name": metric.name, "kind": metric.kind, "labels": dict(metric.labels)}
            if isinstance(metric, Histogram):
                low, high = metric.extremes()
                entry.update(
                    count=metric.count, sum=metric.total, min=low, max=high,
                    le=list(metric.bounds), buckets=list(metric.bucket_counts),
                )
            else:
                entry["value"] = metric.value
            out[key] = entry
        return out
