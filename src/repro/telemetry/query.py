"""Instant queries over collected telemetry state: the read half of alerting.

The collector reconstructs every peer's registry exactly (PR 7) — but a
rule like *"the fleet-wide invalid-proof rate exceeded 1/s for two
evaluation intervals"* needs more than reconstructed state: it needs
**selection** (which series), **aggregation** (how the per-peer series
combine) and **windows** (how the value moved over simulated time).
This module is that query layer, deliberately tiny and deterministic:

* :func:`select` — label-matcher selection over one or many
  ``collect()``-shaped mappings (the collector's per-peer states are
  queried *without* materializing a fleet merge: summing entries across
  states is the merge, for every aggregation this module offers);
* :class:`Instant` / :class:`Quantile` / :class:`Combined` — pure
  functions of the current state (sum/max/min/avg/count by selector,
  bucket-estimate quantiles over merged histograms);
* :class:`Rate` / :class:`BadFraction` — windowed expressions over a
  bounded :class:`SeriesRing` of ``(sim_time, value)`` points, written by
  :meth:`FleetQuerier.sample`.  Points at the same simulated instant
  **coalesce** (last write wins), which is what makes evaluation
  independent of the order same-time batches folded in — the property
  suite pins this;
* :class:`HealthCount` / :class:`HealthScore` — bridges into the
  liveness classifier (:mod:`repro.telemetry.health`), so "a peer went
  silent" is an alert expression like any other.

Everything evaluates on the *simulated* clock and touches no RNG: two
runs folding the same batches at the same times produce bit-identical
query results, which is what lets E20 assert exact detection latencies.

Sampling: :meth:`FleetQuerier.sample` (reached through
:meth:`~repro.telemetry.alerts.RuleEngine.sample`) is the eager
primitive — it writes the points of the ``now`` it is handed, from the
states it is handed.  *When* it is called is the collector's discipline,
stated in :mod:`repro.telemetry.collector`: one ring point per series
per simulated instant, taken when the instant is over.  A pass walks the
states **once**, into a :class:`GroupedStates` bucketed by the metric
names registered expressions select, and every selection then reads its
bucket through :func:`select_many` — so a pass costs the stored entries
once plus the few each rule matches, not rules × peers × entries.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.telemetry.export import _bucket_quantile, merge_histogram_into

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.health import HealthMonitor

#: A ``collect()``-shaped mapping (metric key -> entry dict): the shape
#: shared by live registries, collector per-peer states and snapshots.
CollectedState = Mapping[str, dict]


class _Any:
    """Sentinel matcher: the label must be present, any value."""

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "ANY"


ANY = _Any()


def _matches(entry: dict, name: str, matchers: "tuple[tuple[str, object], ...]") -> bool:
    if entry["name"] != name:
        return False
    labels = entry["labels"]
    for key, want in matchers:
        have = labels.get(key)
        if have is None:
            return False
        if want is not ANY and have != want:
            return False
    return True


def _freeze(matchers: Mapping[str, object]) -> "tuple[tuple[str, object], ...]":
    return tuple(sorted(matchers.items(), key=lambda item: item[0]))


def select(
    states: "CollectedState | Iterable[CollectedState]",
    name: str,
    **matchers: object,
) -> list[dict]:
    """Every entry matching ``name`` + label matchers, across all states.

    ``states`` is one collected-shape mapping or an iterable of them
    (the collector's per-peer states).  Duplicate keys across states are
    *not* merged — they all appear, which is exactly what additive
    aggregation wants.
    """
    return select_many(_as_states(states), name, _freeze(matchers))


class GroupedStates(tuple):
    """A states tuple that also carries its entries bucketed by name.

    Built once per sampling / evaluation pass by
    :meth:`FleetQuerier.grouped`; ``by_name`` holds a bucket for exactly
    the metric names it was asked for (an empty list when no state has
    the name), so a missing key means "not grouped — scan".
    """

    by_name: dict[str, list[dict]]

    def __new__(
        cls, states: Iterable[CollectedState], names: Iterable[str]
    ) -> "GroupedStates":
        self = super().__new__(cls, states)
        by_name: dict[str, list[dict]] = {name: [] for name in names}
        if by_name:
            for state in self:
                for entry in state.values():
                    bucket = by_name.get(entry["name"])
                    if bucket is not None:
                        bucket.append(entry)
        self.by_name = by_name
        return self


def select_many(
    states: tuple[CollectedState, ...],
    name: str,
    matchers: "tuple[tuple[str, object], ...]",
) -> list[dict]:
    """Pre-frozen-matcher :func:`select` — the one scan every selection
    goes through.  Reads the ``name`` bucket of a :class:`GroupedStates`;
    any other tuple of states (or an ungrouped name) is walked whole."""
    candidates: "Iterable[dict] | None" = None
    if isinstance(states, GroupedStates):
        candidates = states.by_name.get(name)
    if candidates is None:
        candidates = (entry for state in states for entry in state.values())
    return [entry for entry in candidates if _matches(entry, name, matchers)]


# -- scalar aggregation over selections ---------------------------------------


def _scalar(entry: dict, field_name: str) -> float:
    """One entry's scalar: ``value`` for counters/gauges, any summary
    field (``count``/``sum``/``min``/``max``) for histograms."""
    if field_name == "value" and entry["kind"] == "histogram":
        raise ValueError(
            f"histogram {entry['name']!r} has no 'value'; ask for "
            "field='count', 'sum', 'min' or 'max'"
        )
    return entry[field_name]


def aggregate(
    entries: Sequence[dict],
    agg: str = "sum",
    *,
    field_name: str = "value",
    default: float = 0.0,
) -> float:
    """Fold a selection to one number; ``default`` when nothing matched."""
    if agg not in ("sum", "max", "min", "avg", "count"):
        raise ValueError(f"unknown aggregation {agg!r}")
    if not entries:
        return default
    values = [_scalar(entry, field_name) for entry in entries]
    if agg == "sum":
        return sum(values)
    if agg == "max":
        return max(values)
    if agg == "min":
        return min(values)
    if agg == "avg":
        return sum(values) / len(values)
    return float(len(values))


def sum_by(entries: Sequence[dict], label: str) -> dict[str, float]:
    """Group a counter/gauge selection by one label and sum each group."""
    out: dict[str, float] = {}
    for entry in entries:
        key = entry["labels"].get(label, "")
        out[key] = out.get(key, 0.0) + _scalar(entry, "value")
    return out


def merge_histograms(entries: Sequence[dict]) -> dict | None:
    """Additively merge matching histogram entries (bounds must agree)."""
    merged: dict | None = None
    for entry in entries:
        if entry["kind"] != "histogram":
            raise ValueError(f"{entry['name']!r} is a {entry['kind']}, not a histogram")
        if merged is None:
            merged = {
                "le": list(entry["le"]),
                "buckets": [0] * len(entry["buckets"]),
                "count": 0,
                "sum": 0.0,
                "min": 0.0,
                "max": 0.0,
            }
        merge_histogram_into(merged, entry)
    return merged


def count_over(entries: Sequence[dict], objective: float) -> tuple[float, float]:
    """``(bad, total)`` observation counts: *bad* is everything recorded
    above ``objective`` seconds, conservatively bucket-quantised (an
    observation in a bucket whose upper bound exceeds the objective
    counts as bad)."""
    bad = 0.0
    total = 0.0
    for entry in entries:
        bounds = list(entry["le"])
        good_buckets = bisect_right(bounds, objective)
        good = sum(entry["buckets"][:good_buckets])
        total += entry["count"]
        bad += entry["count"] - good
    return bad, total


# -- windowed series ----------------------------------------------------------


class SeriesRing:
    """A bounded ring of ``(sim_time, value)`` points for one series.

    Points at the same simulated instant **replace** the previous one —
    within one instant the cumulative value after all folds is
    order-independent, so coalescing makes every windowed read
    order-independent too.
    """

    __slots__ = ("points",)

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 2:
            raise ValueError("ring capacity must be >= 2")
        self.points: deque[tuple[float, float]] = deque(maxlen=capacity)

    def note(self, time: float, value: float) -> None:
        if self.points and self.points[-1][0] == time:
            self.points[-1] = (time, value)
        else:
            self.points.append((time, value))

    def _ends(
        self, window: float, now: float
    ) -> "tuple[tuple[float, float], tuple[float, float]] | None":
        """The oldest and newest point inside the window, or ``None`` when
        fewer than two are.  The ring is time-ordered, so this walks back
        from the newest point and stops at the cutoff."""
        cutoff = now - window
        oldest = None
        inside = 0
        for point in reversed(self.points):
            if point[0] < cutoff:
                break
            oldest = point
            inside += 1
        if inside < 2:
            return None
        return oldest, self.points[-1]

    def delta(self, window: float, now: float) -> float:
        """Increase over the window (clamped at 0 for monotone series)."""
        ends = self._ends(window, now)
        if ends is None:
            return 0.0
        return max(0.0, ends[1][1] - ends[0][1])

    def rate(self, window: float, now: float) -> float:
        """Per-second increase over the window's observed span."""
        ends = self._ends(window, now)
        if ends is None:
            return 0.0
        oldest, newest = ends
        elapsed = newest[0] - oldest[0]
        if elapsed <= 0:
            return 0.0
        return max(0.0, newest[1] - oldest[1]) / elapsed

    @property
    def latest(self) -> tuple[float, float] | None:
        return self.points[-1] if self.points else None


# -- the expression vocabulary ------------------------------------------------


@dataclass(frozen=True)
class FleetView:
    """Everything one evaluation pass reads: state, rings, health, now."""

    now: float
    states: tuple[CollectedState, ...]
    rings: Mapping[str, SeriesRing] = field(default_factory=dict)
    health: "HealthMonitor | None" = None


class Expr:
    """One alert expression; ``instant(view)`` yields its current value."""

    #: Stable identity — ring keys, dedup, and reprs all derive from it.
    key: str

    def instant(self, view: FleetView) -> float:
        raise NotImplementedError

    def over_states(self, states: tuple[CollectedState, ...]) -> float:
        """Pure-state evaluation (no rings) — what ring samplers call.

        Windowed expressions cannot provide it; wrapping one in another
        windowed expression is a configuration error caught here.
        """
        raise TypeError(f"{type(self).__name__} is windowed; it cannot be sampled")

    def register(self, querier: "FleetQuerier") -> None:
        """Install whatever rings/samplers this expression needs."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return self.key


class Instant(Expr):
    """``agg(name{matchers})`` over the current state — sum by default."""

    def __init__(
        self,
        name: str,
        *,
        agg: str = "sum",
        field: str = "value",
        default: float = 0.0,
        **matchers: object,
    ) -> None:
        aggregate((), agg)  # validate eagerly
        self.name = name
        self.agg = agg
        self.field = field
        self.default = default
        self.matchers = _freeze(matchers)
        inner = ",".join(f"{k}={v}" for k, v in self.matchers)
        self.key = f"{agg}({name}{{{inner}}}.{field})"

    def over_states(self, states: tuple[CollectedState, ...]) -> float:
        return aggregate(
            select_many(states, self.name, self.matchers),
            self.agg,
            field_name=self.field,
            default=self.default,
        )

    def instant(self, view: FleetView) -> float:
        return self.over_states(view.states)

    def register(self, querier: "FleetQuerier") -> None:
        querier.group_by(self.name)


class Combined(Expr):
    """The sum of several pure expressions (e.g. two loss counters)."""

    def __init__(self, exprs: Sequence[Expr]) -> None:
        if not exprs:
            raise ValueError("Combined needs at least one expression")
        self.exprs = tuple(exprs)
        self.key = "sum(" + "+".join(expr.key for expr in self.exprs) + ")"

    def over_states(self, states: tuple[CollectedState, ...]) -> float:
        return sum(expr.over_states(states) for expr in self.exprs)

    def instant(self, view: FleetView) -> float:
        return sum(expr.instant(view) for expr in self.exprs)

    def register(self, querier: "FleetQuerier") -> None:
        for expr in self.exprs:
            expr.register(querier)


class Quantile(Expr):
    """Bucket-estimate quantile over the merged selected histograms."""

    def __init__(self, name: str, q: float, **matchers: object) -> None:
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        self.name = name
        self.q = q
        self.matchers = _freeze(matchers)
        inner = ",".join(f"{k}={v}" for k, v in self.matchers)
        self.key = f"quantile({q},{name}{{{inner}}})"

    def over_states(self, states: tuple[CollectedState, ...]) -> float:
        merged = merge_histograms(select_many(states, self.name, self.matchers))
        if merged is None or merged["count"] == 0:
            return 0.0
        return _bucket_quantile(
            merged["le"], merged["buckets"], merged["count"], self.q
        )

    def instant(self, view: FleetView) -> float:
        return self.over_states(view.states)

    def register(self, querier: "FleetQuerier") -> None:
        querier.group_by(self.name)


class Rate(Expr):
    """``rate(source[window])``: per-second increase of a sampled series.

    The source must be a pure expression (:class:`Instant` /
    :class:`Combined`); its value is sampled into a :class:`SeriesRing`
    by every :meth:`FleetQuerier.sample`, and the rate reads the ring.
    """

    def __init__(self, source: Expr, window: float) -> None:
        if window <= 0:
            raise ValueError("rate window must be positive")
        self.source = source
        self.window = window
        self.key = f"rate({source.key},{window:g}s)"

    def register(self, querier: "FleetQuerier") -> None:
        self.source.register(querier)
        querier.add_sampler(self.source.key, self.source.over_states)

    def instant(self, view: FleetView) -> float:
        ring = view.rings.get(self.source.key)
        if ring is None:
            return 0.0
        return ring.rate(self.window, view.now)


class BadFraction(Expr):
    """Fraction of histogram observations above ``objective`` in a window.

    The SLO burn-rate primitive: two rings (bad count, total count) are
    fed by one sampler from the selected histograms; the instant value
    is ``Δbad / Δtotal`` over the window — 0.0 with no traffic, so an
    idle fleet never burns budget.
    """

    def __init__(
        self, name: str, objective: float, window: float, **matchers: object
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.objective = objective
        self.window = window
        self.matchers = _freeze(matchers)
        inner = ",".join(f"{k}={v}" for k, v in self.matchers)
        selector = f"{name}{{{inner}}}"
        self.key = f"bad_fraction({selector}>{objective:g},{window:g}s)"
        self._bad_key = f"{selector}#bad>{objective:g}"
        self._total_key = f"{selector}#count"

    def _counts(self, states: tuple[CollectedState, ...]) -> tuple[float, float]:
        return count_over(select_many(states, self.name, self.matchers), self.objective)

    def register(self, querier: "FleetQuerier") -> None:
        querier.group_by(self.name)
        querier.add_sampler((self._bad_key, self._total_key), self._counts)

    def instant(self, view: FleetView) -> float:
        bad_ring = view.rings.get(self._bad_key)
        total_ring = view.rings.get(self._total_key)
        if bad_ring is None or total_ring is None:
            return 0.0
        total = total_ring.delta(self.window, view.now)
        if total <= 0:
            return 0.0
        return min(1.0, bad_ring.delta(self.window, view.now) / total)


class HealthCount(Expr):
    """How many peers the liveness classifier puts in ``status`` now."""

    def __init__(self, status: str) -> None:
        self.status = status
        self.key = f"health_count({status})"

    def instant(self, view: FleetView) -> float:
        if view.health is None:
            return 0.0
        return float(view.health.counts(view.now).get(self.status, 0))


class HealthScore(Expr):
    """The fleet liveness score in [0, 1] (1.0 with no peers known)."""

    key = "health_score()"

    def instant(self, view: FleetView) -> float:
        if view.health is None:
            return 1.0
        return view.health.score(view.now)


# -- the querier --------------------------------------------------------------


class FleetQuerier:
    """Rings + samplers for every registered windowed expression.

    The owner (the rule engine, for the collector) calls :meth:`sample`
    once per simulated instant that folded something and :meth:`view`
    at each evaluation; samplers are interned by series key, so two
    rules watching the same series share one ring.
    """

    def __init__(self, *, ring_capacity: int = 512) -> None:
        self.ring_capacity = ring_capacity
        self._rings: dict[str, SeriesRing] = {}
        self._samplers: dict["str | tuple[str, ...]", Callable] = {}
        #: Metric names some registered expression selects — what a
        #: pass buckets the states by.
        self._names: set[str] = set()

    def register(self, expr: Expr) -> None:
        expr.register(self)

    def group_by(self, name: str) -> None:
        """Bucket entries named ``name`` in every pass's grouping."""
        self._names.add(name)

    def add_sampler(
        self,
        key: "str | tuple[str, ...]",
        fn: "Callable[[tuple[CollectedState, ...]], float | tuple[float, ...]]",
    ) -> None:
        """``fn(states)`` feeds the ring named ``key``; with a tuple of
        keys it returns one value per key — one selection, several
        series."""
        if key in self._samplers:
            return
        self._samplers[key] = fn
        for ring_key in key if isinstance(key, tuple) else (key,):
            self._rings[ring_key] = SeriesRing(self.ring_capacity)

    def grouped(
        self, states: "CollectedState | Iterable[CollectedState]"
    ) -> GroupedStates:
        """``states`` bucketed by the registered names (as is if it
        already went through here): one walk that every selection of
        the pass then shares."""
        if isinstance(states, GroupedStates):
            return states
        return GroupedStates(_as_states(states), self._names)

    def sample(
        self, now: float, states: "CollectedState | Iterable[CollectedState]"
    ) -> None:
        """One ``(sim_time, value)`` point per registered series, now."""
        states = self.grouped(states)
        rings = self._rings
        for key, sampler in self._samplers.items():
            value = sampler(states)
            if isinstance(key, tuple):
                for ring_key, part in zip(key, value):
                    rings[ring_key].note(now, part)
            else:
                rings[key].note(now, value)

    def ring(self, key: str) -> SeriesRing | None:
        return self._rings.get(key)

    def view(
        self,
        now: float,
        states: "CollectedState | Iterable[CollectedState]",
        *,
        health: "HealthMonitor | None" = None,
    ) -> FleetView:
        return FleetView(
            now=now, states=self.grouped(states), rings=self._rings, health=health
        )


def _as_states(
    states: "CollectedState | Iterable[CollectedState]",
) -> tuple[CollectedState, ...]:
    if isinstance(states, Mapping):
        return (states,)
    return tuple(states)
