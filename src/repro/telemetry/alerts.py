"""Deterministic alerting on the simulated clock: expressions, rules, lifecycle.

The collector reconstructs the fleet's registries exactly; this module
turns that state into decisions.  It has three parts:

* **Expressions** — what a rule reads, through ``read(view)`` over a
  :class:`FleetView`: :class:`Instant` aggregates selected entries across
  the per-peer states without a fleet merge; :class:`Rate` and
  :class:`BadFraction` read bounded :class:`SeriesRing` rings their sources
  are sampled into; :class:`BurnRate` is multi-window multi-burn-rate
  budget alerting; :class:`HealthCount` reads the liveness classifier
  (:mod:`repro.telemetry.health`).
* :class:`AlertRule` — ``expr op threshold`` with a ``for_duration``
  dwell and a separate **clear threshold** (hysteresis): the one rule shape.
* :class:`RuleEngine` — owns the rings and their samplers; the collector
  evaluates it every ``evaluation_interval`` of simulated time.
  Transitions land in a bounded :class:`AlertEvent` log, and an
  ``ALERTS{alertname,severity,alertstate}`` gauge in the exposition.

Everything evaluates on the *simulated* clock and touches no RNG: two
runs folding the same batches at the same times produce bit-identical
results, which is what lets E20 assert exact detection latencies.

Sampling: :meth:`RuleEngine.sample` is the eager primitive; points at
one simulated instant **coalesce** (last write wins), so evaluation does
not depend on the order same-time batches folded in.  *When* it is
called is the collector's discipline (:mod:`repro.telemetry.collector`).
Expressions read a :class:`StateIndex` — entries bucketed by name in walk
order — and each selection filters its name's bucket, so a pass costs
the entries its rules' names hold, not rules × peers × entries; and the
engine keeps each selection per index ``version``, so a pass over an
index that has not moved selects nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import asdict, dataclass
from operator import ge, gt, itemgetter, le, lt
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.telemetry.registry import metric_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.health import HealthMonitor

#: A ``collect()``-shaped mapping (metric key -> entry dict): the shape
#: shared by live registries, collector per-peer states and snapshots.
CollectedState = Mapping[str, dict]

#: Lifecycle states (Prometheus vocabulary plus an explicit inactive).
INACTIVE = "inactive"
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"

#: Points one :class:`SeriesRing` keeps; the widest window of the rule
#: pack (60 evaluation intervals) needs a fraction of them.
RING_CAPACITY = 512

_TIME = itemgetter(0)

_OPS = {">": gt, ">=": ge, "<": lt, "<=": le}


# -- selection and aggregation ------------------------------------------------


def _matches(entry: dict, name: str, matchers: "tuple[tuple[str, object], ...]") -> bool:
    if entry["name"] != name:
        return False
    labels = entry["labels"]
    for key, want in matchers:
        if labels.get(key) != want:
            return False
    return True


def _freeze(matchers: Mapping[str, object]) -> "tuple[tuple[str, object], ...]":
    return tuple(sorted(matchers.items(), key=lambda item: item[0]))


class StateIndex:
    """Collected states as selections read them: every entry bucketed by
    name, each bucket in walk order (state rank, then the entry's place in
    its state) — the order a full walk of the states meets them, so float
    aggregates stay bit-identical.

    The collector keeps one for its life, reports each entry its folds
    create (:meth:`added`) and changes entries in place.  ``version`` must
    move whenever a selection's result may change: :meth:`added` moves it,
    and a keeper writing an entry in place moves it too.  A standalone
    engine indexes the states it is handed, afresh each pass (:meth:`of`).
    """

    __slots__ = ("_buckets", "version")

    def __init__(self) -> None:
        #: name -> (orders, entries), the two lists kept parallel.
        self._buckets: dict[str, tuple[list[tuple], list[dict]]] = {}
        self.version = 0

    @classmethod
    def of(cls, states: Iterable[CollectedState]) -> "StateIndex":
        index = cls()
        for rank, state in enumerate(states):
            for place, entry in enumerate(state.values()):
                index.added((rank, place), entry)
        return index

    def added(self, order: tuple, entry: dict) -> None:
        """``entry`` is new; ``order`` places it in the walk."""
        orders, entries = self._buckets.setdefault(entry["name"], ([], []))
        at = bisect_right(orders, order)
        orders.insert(at, order)
        entries.insert(at, entry)
        self.version += 1

    def bucket(self, name: str) -> list[dict]:
        """Every entry named ``name``, in walk order."""
        bucket = self._buckets.get(name)
        return [] if bucket is None else bucket[1]


def select_many(
    states: "StateIndex | Iterable[CollectedState]",
    name: str,
    matchers: "tuple[tuple[str, object], ...]",
) -> list[dict]:
    """Every entry matching ``name`` + label matchers, across all states —
    the one filter every selection goes through, over the name's bucket
    (plain states are indexed first).  Duplicate keys across states are
    *not* merged (additive aggregation wants them all)."""
    if not isinstance(states, StateIndex):
        states = StateIndex.of(states)
    return [entry for entry in states.bucket(name) if _matches(entry, name, matchers)]


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
    if agg not in ("sum", "max", "avg"):
        raise ValueError(f"unknown aggregation {agg!r}")
    if not entries:
        return default
    values = [_scalar(entry, field_name) for entry in entries]
    if agg == "sum":
        return sum(values)
    if agg == "max":
        return max(values)
    return sum(values) / len(values)


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

    def __init__(self) -> None:
        self.points: deque[tuple[float, float]] = deque(maxlen=RING_CAPACITY)

    def note(self, time: float, value: float) -> None:
        if self.points and self.points[-1][0] == time:
            self.points[-1] = (time, value)
        else:
            self.points.append((time, value))

    def _ends(
        self, window: float, now: float
    ) -> "tuple[tuple[float, float], tuple[float, float]] | None":
        """The oldest and newest point inside the window, or ``None`` when
        fewer than two are.  The ring is time-ordered, so the oldest is
        found by bisection, not by walking the window."""
        points = self.points
        oldest = bisect_left(points, now - window, key=_TIME)
        if len(points) - oldest < 2:
            return None
        return points[oldest], points[-1]

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


# -- the expressions ----------------------------------------------------------


@dataclass(frozen=True)
class FleetView:
    """Everything one pass reads: now, the indexed states, rings, health."""

    now: float
    states: StateIndex
    rings: Mapping[str, SeriesRing]
    health: "HealthMonitor | None"


class Expr:
    """One alert expression.

    ``key`` is its stable identity (ring keys and reprs derive from it),
    and every subclass defines ``read(view) -> float``, its value in a
    :class:`FleetView`.
    """

    key: str

    def register(self, engine: "RuleEngine") -> None:
        """Install the samplers this expression reads."""
        return None


class Instant(Expr):
    """``agg(name{matchers})`` over the current state — sum by default.

    With several names it aggregates the entries of all of them (the
    exporter-loss rule adds two loss counters this way).
    """

    def __init__(
        self,
        *names: str,
        agg: str = "sum",
        field: str = "value",
        default: float = 0.0,
        **matchers: object,
    ) -> None:
        if not names:
            raise ValueError("Instant needs at least one metric name")
        aggregate((), agg)  # validate eagerly
        self.names = names
        self.agg = agg
        self.field = field
        self.default = default
        self.matchers = _freeze(matchers)
        inner = ",".join(f"{k}={v}" for k, v in self.matchers)
        self.key = f"{agg}({'+'.join(names)}{{{inner}}}.{field})"

    def read(self, view: FleetView) -> float:
        entries: list[dict] = []
        for name in self.names:
            entries += select_many(view.states, name, self.matchers)
        return aggregate(
            entries, self.agg, field_name=self.field, default=self.default
        )


class Rate(Expr):
    """``rate(source[window])``: per-second increase of a sampled series.

    The source's :meth:`Instant.read` is sampled into a
    :class:`SeriesRing` by every :meth:`RuleEngine.sample`, and the rate
    reads the ring.  Only an :class:`Instant` can be a source: a windowed
    expression has no value to sample until its own rings are written.
    """

    def __init__(self, source: Instant, window: float) -> None:
        if not isinstance(source, Instant):
            raise TypeError(
                f"{type(source).__name__} is not an Instant; it cannot be sampled"
            )
        if window <= 0:
            raise ValueError("rate window must be positive")
        self.source = source
        self.window = window
        self.key = f"rate({source.key},{window:g}s)"

    def register(self, engine: "RuleEngine") -> None:
        engine.add_sampler(self.source.key, self.source.read)

    def read(self, view: FleetView) -> float:
        ring = view.rings.get(self.source.key)
        if ring is None:
            return 0.0
        return ring.rate(self.window, view.now)


class BadFraction(Expr):
    """Fraction of histogram observations above ``objective`` in a window.

    Two rings (bad count, total count) are fed by one sampler from the
    selected histograms; the value is ``Δbad / Δtotal`` over the window —
    0.0 with no traffic, so an idle fleet never burns budget.
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

    def _counts(self, view: FleetView) -> tuple[float, float]:
        return count_over(
            select_many(view.states, self.name, self.matchers), self.objective
        )

    def register(self, engine: "RuleEngine") -> None:
        engine.add_sampler((self._bad_key, self._total_key), self._counts)

    def read(self, view: FleetView) -> float:
        bad_ring = view.rings.get(self._bad_key)
        total_ring = view.rings.get(self._total_key)
        if bad_ring is None or total_ring is None:
            return 0.0
        total = total_ring.delta(self.window, view.now)
        if total <= 0:
            return 0.0
        return min(1.0, bad_ring.delta(self.window, view.now) / total)


class BurnRate(Expr):
    """A multi-window burn rate of one latency histogram's error budget.

    ``objective``: the latency bound (seconds) an observation must meet;
    ``budget``: the tolerated fraction of observations missing it.  The
    burn rate of a window is ``bad_fraction / budget`` — 1.0 means the
    budget is being spent exactly as provisioned.  The value is
    ``min(fast/fast_burn, slow/slow_burn)``: it reaches 1.0 only when the
    fast window burns >= ``fast_burn`` AND the slow window >=
    ``slow_burn``, so a rule ``>= 1.0`` on it ignores a short spike and
    trips quickly on a sustained regression (the slow window *is* the
    dwell).
    """

    def __init__(
        self,
        metric: str,
        objective: float,
        *,
        budget: float = 0.1,
        fast_window: float = 5.0,
        slow_window: float = 30.0,
        fast_burn: float = 6.0,
        slow_burn: float = 3.0,
        **matchers: object,
    ) -> None:
        if not 0.0 < budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if fast_window >= slow_window:
            raise ValueError("fast_window must be shorter than slow_window")
        if fast_burn <= 0 or slow_burn <= 0:
            raise ValueError("fast_burn and slow_burn must be positive")
        self.budget = budget
        self.fast_burn = fast_burn
        self.slow_burn = slow_burn
        self.fast = BadFraction(metric, objective, fast_window, **matchers)
        self.slow = BadFraction(metric, objective, slow_window, **matchers)
        self.key = (
            f"burn({self.fast.key}/{fast_burn:g},{self.slow.key}/{slow_burn:g},"
            f"{budget:g})"
        )

    def register(self, engine: "RuleEngine") -> None:
        self.fast.register(engine)
        self.slow.register(engine)

    def read(self, view: FleetView) -> float:
        burn_fast = self.fast.read(view) / self.budget
        burn_slow = self.slow.read(view) / self.budget
        return min(burn_fast / self.fast_burn, burn_slow / self.slow_burn)


class HealthCount(Expr):
    """How many peers the liveness classifier puts in ``status`` now."""

    def __init__(self, status: str) -> None:
        self.status = status
        self.key = f"health_count({status})"

    def read(self, view: FleetView) -> float:
        if view.health is None:
            return 0.0
        return float(view.health.counts(view.now).get(self.status, 0))


# -- rules --------------------------------------------------------------------


@dataclass(frozen=True)
class AlertRule:
    """``expr op threshold`` sustained for ``for_duration`` seconds.

    ``clear_threshold`` is the hysteresis band: once firing, the alert
    resolves only when the value stops breaching *at the clear level*
    (for ``>`` that means value <= clear).  It defaults to the fire
    threshold — no band — and must sit on the non-breaching side.
    """

    name: str
    expr: Expr
    op: str = ">"
    threshold: float = 0.0
    for_duration: float = 0.0
    clear_threshold: float | None = None
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparator {self.op!r}")
        if self.for_duration < 0:
            raise ValueError("for_duration must be >= 0")
        clear = self.clear_threshold
        if clear is not None and self._breach_at(clear, self.threshold):
            raise ValueError(
                f"clear_threshold {clear} breaches {self.op} {self.threshold}; "
                "it must sit on the non-breaching side"
            )
        if isinstance(self.expr, BurnRate) and clear is not None and clear <= 0:
            raise ValueError(
                "a burn rate is never below 0, so a clear_threshold <= 0 "
                "never resolves"
            )

    def _breach_at(self, value: float, threshold: float) -> bool:
        return _OPS[self.op](value, threshold)

    def breaching(self, value: float) -> bool:
        """Does ``value`` violate the fire threshold?"""
        return self._breach_at(value, self.threshold)

    def cleared(self, value: float) -> bool:
        """Is ``value`` back on the safe side of the *clear* threshold?

        Evaluated as "not breaching, with the threshold swapped for the
        clear level" — for ``> 10`` with clear 4 this is ``value <= 4``.
        """
        clear = self.threshold if self.clear_threshold is None else self.clear_threshold
        return not self._breach_at(value, clear)


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition, stamped with simulated time."""

    time: float
    alertname: str
    state: str  # the state *entered*
    value: float
    severity: str
    description: str = ""

    to_dict = asdict


class _RuleState:
    """Mutable lifecycle bookkeeping for one rule."""

    __slots__ = ("rule", "state", "pending_since", "fired_at", "value")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.state = INACTIVE
        self.pending_since: float | None = None
        self.fired_at: float | None = None
        self.value = 0.0


class RuleEngine:
    """Evaluates every rule against the collector's state on a cadence.

    Owns one ring per windowed series and the sampler that feeds it,
    interned by series key (rules watching one series share its ring).
    :meth:`sample` and :meth:`evaluate` are eager, pure functions of
    ``(now, states)``: tests drive an engine standalone with hand-built
    states; the collector keeps the discipline its module docstring states.
    Each selection (a sampler's, an :class:`Instant` rule's) is kept per
    (index, :attr:`StateIndex.version`) in the engine, not in the shared
    expressions: until the index moves, a pass selects nothing again.
    """

    def __init__(
        self, rules: Sequence[AlertRule] = (), *, event_capacity: int = 1024
    ) -> None:
        names = [rule.name for rule in rules]
        dupes = {name for name in names if names.count(name) > 1}
        if dupes:
            raise ValueError(f"duplicate alert names: {sorted(dupes)}")
        self._rings: dict[str, SeriesRing] = {}
        self._samplers: dict["str | tuple[str, ...]", Callable] = {}
        self._states: dict[str, _RuleState] = {}
        for rule in rules:
            rule.expr.register(self)
            self._states[rule.name] = _RuleState(rule)
        self.events: deque[AlertEvent] = deque(maxlen=event_capacity)
        self.evaluations = 0
        #: Selections by sampler key or ``Instant`` rule, for ``_memo_of``'s (index, version).
        self._memo, self._memo_of = {}, (None, 0)

    # -- what expressions register ------------------------------------------

    def add_sampler(
        self,
        key: "str | tuple[str, ...]",
        read: "Callable[[FleetView], float | tuple[float, ...]]",
    ) -> None:
        """``read(view)`` feeds the ring named ``key``; with a tuple of
        keys it returns one value per key — one selection, several
        series."""
        if key in self._samplers:
            return
        self._samplers[key] = read
        for ring_key in key if isinstance(key, tuple) else (key,):
            self._rings[ring_key] = SeriesRing()

    # -- driving ------------------------------------------------------------

    def view(
        self,
        now: float,
        states: "StateIndex | Iterable[CollectedState]",
        *,
        health: "HealthMonitor | None" = None,
    ) -> FleetView:
        """What expressions read at ``now``: ``states`` indexed (as is if
        already a :class:`StateIndex`); the memo is dropped if it moved."""
        if not isinstance(states, StateIndex):
            states = StateIndex.of(states)
        if self._memo_of != (states, states.version):
            self._memo, self._memo_of = {}, (states, states.version)
        return FleetView(now, states, self._rings, health)

    def _selected(self, key, read: Callable, view: FleetView):
        """``read(view)``, kept under ``key`` until the index moves."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = read(view)
        return value

    def sample(
        self, now: float, states: "StateIndex | Iterable[CollectedState]"
    ) -> None:
        """Record one ring point per windowed series at ``now`` — the
        eager primitive; a same-instant call replaces the point."""
        view = self.view(now, states)
        rings = self._rings
        for key, read in self._samplers.items():
            value = self._selected(key, read, view)
            if isinstance(key, tuple):
                for ring_key, part in zip(key, value):
                    rings[ring_key].note(now, part)
            else:
                rings[key].note(now, value)

    def evaluate(
        self,
        now: float,
        states: "StateIndex | Iterable[CollectedState]",
        *,
        health: "HealthMonitor | None" = None,
    ) -> list[AlertEvent]:
        """One evaluation pass; returns the transitions it produced.

        Samples first (idempotent at equal simulated time — ring points
        coalesce), so standalone callers need no separate fold hook.
        """
        view = self.view(now, states, health=health)
        self.sample(now, view.states)
        transitions: list[AlertEvent] = []
        for state in self._states.values():
            event = self._step(state, now, view)
            if event is not None:
                transitions.append(event)
                self.events.append(event)
        self.evaluations += 1
        return transitions

    def _step(self, s: _RuleState, now: float, view: FleetView) -> AlertEvent | None:
        rule, expr = s.rule, s.rule.expr
        if isinstance(expr, Instant):
            value = self._selected(expr, expr.read, view)  # not by key: defaults differ
        else:
            value = expr.read(view)
        s.value = value
        if s.state == FIRING:
            # Hysteresis: only a value past the *clear* threshold resolves.
            if rule.cleared(value):
                s.state = RESOLVED
                s.pending_since = None
                return self._event(now, rule, RESOLVED, value)
            return None
        breaching = rule.breaching(value)
        if s.state == PENDING:
            if not breaching:
                s.state = RESOLVED if s.fired_at is not None else INACTIVE
                s.pending_since = None
                return None
            if now - s.pending_since >= rule.for_duration:
                s.state = FIRING
                s.fired_at = now
                return self._event(now, rule, FIRING, value)
            return None
        # INACTIVE or RESOLVED.
        if breaching:
            s.pending_since = now
            if rule.for_duration <= 0:
                s.state = FIRING
                s.fired_at = now
                return self._event(now, rule, FIRING, value)
            s.state = PENDING
            return self._event(now, rule, PENDING, value)
        return None

    @staticmethod
    def _event(now: float, rule: AlertRule, state: str, value: float) -> AlertEvent:
        return AlertEvent(
            time=now,
            alertname=rule.name,
            state=state,
            value=value,
            severity=rule.severity,
            description=rule.description,
        )

    # -- inspection ---------------------------------------------------------

    def state(self, name: str) -> str:
        return self._states[name].state

    def value(self, name: str) -> float:
        return self._states[name].value

    def firing(self) -> list[str]:
        return sorted(
            name for name, s in self._states.items() if s.state == FIRING
        )

    def event_log(self) -> list[dict]:
        return [event.to_dict() for event in self.events]

    def alerts_entries(self) -> dict[str, dict]:
        """``ALERTS{alertname,severity,alertstate}`` gauge entries, in the
        collected shape, for every pending/firing rule — injected into
        the fleet Prometheus exposition by the collector."""
        out: dict[str, dict] = {}
        for name, s in sorted(self._states.items()):
            if s.state not in (PENDING, FIRING):
                continue
            labels = {
                "alertname": name,
                "severity": s.rule.severity,
                "alertstate": s.state,
            }
            key = metric_key("ALERTS", labels)
            out[key] = {"name": "ALERTS", "kind": "gauge", "labels": labels, "value": 1}
        return out


# -- the built-in RLN rule pack ----------------------------------------------


def default_rule_pack(*, evaluation_interval: float = 0.5) -> list[AlertRule]:
    """The rules an RLN fleet ships with, scaled to the evaluation cadence.

    Thresholds are in the rules; what they are for: verify-stage rejects
    (invalid proofs *and* convicted spam) flooding the fleet; a peer the
    liveness classifier declares silent; light members' witness cache
    degrading (no light members reads 1.0, so it never breaches); an
    executor queue saturating; telemetry batches lost anywhere (exporter
    drop-oldest or collector-seen seq gaps); and network-wide exclusion
    traces missing the 25 s objective (E15's end-to-end figure is ~23 s)
    more often than a 10 % budget tolerates, on fast/slow burn windows.
    """
    interval = evaluation_interval
    return [
        AlertRule(
            name="rln-spam-flood",
            expr=Rate(
                Instant("pipeline_drops_total", stage="verify"),
                window=5 * interval,
            ),
            op=">",
            threshold=1.0,
            for_duration=2 * interval,
            clear_threshold=0.5,
            severity="critical",
            description="fleet-wide invalid-proof/spam rejection rate",
        ),
        AlertRule(
            name="rln-peer-silent",
            expr=HealthCount("silent"),
            op=">=",
            threshold=1.0,
            for_duration=0.0,
            clear_threshold=0.0,
            severity="critical",
            description="a peer stopped exporting telemetry",
        ),
        AlertRule(
            name="rln-witness-hit-ratio",
            expr=Instant("witness_cache_hit_ratio", agg="avg", default=1.0),
            op="<",
            threshold=0.5,
            for_duration=5 * interval,
            clear_threshold=0.75,
            severity="warning",
            description="light-member witness cache degradation",
        ),
        AlertRule(
            name="rln-executor-saturation",
            expr=Instant("executor_queue_depth", agg="max"),
            op=">",
            threshold=16.0,
            for_duration=2 * interval,
            clear_threshold=4.0,
            severity="warning",
            description="crypto executor queue saturation",
        ),
        AlertRule(
            name="rln-exporter-loss",
            expr=Rate(
                Instant(
                    "telemetry_dropped_batches_total", "collector_lost_batches_total"
                ),
                window=5 * interval,
            ),
            op=">",
            threshold=0.0,
            for_duration=0.0,
            severity="warning",
            description="telemetry export batches being lost",
        ),
        AlertRule(
            name="rln-revocation-lag",
            expr=BurnRate(
                "trace_total_seconds",
                25.0,
                budget=0.1,
                fast_window=10 * interval,
                slow_window=60 * interval,
                fast_burn=6.0,
                slow_burn=3.0,
                kind="revocation-network",
            ),
            op=">=",
            threshold=1.0,
            clear_threshold=0.9,
            severity="critical",
            description="spam-detection to network-wide exclusion latency",
        ),
    ]
