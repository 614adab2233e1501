"""Deterministic alerting on the simulated clock: rules, SLOs, lifecycle.

The collector reconstructs the fleet's registries exactly; this module
turns that state into decisions.  Two rule shapes:

* :class:`AlertRule` — a threshold on any query expression
  (:mod:`repro.telemetry.query`), with a ``for_duration`` dwell before
  firing and a separate **clear threshold** for hysteresis, so a value
  oscillating around the fire threshold cannot flap fire↔resolve;
* :class:`SLO` — multi-window multi-burn-rate budget alerting (the SRE
  workbook shape): the fraction of observations blowing an objective is
  read over a *fast* and a *slow* window, and the rule fires only when
  **both** windows burn the error budget faster than their factors — a
  short spike trips neither, a sustained regression trips both quickly.
  An SLO compiles down to an :class:`AlertRule` over a scalarized
  expression, so one lifecycle/state machine serves both.

The engine (:class:`RuleEngine`) is evaluated by the collector on a
fixed ``evaluation_interval`` of simulated time.  Everything is
deterministic: no wall clock, no RNG, state transitions recorded in a
bounded :class:`AlertEvent` log with exact simulated timestamps, and an
``ALERTS{alertname,severity,alertstate}`` gauge rendered into the fleet
Prometheus exposition so alert state is itself scrapeable telemetry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.telemetry.query import (
    BadFraction,
    CollectedState,
    Combined,
    Expr,
    FleetQuerier,
    FleetView,
    HealthCount,
    Instant,
    Rate,
)
from repro.telemetry.registry import metric_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.health import HealthMonitor

#: Lifecycle states (Prometheus vocabulary plus an explicit inactive).
INACTIVE = "inactive"
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"

_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


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
    labels: Mapping[str, str] = field(default_factory=dict)

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
class SLO:
    """A multi-window burn-rate objective over one latency histogram.

    ``objective``: the latency bound (seconds) an observation must meet;
    ``budget``: the tolerated fraction of observations missing it.  The
    burn rate of a window is ``bad_fraction / budget`` — 1.0 means the
    budget is being spent exactly as provisioned.  Fire when the fast
    window burns >= ``fast_burn`` AND the slow window burns >=
    ``slow_burn``; the scalarized expression is
    ``min(fast/fast_burn, slow/slow_burn)`` against threshold 1.0, and
    hysteresis clears at ``clear_ratio``.
    """

    name: str
    metric: str
    objective: float
    budget: float = 0.1
    fast_window: float = 5.0
    slow_window: float = 30.0
    fast_burn: float = 6.0
    slow_burn: float = 3.0
    clear_ratio: float = 0.9
    severity: str = "critical"
    description: str = ""
    matchers: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if self.fast_window >= self.slow_window:
            raise ValueError("fast_window must be shorter than slow_window")
        if not 0.0 < self.clear_ratio <= 1.0:
            raise ValueError("clear_ratio must be in (0, 1]")

    def compile(self) -> AlertRule:
        expr = _BurnRate(self)
        return AlertRule(
            name=self.name,
            expr=expr,
            op=">=",
            threshold=1.0,
            for_duration=0.0,  # the slow window *is* the dwell
            clear_threshold=self.clear_ratio,
            severity=self.severity,
            description=self.description
            or (
                f"{self.metric} > {self.objective:g}s burning the "
                f"{self.budget:.0%} budget at >= {self.fast_burn:g}x (fast) "
                f"and {self.slow_burn:g}x (slow)"
            ),
            labels={"slo": self.name},
        )


class _BurnRate(Expr):
    """``min(burn_fast/fast_burn, burn_slow/slow_burn)`` for one SLO."""

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        self.fast = BadFraction(
            slo.metric, slo.objective, slo.fast_window, **dict(slo.matchers)
        )
        self.slow = BadFraction(
            slo.metric, slo.objective, slo.slow_window, **dict(slo.matchers)
        )
        self.key = f"burn({slo.name})"

    def register(self, querier: FleetQuerier) -> None:
        self.fast.register(querier)
        self.slow.register(querier)

    def instant(self, view: FleetView) -> float:
        burn_fast = self.fast.instant(view) / self.slo.budget
        burn_slow = self.slow.instant(view) / self.slo.budget
        return min(
            burn_fast / self.slo.fast_burn, burn_slow / self.slo.slow_burn
        )


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition, stamped with simulated time."""

    time: float
    alertname: str
    state: str  # the state *entered*
    value: float
    severity: str
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "alertname": self.alertname,
            "state": self.state,
            "value": self.value,
            "severity": self.severity,
            "description": self.description,
        }


class _RuleState:
    """Mutable lifecycle bookkeeping for one rule."""

    __slots__ = ("rule", "state", "pending_since", "fired_at", "resolved_at", "value")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.state = INACTIVE
        self.pending_since: float | None = None
        self.fired_at: float | None = None
        self.resolved_at: float | None = None
        self.value = 0.0


class RuleEngine:
    """Evaluates every rule against the collector's state on a cadence.

    Driven by the owner with :meth:`sample` and :meth:`evaluate`; both
    are eager, pure functions of ``(now, states)``, so unit tests drive
    the engine standalone with hand-built state mappings, sampling as
    often as they like (points at one instant coalesce).  The
    :class:`~repro.telemetry.collector.CollectorPeer` samples once per
    simulated instant that folded something, when that instant is over
    (its module docstring states the discipline), and evaluates every
    ``evaluation_interval`` of simulated time.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule] = (),
        slos: Sequence[SLO] = (),
        *,
        event_capacity: int = 1024,
        ring_capacity: int = 512,
    ) -> None:
        compiled = list(rules) + [slo.compile() for slo in slos]
        names = [rule.name for rule in compiled]
        dupes = {name for name in names if names.count(name) > 1}
        if dupes:
            raise ValueError(f"duplicate alert names: {sorted(dupes)}")
        self.querier = FleetQuerier(ring_capacity=ring_capacity)
        self._states: dict[str, _RuleState] = {}
        for rule in compiled:
            self.querier.register(rule.expr)
            self._states[rule.name] = _RuleState(rule)
        self.events: deque[AlertEvent] = deque(maxlen=event_capacity)
        self.evaluations = 0

    # -- driving ------------------------------------------------------------

    def sample(
        self, now: float, states: "CollectedState | Iterable[CollectedState]"
    ) -> None:
        """Record one ring point per windowed series at ``now`` — the
        eager primitive; a same-instant call replaces the point."""
        self.querier.sample(now, states)

    def evaluate(
        self,
        now: float,
        states: "CollectedState | Iterable[CollectedState]",
        *,
        health: "HealthMonitor | None" = None,
    ) -> list[AlertEvent]:
        """One evaluation pass; returns the transitions it produced.

        Samples first (idempotent at equal simulated time — ring points
        coalesce), so standalone callers need no separate fold hook.
        """
        states = self.querier.grouped(states)
        self.querier.sample(now, states)
        view = self.querier.view(now, states, health=health)
        transitions: list[AlertEvent] = []
        for state in self._states.values():
            event = self._step(state, now, view)
            if event is not None:
                transitions.append(event)
                self.events.append(event)
        self.evaluations += 1
        return transitions

    def _step(self, s: _RuleState, now: float, view: FleetView) -> AlertEvent | None:
        rule = s.rule
        value = rule.expr.instant(view)
        s.value = value
        if s.state == FIRING:
            # Hysteresis: only a value past the *clear* threshold resolves.
            if rule.cleared(value):
                s.state = RESOLVED
                s.resolved_at = now
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


def default_rule_pack(
    *,
    evaluation_interval: float = 0.5,
    spam_rate_threshold: float = 1.0,
    queue_depth_threshold: float = 16.0,
    hit_ratio_floor: float = 0.5,
    revocation_objective: float = 25.0,
    revocation_budget: float = 0.1,
) -> tuple[list[AlertRule], list[SLO]]:
    """The rules an RLN fleet ships with, scaled to the evaluation cadence.

    * **rln-spam-flood** — fleet-wide rate of bundles rejected at the
      verify stage (invalid proofs *and* convicted spam) exceeds
      ``spam_rate_threshold``/s, sustained for two intervals;
    * **rln-peer-silent** — the liveness classifier declares any peer
      silent (no folds for ~10 intervals);
    * **rln-witness-hit-ratio** — fleet average witness-cache hit ratio
      degrades below ``hit_ratio_floor`` (defaults to 1.0 when no light
      members exist, so witness-less fleets never breach); clears only
      on recovery past 0.75;
    * **rln-executor-saturation** — any executor's queue depth exceeds
      ``queue_depth_threshold``, sustained; clears below 1/4 of it;
    * **rln-exporter-loss** — telemetry batches are being lost anywhere
      (exporter drop-oldest or collector-observed seq gaps);
    * **rln-revocation-lag** (SLO) — network-wide exclusion traces blow
      the ``revocation_objective`` (the E15 end-to-end figure is ~23 s)
      more often than the error budget tolerates, on fast/slow burn
      windows.
    """
    interval = evaluation_interval
    rules = [
        AlertRule(
            name="rln-spam-flood",
            expr=Rate(
                Instant("pipeline_drops_total", stage="verify"),
                window=5 * interval,
            ),
            op=">",
            threshold=spam_rate_threshold,
            for_duration=2 * interval,
            clear_threshold=spam_rate_threshold / 2,
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
            threshold=hit_ratio_floor,
            for_duration=5 * interval,
            clear_threshold=0.75,
            severity="warning",
            description="light-member witness cache degradation",
        ),
        AlertRule(
            name="rln-executor-saturation",
            expr=Instant("executor_queue_depth", agg="max"),
            op=">",
            threshold=queue_depth_threshold,
            for_duration=2 * interval,
            clear_threshold=queue_depth_threshold / 4,
            severity="warning",
            description="crypto executor queue saturation",
        ),
        AlertRule(
            name="rln-exporter-loss",
            expr=Rate(
                Combined(
                    [
                        Instant("telemetry_dropped_batches_total"),
                        Instant("collector_lost_batches_total"),
                    ]
                ),
                window=5 * interval,
            ),
            op=">",
            threshold=0.0,
            for_duration=0.0,
            severity="warning",
            description="telemetry export batches being lost",
        ),
    ]
    slos = [
        SLO(
            name="rln-revocation-lag",
            metric="trace_total_seconds",
            objective=revocation_objective,
            budget=revocation_budget,
            fast_window=10 * interval,
            slow_window=60 * interval,
            fast_burn=6.0,
            slow_burn=3.0,
            severity="critical",
            description="spam-detection to network-wide exclusion latency",
            matchers={"kind": "revocation-network"},
        ),
    ]
    return rules, slos
