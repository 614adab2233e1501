"""Per-peer liveness from the collector's own export bookkeeping.

The push pipeline already gives the collector most of what a
liveness system needs: every folded batch carries the peer's id, a
monotone ``seq`` (so gaps mean upstream loss), and the exporter's
self-reported cumulative drop count — and the fold itself happens at a
known simulated instant.  Between batches, an idle exporter with
``heartbeat`` on sends a one-way :class:`~repro.telemetry.otlp.Heartbeat`
(its id alone, never acked).  :class:`HealthMonitor` turns when each
peer was last heard from into a classification:

* ``healthy`` — heard from within ``stale_after`` seconds;
* ``stale`` — quiet for ``stale_after`` but not yet ``silent_after``;
* ``silent`` — quiet past ``silent_after`` (crashed, stopped, or
  partitioned: :meth:`Peer.stop` closing the exporter looks exactly
  like this);
* ``flapping`` — oscillating between quiet and live: at least
  ``flap_threshold`` status transitions inside ``flap_window``.
  Flapping overrides ``healthy``/``stale`` (a peer that *just* came
  back but has been bouncing is not healthy) but never ``silent``.

Classification is a pure function of (fold and heartbeat history,
``now``) on the simulated clock, independent of the order same-instant
frames arrived in.  :meth:`report` is the operator view: per-peer rows
plus a fleet score in [0, 1].  :meth:`counts` — what an alert pass reads
— keeps its answer until :attr:`HealthMonitor.version` moves (a peer
added, a transition recorded by any caller) or ``now`` reaches a
deadline: the oldest healthy fold ``+ stale_after``, stale fold ``+
silent_after`` or in-window transition ``+ flap_window``.  Before then no
``classify`` would record or change anything, so the answer is exact; a
healthy peer's heartbeat moves nothing.  (A peer is never observed
before its last fold.)
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass

HEALTHY = "healthy"
STALE = "stale"
SILENT = "silent"
FLAPPING = "flapping"

#: Score contribution per status; the fleet score is the mean.
_SCORES = {HEALTHY: 1.0, STALE: 0.5, FLAPPING: 0.5, SILENT: 0.0}


@dataclass(frozen=True)
class PeerLiveness:
    """One peer's row in the fleet health report."""

    peer: str
    status: str
    last_fold: float
    #: Seconds of simulated time since the peer was last heard from.
    age: float
    #: Frames heard: folded batches and heartbeats.
    batches: int
    #: Status transitions observed inside the flap window.
    recent_transitions: int
    #: Upstream loss signals: collector-observed seq gaps and the
    #: exporter's self-reported drop-oldest count.
    lost_batches: int
    reported_drops: int

    to_dict = asdict


class _PeerState:
    __slots__ = (
        "last_fold", "batches", "lost_batches", "reported_drops", "base_status", "transitions",
    )

    def __init__(self, now: float, transition_capacity: int) -> None:
        self.last_fold = now
        self.batches = 0
        self.lost_batches = 0
        self.reported_drops = 0
        self.base_status = HEALTHY
        #: Simulated times of base-status transitions (bounded ring).
        self.transitions: deque[float] = deque(maxlen=transition_capacity)


class HealthMonitor:
    """Classify every exporting peer from fold metadata alone."""

    def __init__(
        self,
        *,
        interval: float = 1.0,
        stale_after: float | None = None,
        silent_after: float | None = None,
        flap_threshold: int = 4,
        flap_window: float | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.stale_after = 3 * interval if stale_after is None else stale_after
        self.silent_after = 10 * interval if silent_after is None else silent_after
        if not 0 < self.stale_after < self.silent_after:
            raise ValueError("need 0 < stale_after < silent_after")
        if flap_threshold < 2:
            raise ValueError("flap_threshold must be >= 2")
        self.flap_threshold = flap_threshold
        self.flap_window = 60 * interval if flap_window is None else flap_window
        self._peers: dict[str, _PeerState] = {}
        #: Moves when a peer is added or a transition is recorded.
        self.version = 0
        #: :meth:`counts`' ``(version, now, answer)``; oldest healthy fold,
        #: stale fold and in-window transition then.
        self._kept: tuple[int, float, dict[str, int]] | None = None
        self._anchors = (math.inf, math.inf, math.inf)

    # -- feeding ------------------------------------------------------------

    def observe(
        self,
        peer: str,
        now: float,
        *,
        lost_batches: int = 0,
        reported_drops: int = 0,
    ) -> None:
        """One folded batch (or heartbeat) from ``peer`` at simulated time ``now``.

        A return from quiet (the peer had already aged into
        stale/silent) is a status transition and feeds flap detection.
        """
        state = self._peers.get(peer)
        if state is None:
            state = self._peers[peer] = _PeerState(now, 4 * self.flap_threshold)
            self.version += 1
        else:
            # Age the base status *before* this fold so going quiet and
            # coming back counts as two transitions, not zero.
            self._age(state, now)
            if state.base_status != HEALTHY:
                state.base_status = HEALTHY
                state.transitions.append(now)
                self.version += 1
        state.last_fold = now
        state.batches += 1
        state.lost_batches += lost_batches
        state.reported_drops = reported_drops

    def _age(self, state: _PeerState, now: float) -> None:
        """Advance the stored base status to match the fold age."""
        age = now - state.last_fold
        if age >= self.silent_after:
            aged = SILENT
        elif age >= self.stale_after:
            aged = STALE
        else:
            aged = HEALTHY
        if aged != state.base_status:
            state.base_status = aged
            state.transitions.append(now)
            self.version += 1

    # -- classification -----------------------------------------------------

    def _recent_transitions(self, state: _PeerState, now: float) -> int:
        cutoff = now - self.flap_window
        return sum(1 for t in state.transitions if t >= cutoff)

    def classify(self, peer: str, now: float) -> str:
        state = self._peers[peer]
        self._age(state, now)
        if state.base_status == SILENT:
            return SILENT
        if self._recent_transitions(state, now) >= self.flap_threshold:
            return FLAPPING
        return state.base_status

    def peers(self) -> list[str]:
        return sorted(self._peers)

    def liveness(self, peer: str, now: float) -> PeerLiveness:
        status = self.classify(peer, now)
        state = self._peers[peer]
        return PeerLiveness(
            peer=peer,
            status=status,
            last_fold=state.last_fold,
            age=now - state.last_fold,
            batches=state.batches,
            recent_transitions=self._recent_transitions(state, now),
            lost_batches=state.lost_batches,
            reported_drops=state.reported_drops,
        )

    def counts(self, now: float) -> dict[str, int]:
        """``{status: peer count}`` over every known peer, kept until the
        version moves or a deadline is due (module docstring)."""
        if not self._holds(now):
            out: dict[str, int] = {}
            for peer in self._peers:
                status = self.classify(peer, now)
                out[status] = out.get(status, 0) + 1
            self._kept = (self.version, now, out)
            cutoff = now - self.flap_window
            transitions = (t for s in self._peers.values() for t in s.transitions if t >= cutoff)
            oldest = min(transitions, default=math.inf)
            self._anchors = (self._oldest_fold(HEALTHY), self._oldest_fold(STALE), oldest)
        return dict(self._kept[2])

    def _oldest_fold(self, status: str) -> float:
        folds = (s.last_fold for s in self._peers.values() if s.base_status == status)
        return min(folds, default=math.inf)

    def _holds(self, now: float) -> bool:
        """Is every deadline still ahead?  Tested with ``classify``'s own
        float expressions; a heartbeat moves a healthy fold unannounced, so
        a due healthy deadline is looked up again first."""
        if self._kept is None or self._kept[0] != self.version or now < self._kept[1]:
            return False
        healthy, stale, transition = self._anchors
        if now - healthy >= self.stale_after:
            healthy = self._oldest_fold(HEALTHY)
            self._anchors = (healthy, stale, transition)
        return (now - healthy < self.stale_after and now - stale < self.silent_after
                and transition >= now - self.flap_window)

    def score(self, now: float) -> float:
        """Fleet liveness in [0, 1]; 1.0 when no peer has exported yet."""
        counts = self.counts(now).items()
        return sum(_SCORES[s] * n for s, n in counts) / len(self._peers) if self._peers else 1.0

    def report(self, now: float) -> dict:
        """The operator view: score, status counts, per-peer rows."""
        rows = [self.liveness(peer, now) for peer in self.peers()]
        return {
            "time": now,
            "score": self.score(now),
            "counts": self.counts(now),
            "peers": [row.to_dict() for row in rows],
        }
