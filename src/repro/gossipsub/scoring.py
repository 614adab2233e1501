"""GossipSub v1.1 peer scoring — the baseline defence the paper critiques.

Reference [2]: each peer maintains a local score for every neighbor,
combining positive counters (time in mesh, first message deliveries) and
negative ones (invalid messages).  Scores gate mesh membership and, below
the graylist threshold, cause the peer to be ignored entirely.

§I of the paper points out two weaknesses this reproduction's experiments
demonstrate:

* **censorship-prone** — scoring is *local opinion*; a peer whose messages
  a neighbor dislikes gets pruned with no global evidence standard;
* **cheap to defeat** — scores attach to peer identities, which cost
  nothing to mint, so a spammer with many bot identities keeps sending
  through fresh, unscored connections (experiment E8's bot-army arm).

The implementation follows the v1.1 scoring function's structure (weighted
topic counters with exponential decay plus a global invalid-message
penalty), simplified to the counters that matter for spam behaviour: P1
(time in mesh), P2 (first deliveries), P4 (invalid messages), and the
behavioural penalty.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScoreParams:
    """Weights and thresholds of the scoring function."""

    # P1: time in mesh (capped).
    time_in_mesh_weight: float = 0.01
    time_in_mesh_cap: float = 3600.0
    # P2: first message deliveries (capped, decaying).
    first_delivery_weight: float = 1.0
    first_delivery_cap: float = 100.0
    # P4: invalid messages (negative, squared like v1.1's P4).
    invalid_message_weight: float = -10.0
    # Behavioural penalty (GRAFT flood, IWANT abuse...).
    behaviour_penalty_weight: float = -5.0
    # Exponential decay applied per heartbeat to the decaying counters.
    decay: float = 0.95
    # Thresholds (v1.1 semantics).
    gossip_threshold: float = -10.0  # below: no gossip exchanged
    publish_threshold: float = -50.0  # below: no self-published messages sent
    graylist_threshold: float = -80.0  # below: all RPCs ignored
    # Score required to be grafted into a mesh.
    accept_px_threshold: float = 0.0


@dataclass
class _PeerCounters:
    time_in_mesh: float = 0.0
    first_deliveries: float = 0.0
    invalid_messages: float = 0.0
    behaviour_penalty: float = 0.0
    in_mesh_since: float | None = None


class PeerScoreKeeper:
    """One router's score table over its neighbors."""

    def __init__(self, params: ScoreParams | None = None) -> None:
        self.params = params or ScoreParams()
        self._counters: dict[str, _PeerCounters] = {}

    def _peer(self, peer: str) -> _PeerCounters:
        return self._counters.setdefault(peer, _PeerCounters())

    # -- event hooks -----------------------------------------------------------

    def on_join_mesh(self, peer: str, now: float) -> None:
        self._peer(peer).in_mesh_since = now

    def on_leave_mesh(self, peer: str, now: float) -> None:
        counters = self._peer(peer)
        if counters.in_mesh_since is not None:
            counters.time_in_mesh += now - counters.in_mesh_since
            counters.in_mesh_since = None

    def on_first_delivery(self, peer: str) -> None:
        counters = self._peer(peer)
        counters.first_deliveries = min(
            counters.first_deliveries + 1.0, self.params.first_delivery_cap
        )

    def on_invalid_message(self, peer: str) -> None:
        self._peer(peer).invalid_messages += 1.0

    def on_behaviour_penalty(self, peer: str) -> None:
        self._peer(peer).behaviour_penalty += 1.0

    def decay_scores(self) -> None:
        """Called each heartbeat; decaying counters shrink geometrically."""
        for counters in self._counters.values():
            counters.first_deliveries *= self.params.decay
            counters.invalid_messages *= self.params.decay
            counters.behaviour_penalty *= self.params.decay

    # -- the score function -------------------------------------------------------

    def score(self, peer: str, now: float) -> float:
        counters = self._counters.get(peer)
        if counters is None:
            return 0.0
        params = self.params
        time_in_mesh = counters.time_in_mesh
        if counters.in_mesh_since is not None:
            time_in_mesh += now - counters.in_mesh_since
        return (
            params.time_in_mesh_weight * min(time_in_mesh, params.time_in_mesh_cap)
            + params.first_delivery_weight * counters.first_deliveries
            + params.invalid_message_weight * counters.invalid_messages**2
            + params.behaviour_penalty_weight * counters.behaviour_penalty**2
        )

    # -- threshold predicates ---------------------------------------------------------

    def accepts_gossip(self, peer: str, now: float) -> bool:
        return self.score(peer, now) > self.params.gossip_threshold

    def accepts_publish(self, peer: str, now: float) -> bool:
        return self.score(peer, now) > self.params.publish_threshold

    def graylisted(self, peer: str, now: float) -> bool:
        return self.score(peer, now) <= self.params.graylist_threshold

    def mesh_eligible(self, peer: str, now: float) -> bool:
        return self.score(peer, now) >= self.params.accept_px_threshold
