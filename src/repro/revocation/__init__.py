"""Distributed revocation: slashing evidence to network-wide removal.

The end-to-end §III-F story, assembled: a routing peer's nullifier map
yields :class:`~repro.core.nullifier_log.SpamEvidence`; every observing
peer's :class:`~repro.revocation.coordinator.SlashingCoordinator`
recovers the secret and races commit-reveal against the contract; the
winner's reveal deletes the leaf and the contract emits one unified
``MemberRemoved`` event for slash and withdraw alike; group managers on
either tree backend zero the leaf and announce the block as a
:class:`~repro.treesync.messages.ShardUpdate` whose zero write (and whose
digest's removal flag) shard-scoped and light views fold in O(1) — collapsing their accepted-root windows so the
removed member's stale witnesses stop validating immediately — while
witness clients drop the dead slot and background-refresh the rest.
:class:`~repro.revocation.tracker.RevocationTracker` stamps the whole
timeline; experiment E15 reports it at 10k/100k/1M members.
"""

from repro.revocation.coordinator import (
    CoordinatorStats,
    RevocationCase,
    SlashingCoordinator,
)
from repro.revocation.tracker import RevocationTracker

__all__ = [
    "CoordinatorStats",
    "RevocationCase",
    "RevocationTracker",
    "SlashingCoordinator",
]
