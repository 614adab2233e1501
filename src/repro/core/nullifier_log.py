"""The nullifier map each routing peer keeps (§III-F).

"each routing peer keeps a local record of the identity key share (x, y)
and the internal nullifier phi of all of its valid incoming message bundles
for the past Thr epochs" — this structure is that record.

Lookups answer the routing decision of §III-F:

* no earlier entry with this nullifier    -> fresh, relay it;
* earlier entry with the *same* share     -> duplicate, drop silently;
* earlier entry with a *different* share  -> spam, slash the publisher.

Entries older than the accepted epoch window are pruned: messages for
those epochs are dropped by the gap check before ever reaching the map, so
retaining them would be pure overhead (the paper makes exactly this
argument for why the map "does not have to capture the entire history").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from repro.crypto.field import FieldElement
from repro.crypto.shamir import Share


class NullifierOutcome(Enum):
    """Classification of a bundle against the nullifier map (§III-F)."""

    FRESH = "fresh"
    DUPLICATE = "duplicate"
    SPAM = "spam"


class NullifierRecord(NamedTuple):
    """One remembered message bundle (a tuple: one is built per receipt)."""

    share: Share
    epoch: int
    msg_id: bytes

    def byte_size(self) -> int:
        """Approximate retained bytes: the share's two field elements,
        the epoch, and the message id (the map key — the internal
        nullifier — is billed by the log)."""
        return 2 * 32 + 8 + len(self.msg_id)


@dataclass(frozen=True)
class SpamEvidence:
    """Two distinct shares under one nullifier — enough to recover sk."""

    internal_nullifier: FieldElement
    epoch: int
    share_a: Share
    share_b: Share


class NullifierLog:
    """Per-epoch index of internal nullifiers to shares.

    Keeps ``peak_entries``, the high-water mark of live entries: the
    §III-F "does not have to capture the entire history" claim made
    measurable (E15's memory table).
    """

    def __init__(self) -> None:
        self._by_epoch: dict[int, dict[int, NullifierRecord]] = {}
        #: Oldest epoch held (``None`` if empty): most prunes are one compare.
        self._oldest: int | None = None
        self._entries = 0
        self.peak_entries = 0

    def observe(
        self,
        epoch: int,
        internal_nullifier: FieldElement,
        share: Share,
        msg_id: bytes,
    ) -> tuple[NullifierOutcome, SpamEvidence | None]:
        """Record a bundle and classify it against the §III-F rules."""
        epoch_map = self._by_epoch.setdefault(epoch, {})
        if self._oldest is None or epoch < self._oldest:
            self._oldest = epoch
        key = internal_nullifier.value
        existing = epoch_map.get(key)
        if existing is None:
            epoch_map[key] = NullifierRecord(share, epoch, msg_id)
            self._entries += 1
            if self._entries > self.peak_entries:
                self.peak_entries = self._entries
            return NullifierOutcome.FRESH, None
        if existing.share == share:
            return NullifierOutcome.DUPLICATE, None
        evidence = SpamEvidence(
            internal_nullifier=internal_nullifier,
            epoch=epoch,
            share_a=existing.share,
            share_b=share,
        )
        return NullifierOutcome.SPAM, evidence

    def prune_before(self, oldest_kept_epoch: int) -> int:
        """Drop all epochs older than ``oldest_kept_epoch``; returns count."""
        if self._oldest is None or self._oldest >= oldest_kept_epoch:
            return 0
        stale = [e for e in self._by_epoch if e < oldest_kept_epoch]
        removed = 0
        for epoch in stale:
            removed += len(self._by_epoch.pop(epoch))
        self._oldest = min(self._by_epoch, default=None)
        self._entries -= removed
        return removed

    def storage_bytes(self) -> int:
        """Approximate retained map memory: every record plus its
        32-byte nullifier key (the §III-F memory figure at scale)."""
        return sum(
            32 + record.byte_size()
            for epoch_map in self._by_epoch.values()
            for record in epoch_map.values()
        )
