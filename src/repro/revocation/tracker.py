"""Measuring spam-to-network-wide-revocation latency.

Revocation is only done when *every* peer class rejects the removed
member: full-tree managers, shard-scoped and light
:class:`~repro.treesync.sync.ShardSyncManager` views, witness caches.
Each learns at a different moment (chain event subscription vs. the
gossiped :class:`~repro.treesync.messages.ShardUpdate` or its digest's
removal flag vs. background refresh), so the network-wide figure is a
*max* over heterogeneous consumers — exactly what experiment E15 reports.

:class:`RevocationTracker` stamps the three stages:

* ``spam_detected_at`` — the first routing peer classified the double
  signal (wire :meth:`spam_detected` to every peer's ``on_spam``);
* ``removed_on_chain_at`` — the unified ``MemberRemoved`` event mined
  (wire :meth:`removed_on_chain` to a coordinator's ``on_removed``);
* per-view exclusion — the moment a view's accepted-root window stops
  accepting the root the spammer's stale witness folds to.  Views have
  no push channel for "I changed my mind about a root", so the tracker
  polls on the event simulator; consulting ``is_acceptable_root`` is
  precisely what a validator does per bundle, so the poll *is* the
  measurement, quantised to ``poll_interval``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.crypto.field import FieldElement
from repro.net.simulator import Simulator
from repro.telemetry import resolve as resolve_telemetry
from repro.telemetry.tracing import MEMBER_REMOVED, WINDOW_COLLAPSE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.validator import RootAcceptor
    from repro.revocation.coordinator import RevocationCase


class RevocationTracker:
    """One experiment's clock for the detection → exclusion pipeline."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        poll_interval: float = 0.05,
        telemetry=None,
        name: str = "revocation-tracker",
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.simulator = simulator
        self.poll_interval = poll_interval
        self.telemetry = resolve_telemetry(telemetry)
        self._tracer = self.telemetry.disttracer(name, clock=lambda: simulator.now)
        #: The one span of the timeline this tracker clocks: evidence →
        #: member-removed → window-collapse.
        self._span = None
        self.spam_detected_at: float | None = None
        self.removed_on_chain_at: float | None = None
        #: View name -> simulated time its window stopped accepting the
        #: stale (spammer-bearing) root.
        self.exclusions: dict[str, float] = {}
        self._watching: dict[str, Callable[[], None]] = {}

    # -- stage stamps ----------------------------------------------------------

    def spam_detected(self, _evidence: object = None) -> None:
        """First detection wins: wire to every routing peer's ``on_spam``."""
        if self.spam_detected_at is None:
            self.spam_detected_at = self.simulator.now
            self._span = self._tracer.begin("revocation-network")

    def removed_on_chain(self, _case: "RevocationCase | None" = None) -> None:
        """Wire to a :class:`SlashingCoordinator`'s ``on_removed``."""
        if self.removed_on_chain_at is None:
            self.removed_on_chain_at = self.simulator.now
            if self._span is not None:
                self._span.mark(MEMBER_REMOVED)

    # -- per-view exclusion ------------------------------------------------------

    def watch_exclusion(
        self, name: str, acceptor: "RootAcceptor", stale_root: FieldElement
    ) -> None:
        """Poll ``acceptor`` until it rejects ``stale_root``; stamp the time.

        ``stale_root`` is the root the spammer's last witness folds to —
        the newest root that still contains its leaf.  While any view
        accepts it, the spammer can replay that witness there.
        """
        if name in self.exclusions or name in self._watching:
            return

        def check() -> bool:
            if acceptor.is_acceptable_root(stale_root):
                return False
            self.exclusions[name] = self.simulator.now
            cancel = self._watching.pop(name, None)
            if cancel is not None:
                cancel()
            self._maybe_finish_trace()
            return True

        if not check():  # else already excluded (the watch began after removal)
            self._watching[name] = self.simulator.every(self.poll_interval, check)

    def _maybe_finish_trace(self) -> None:
        """Close the revocation span once the *last* watched view folds.

        The window-collapse stage then measures on-chain removal to
        network-wide exclusion — the tracker's ``propagation_latency`` —
        on the shared stage histograms.
        """
        if self._span is None or self._watching or not self.exclusions:
            return
        span, self._span = self._span, None
        span.mark(WINDOW_COLLAPSE)
        self._tracer.finish(span)

    # -- results -----------------------------------------------------------------

    @property
    def network_wide_at(self) -> float | None:
        """When the *last* watched view excluded the spammer; None while
        any watch is still open or none completed."""
        if self._watching or not self.exclusions:
            return None
        return max(self.exclusions.values())

    def revocation_latency(self) -> float | None:
        """Spam detection to network-wide exclusion (simulated seconds)."""
        if self.spam_detected_at is None or self.network_wide_at is None:
            return None
        return self.network_wide_at - self.spam_detected_at

    def chain_latency(self) -> float | None:
        """Spam detection to the mined ``MemberRemoved`` event."""
        if self.spam_detected_at is None or self.removed_on_chain_at is None:
            return None
        return self.removed_on_chain_at - self.spam_detected_at

    def propagation_latency(self) -> float | None:
        """On-chain removal to the last view's exclusion — the off-chain
        half of the pipeline (tree sync + window collapse)."""
        if self.removed_on_chain_at is None or self.network_wide_at is None:
            return None
        return self.network_wide_at - self.removed_on_chain_at

    def summary(self) -> dict[str, float | None]:
        return {
            "spam_detected_at": self.spam_detected_at,
            "removed_on_chain_at": self.removed_on_chain_at,
            "network_wide_at": self.network_wide_at,
            "chain_latency": self.chain_latency(),
            "propagation_latency": self.propagation_latency(),
            "revocation_latency": self.revocation_latency(),
        }
