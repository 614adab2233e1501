"""Unit tests for the nullifier map (§III-F)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nullifier_log import NullifierLog, NullifierOutcome
from repro.crypto.field import FieldElement
from repro.crypto.shamir import Share


def share(x: int, y: int) -> Share:
    return Share(x=FieldElement(x), y=FieldElement(y))


PHI = FieldElement(777)


class TestObserve:
    def test_first_message_is_fresh(self):
        log = NullifierLog()
        outcome, evidence = log.observe(10, PHI, share(1, 2), b"id1")
        assert outcome is NullifierOutcome.FRESH and evidence is None

    def test_identical_share_is_duplicate(self):
        log = NullifierLog()
        log.observe(10, PHI, share(1, 2), b"id1")
        outcome, evidence = log.observe(10, PHI, share(1, 2), b"id2")
        assert outcome is NullifierOutcome.DUPLICATE and evidence is None

    def test_different_share_is_spam_with_evidence(self):
        log = NullifierLog()
        log.observe(10, PHI, share(1, 2), b"id1")
        outcome, evidence = log.observe(10, PHI, share(3, 4), b"id2")
        assert outcome is NullifierOutcome.SPAM
        assert evidence.share_a == share(1, 2)
        assert evidence.share_b == share(3, 4)
        assert evidence.epoch == 10
        assert evidence.internal_nullifier == PHI

    def test_same_nullifier_different_epoch_is_fresh(self):
        log = NullifierLog()
        log.observe(10, PHI, share(1, 2), b"id1")
        outcome, _ = log.observe(11, PHI, share(3, 4), b"id2")
        assert outcome is NullifierOutcome.FRESH

    def test_different_nullifiers_independent(self):
        log = NullifierLog()
        log.observe(10, PHI, share(1, 2), b"id1")
        outcome, _ = log.observe(10, FieldElement(888), share(3, 4), b"id2")
        assert outcome is NullifierOutcome.FRESH

    def test_evidence_shares_recover_secret(self):
        # Glue check: log evidence feeds directly into key recovery.
        from repro.crypto.identity import Identity
        from repro.crypto.shamir import recover_secret

        identity = Identity.from_secret(0xABc)
        ext = FieldElement(42)
        s1 = identity.share_for(ext, FieldElement(10))
        s2 = identity.share_for(ext, FieldElement(20))
        log = NullifierLog()
        phi = identity.epoch_secrets(ext).internal_nullifier
        log.observe(42, phi, s1, b"a")
        _, evidence = log.observe(42, phi, s2, b"b")
        assert recover_secret(evidence.share_a, evidence.share_b) == identity.sk


class TestLookupPrune:
    def test_lookup(self):
        log = NullifierLog()
        log.observe(5, PHI, share(1, 2), b"x")
        record = log._by_epoch[5][PHI.value]
        assert record.share == share(1, 2) and record.msg_id == b"x"
        assert 6 not in log._by_epoch

    def test_prune_removes_old_epochs(self):
        log = NullifierLog()
        for epoch in range(10):
            log.observe(epoch, FieldElement(epoch), share(1, 2), b"x")
        removed = log.prune_before(7)
        assert removed == 7
        assert sorted(log._by_epoch) == [7, 8, 9]

    def test_prune_is_idempotent(self):
        log = NullifierLog()
        log.observe(1, PHI, share(1, 2), b"x")
        log.prune_before(5)
        assert log.prune_before(5) == 0

    def test_entry_count(self):
        log = NullifierLog()
        log.observe(1, PHI, share(1, 2), b"x")
        log.observe(1, FieldElement(2), share(1, 2), b"y")
        log.observe(2, PHI, share(1, 2), b"z")
        assert log.entry_count() == 3

    def test_pruned_spam_goes_undetected(self):
        # Documents the §III-F design point: outside the Thr window the
        # map forgets — which is safe because the epoch-gap check already
        # drops such messages before the map is consulted.
        log = NullifierLog()
        log.observe(1, PHI, share(1, 2), b"a")
        log.prune_before(2)
        outcome, _ = log.observe(1, PHI, share(3, 4), b"b")
        assert outcome is NullifierOutcome.FRESH


class NaiveLog:
    """The §III-F map without the oldest-epoch shortcut: every prune scans."""

    def __init__(self) -> None:
        self.by_epoch: dict[int, dict[int, Share]] = {}
        self.pruned_total = self.peak = 0

    def entries(self) -> int:
        return sum(len(m) for m in self.by_epoch.values())

    def observe(self, epoch: int, phi: int, s: Share) -> NullifierOutcome:
        epoch_map = self.by_epoch.setdefault(epoch, {})
        if phi not in epoch_map:
            epoch_map[phi] = s
            self.peak = max(self.peak, self.entries())
            return NullifierOutcome.FRESH
        if epoch_map[phi] == s:
            return NullifierOutcome.DUPLICATE
        return NullifierOutcome.SPAM

    def prune_before(self, cutoff: int) -> int:
        stale = [e for e in self.by_epoch if e < cutoff]
        removed = sum(len(self.by_epoch.pop(e)) for e in stale)
        self.pruned_total += removed
        return removed


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("observe"),
                st.integers(0, 12),
                st.integers(0, 3),
                st.integers(0, 1),
            ),
            st.tuples(st.just("prune"), st.integers(-2, 14)),
        ),
        max_size=60,
    )
)
def test_prune_shortcut_matches_a_naive_log(ops):
    log, naive = NullifierLog(), NaiveLog()
    for op in ops:
        if op[0] == "observe":
            _, epoch, phi, y = op
            outcome, _ = log.observe(epoch, FieldElement(phi), share(phi, y), b"m")
            assert outcome is naive.observe(epoch, phi, share(phi, y))
        else:
            assert log.prune_before(op[1]) == naive.prune_before(op[1])
        assert log.entry_count() == naive.entries()
        assert log.peak_entries == naive.peak
        assert log.pruned_total == naive.pruned_total
        assert sorted(log._by_epoch) == sorted(naive.by_epoch)
        # The shortcut's bookkeeping: a no-op prune is one comparison only
        # while this is exactly the oldest epoch held.
        assert log._oldest == min(naive.by_epoch, default=None)
