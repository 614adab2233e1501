"""Unit tests for the RLN share line (threshold-2 Shamir)."""

import pytest

from repro.crypto.field import FieldElement
from repro.crypto.shamir import Share, recover_secret, rln_share
from repro.errors import ShamirError


class TestRLNShares:
    def test_share_lies_on_line(self):
        sk, a1, x = FieldElement(7), FieldElement(13), FieldElement(100)
        share = rln_share(sk, a1, x)
        assert share.y == sk + a1 * x

    def test_two_shares_recover_secret(self):
        sk, a1 = FieldElement(987654321), FieldElement(5555)
        s1 = rln_share(sk, a1, FieldElement(1))
        s2 = rln_share(sk, a1, FieldElement(2))
        assert recover_secret(s1, s2) == sk

    def test_order_independent_recovery(self):
        sk, a1 = FieldElement(42), FieldElement(4242)
        s1 = rln_share(sk, a1, FieldElement(11))
        s2 = rln_share(sk, a1, FieldElement(22))
        assert recover_secret(s1, s2) == recover_secret(s2, s1)

    def test_same_x_raises(self):
        share = Share(x=FieldElement(1), y=FieldElement(2))
        other = Share(x=FieldElement(1), y=FieldElement(3))
        with pytest.raises(ShamirError):
            recover_secret(share, other)

    def test_one_share_reveals_nothing_definite(self):
        # Any candidate secret is consistent with a single share: for every
        # sk' there exists a slope making the share lie on that line.
        sk, a1 = FieldElement(777), FieldElement(888)
        share = rln_share(sk, a1, FieldElement(5))
        for candidate in (0, 1, 999999):
            slope = (share.y - FieldElement(candidate)) / share.x
            assert FieldElement(candidate) + slope * share.x == share.y

    def test_shares_from_different_epoch_slopes_do_not_recover(self):
        # Two messages in *different* epochs use different slopes, so the
        # interpolation does not hit sk — the cross-epoch privacy property.
        sk = FieldElement(31337)
        s1 = rln_share(sk, FieldElement(100), FieldElement(1))
        s2 = rln_share(sk, FieldElement(200), FieldElement(2))
        assert recover_secret(s1, s2) != sk

