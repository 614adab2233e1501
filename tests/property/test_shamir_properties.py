"""Property-based tests for RLN share recovery (threshold-2 Shamir)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.identity import Identity, derive_commitment
from repro.crypto.shamir import Share, recover_secret, rln_share

field_values = st.integers(min_value=0, max_value=FIELD_MODULUS - 1).map(FieldElement)
nonzero_values = st.integers(min_value=1, max_value=FIELD_MODULUS - 1).map(FieldElement)


@given(field_values, field_values, field_values, field_values)
def test_two_distinct_shares_always_recover(sk, a1, x1, x2):
    if x1 == x2:
        return
    s1 = rln_share(sk, a1, x1)
    s2 = rln_share(sk, a1, x2)
    assert recover_secret(s1, s2) == sk
    assert (s2.y - s1.y) / (x2 - x1) == a1  # one line: the epoch's slope


@given(nonzero_values, field_values, field_values)
def test_identity_double_signal_recovers_commitment(sk_value, x1, x2):
    if x1 == x2:
        return
    identity = Identity.from_secret(sk_value)
    ext = FieldElement(777)
    s1 = identity.share_for(ext, x1)
    s2 = identity.share_for(ext, x2)
    recovered = recover_secret(s1, s2)
    assert derive_commitment(recovered) == identity.pk


@given(field_values, field_values, field_values, field_values, field_values)
def test_wrong_slope_does_not_recover(sk, a1, a2, x1, x2):
    # Shares from different epochs (different slopes) interpolate elsewhere.
    if x1 == x2 or a1 == a2:
        return
    s1 = rln_share(sk, a1, x1)
    s2 = rln_share(sk, a2, x2)
    # The interpolation result equals sk only on a measure-zero coincidence;
    # assert the algebraic identity instead of sampling luck:
    # A(0) = (y1*x2 - y2*x1)/(x2-x1) = sk + x1*x2*(a1-a2)/(x2-x1)
    recovered = recover_secret(s1, s2)
    offset = x1 * x2 * (a1 - a2) / (x2 - x1)
    assert recovered == sk + offset


@given(field_values, field_values, field_values, field_values)
def test_recover_secret_is_order_independent(sk, a1, x1, x2):
    # The slashing race: whichever routing peer pairs the two shares —
    # and in whichever order its nullifier map yielded them — the same
    # spammer key falls out.
    if x1 == x2:
        return
    s1 = rln_share(sk, a1, x1)
    s2 = rln_share(sk, a1, x2)
    assert recover_secret(s1, s2) == recover_secret(s2, s1) == sk


@given(field_values, field_values, field_values, field_values)
def test_recover_secret_round_trip_over_arbitrary_share_pairs(y1, y2, x1, x2):
    # Any two distinct-x points determine one line; recover_secret must
    # return its intercept — for arbitrary points, not just points we
    # built from a known line.
    if x1 == x2:
        return
    s1 = Share(x=x1, y=y1)
    s2 = Share(x=x2, y=y2)
    intercept = recover_secret(s1, s2)
    slope = (y2 - y1) / (x2 - x1)
    # Round trip: the line through the recovered intercept with the two
    # points' slope reproduces both shares, so it is the unique line.
    assert rln_share(intercept, slope, x1) == s1
    assert rln_share(intercept, slope, x2) == s2
