"""Shamir secret sharing over the BN254 scalar field.

RLN (§II-B) turns every published message into one point on a degree-1
polynomial whose constant term is the publisher's secret identity key:

    A(x) = sk + a1 * x        with  a1 = H(sk, external_nullifier)

One message per epoch reveals one point — information-theoretically useless.
Two *distinct* messages in the same epoch reveal two points, and a line is
uniquely determined by two points, so anyone can interpolate A at x = 0 and
recover ``sk``.  That recovery is the slashing mechanism.

The module provides both the specialised degree-1 machinery RLN needs and a
general (k, n) Shamir scheme with Lagrange interpolation, used by the tests
to cross-validate the degree-1 case against the generic implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.field import FieldElement
from repro.errors import ShamirError


@dataclass(frozen=True, slots=True)
class Share:
    """One evaluation point (x, y) of a sharing polynomial."""

    x: FieldElement
    y: FieldElement

    def as_tuple(self) -> tuple[int, int]:
        return (self.x.value, self.y.value)


# ---------------------------------------------------------------------------
# The RLN degree-1 special case
# ---------------------------------------------------------------------------


def rln_share(sk: FieldElement, a1: FieldElement, x: FieldElement) -> Share:
    """Evaluate the RLN line ``y = sk + a1 * x`` at ``x`` (§II-B).

    ``x`` is the hash of the message being published; ``a1`` is the
    epoch-bound slope ``H(sk, external_nullifier)``.
    """
    return Share(x=x, y=sk + a1 * x)


def recover_secret(share_a: Share, share_b: Share) -> FieldElement:
    """Interpolate the line through two distinct shares and return A(0) = sk.

    This is the slashing primitive: given the shares attached to two
    different messages published by the same member in the same epoch, the
    member's secret identity key falls out.
    """
    if share_a.x == share_b.x:
        raise ShamirError(
            "shares have equal x coordinates; a line needs two distinct points"
        )
    # A(0) = (y_a * x_b - y_b * x_a) / (x_b - x_a)
    numerator = share_a.y * share_b.x - share_b.y * share_a.x
    return numerator / (share_b.x - share_a.x)


def recover_slope(share_a: Share, share_b: Share) -> FieldElement:
    """Recover a1 = (y_b - y_a) / (x_b - x_a); used to confirm slashing."""
    if share_a.x == share_b.x:
        raise ShamirError("shares have equal x coordinates")
    return (share_b.y - share_a.y) / (share_b.x - share_a.x)


# ---------------------------------------------------------------------------
# General (k, n) Shamir
# ---------------------------------------------------------------------------


def split_secret(
    secret: FieldElement,
    threshold: int,
    share_count: int,
    *,
    coefficients: Sequence[FieldElement] | None = None,
) -> list[Share]:
    """Split ``secret`` into ``share_count`` shares, any ``threshold`` of
    which reconstruct it.

    ``coefficients`` fixes the random polynomial coefficients (degree
    1..threshold-1) for deterministic tests; otherwise they are sampled
    uniformly.
    """
    if threshold < 2:
        raise ShamirError(f"threshold must be >= 2, got {threshold}")
    if share_count < threshold:
        raise ShamirError(
            f"need at least threshold={threshold} shares, got {share_count}"
        )
    if coefficients is None:
        coefficients = [FieldElement.random() for _ in range(threshold - 1)]
    elif len(coefficients) != threshold - 1:
        raise ShamirError(
            f"expected {threshold - 1} coefficients, got {len(coefficients)}"
        )
    poly = [secret, *coefficients]
    shares = []
    for i in range(1, share_count + 1):
        x = FieldElement(i)
        shares.append(Share(x=x, y=_evaluate(poly, x)))
    return shares


def reconstruct_secret(shares: Sequence[Share]) -> FieldElement:
    """Lagrange-interpolate the sharing polynomial at x = 0.

    Requires all x coordinates distinct.  With fewer shares than the
    original threshold the result is uniformly random garbage — exactly the
    secrecy property the single-message-per-epoch case of RLN relies on.
    """
    if len(shares) < 2:
        raise ShamirError("need at least two shares")
    xs = [s.x for s in shares]
    if len({x.value for x in xs}) != len(xs):
        raise ShamirError("duplicate x coordinates")
    secret = FieldElement(0)
    for i, share in enumerate(shares):
        # Lagrange basis polynomial evaluated at 0.
        numerator = FieldElement(1)
        denominator = FieldElement(1)
        for j, other in enumerate(shares):
            if i == j:
                continue
            numerator = numerator * other.x
            denominator = denominator * (other.x - share.x)
        secret = secret + share.y * numerator / denominator
    return secret


def _evaluate(poly: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    """Horner evaluation of a polynomial given low-to-high coefficients."""
    acc = FieldElement(0)
    for coefficient in reversed(poly):
        acc = acc * x + coefficient
    return acc
