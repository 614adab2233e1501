"""The RLN share line over the BN254 scalar field (§II-B, §II-C).

RLN (§II-B) turns every published message into one point on a degree-1
polynomial whose constant term is the publisher's secret identity key:

    A(x) = sk + a1 * x        with  a1 = H(sk, external_nullifier)

One message per epoch reveals one point — information-theoretically useless.
Two *distinct* messages in the same epoch reveal two points, and a line is
uniquely determined by two points, so anyone can interpolate A at x = 0 and
recover ``sk``.  That recovery is the slashing mechanism.

That is Shamir sharing with threshold 2, and only that case is here:
``rln_share`` evaluates the line and ``recover_secret`` interpolates it at
x = 0 from two points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.field import FieldElement
from repro.errors import ShamirError


@dataclass(frozen=True, slots=True)
class Share:
    """One evaluation point (x, y) of a sharing polynomial."""

    x: FieldElement
    y: FieldElement


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
