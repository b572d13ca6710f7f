"""The p-torsion of the twisted product as a Galois module over F_p.

The twist acts on the p-torsion X[p] = E[p]^(p-1), a 2(p-1)-dimensional F_p
vector space, as zeta (x) 1: the cocycle matrix mod p tensored with the
2-dimensional identity fiber (the torsion of a single elliptic curve
factor). The filtration by images of (zeta - 1)^i drops by 2 each step and
exhibits p - 1 composition factors, each a copy of E[p] with trivial
induced action.

TwistData.two_jordan_blocks certifies all of it without building the
action, and filtration_dims and composition_factors read it.

Kernel sizes of isogenies between powers of E are measured by their
E[p]-rank: an order with p-adic valuation 2r contributes r copies of E[p].
"""

from __future__ import annotations

from .cyclotomic import _require_odd_prime
from .intlinalg import Record, _count, _norm_scalar
from .twist import TwistData


def ep_label(p) -> str:
    """The name of the label of E[p], one elliptic curve's p-torsion."""
    return f"E[{p}]"


def build_ptorsion(p) -> TwistData:
    """The twist on X[p] through its cocycle zeta: TwistData.for_prime(p)."""
    return TwistData.for_prime(p)


def filtration_dims(t: TwistData):
    """Dimensions of (zeta - 1)^i X[p] for i = 0 .. p-1.

    Starts at 2(p-1), ends at 0, and drops by exactly 2 at each step. Raises
    AssertionError when the certificate fails (a construction bug).
    """
    if not t.two_jordan_blocks:
        raise AssertionError(
            f"twist action on X[{t.p}] is not two Jordan blocks of size {t.p - 1}")
    return list(range(2 * (t.p - 1), -2, -2))


def composition_factors(t: TwistData):
    """Labels of the filtration factors, validating the structure on the way.

    zeta - 1 maps (zeta - 1)^i X[p] onto (zeta - 1)^(i+1) X[p], so the twist
    acts trivially on every graded piece, and filtration_dims makes each
    piece 2-dimensional: the label "E[p]" records one elliptic-curve torsion
    factor per step. Raises AssertionError when the certificate fails.
    """
    return [ep_label(t.p)] * (len(filtration_dims(t)) - 1)


class EpRank(Record):
    """Number of E[p] factors in the p-primary part of a finite kernel."""

    def __init__(self, value: int):
        self._set(_count(value, 0, "rank"))

    @property
    def parity(self):
        return self.value % 2


def valuation(q, p) -> int:
    """The p-adic valuation of a nonzero exact scalar q (see _norm_scalar),
    for an int p >= 2; zero and a smaller p raise ValueError rather than
    loop forever."""
    q = _norm_scalar(q)
    if q == 0:
        raise ValueError("zero has no finite valuation")
    _count(p, 2, "a valuation base")
    num, den, v = abs(q.numerator), q.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def e_rank_of_order(order, p) -> EpRank:
    """E[p]-rank of a kernel of the given order.

    The p-primary part of any kernel arising here is a sum of copies of
    E[p], each of order p^2, so the valuation must be even.
    """
    _require_odd_prime(p)
    v = valuation(_count(order, 1, "order"), p)
    if v % 2:
        raise ValueError(
            f"order has odd p-adic valuation {v}; not a sum of {ep_label(p)} factors")
    return EpRank(v // 2)


def polarization_parity(p, n) -> EpRank:
    """E[p]-rank of the kernel of the pulled-back polarization of degree
    p^2 n^4: the rank is 1 + 2 v_p(n), which is odd for every n.

    The twist's own polarization has degree p^2 (n = 1); composing with an
    isogeny of degree n^2 multiplies the degree by n^4 and shifts the rank
    by twice the p-part of n, so the parity can never leave 1.
    """
    _require_odd_prime(p)
    return EpRank(1 + 2 * valuation(_count(n, 1, "n"), p))
