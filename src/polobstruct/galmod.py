"""The p-torsion of the twisted product as a Galois module over F_p.

The twist acts on the p-torsion X[p] = E[p]^(p-1), a 2(p-1)-dimensional F_p
vector space, as zeta (x) 1: the cocycle matrix mod p tensored with the
2-dimensional identity fiber (the torsion of a single elliptic curve
factor). The filtration by images of (zeta - 1)^i drops by 2 each step and
exhibits p - 1 composition factors, each a copy of E[p] with trivial
induced action.

One certificate on the cocycle decides all of it. With n = p - 1,
N_A = cocycle - 1 mod p and e_0 the first unit vector, v = N_A^(n-1) e_0 is
nonzero and N_A v = 0. Then e_0, N_A e_0, ..., N_A^(n-1) e_0 are
independent (apply N_A^(n-1-i) to a dependency at its smallest i), so
N_A ~ J_n and N = action - 1 = N_A (x) 1 ~ J_n + J_n: each step has
dimension 2 and trivial action, and (1 + N)^p = 1 + N^p = 1.

The cocycle is an integer matrix, for verify and sweep TwistData's own
zeta, and the certificate runs on Python ints in n dimensions: N_A u is
cocycle u - u reduced mod p. When the cocycle has zeta's companion shape
(twist.is_companion), cocycle u is the shift (-sum u, u_0, ..., u_(n-2));
any other cocycle is applied by cocycle.mul_vector. The 2n x 2n action is
built only when something asks for it.

Kernel sizes of isogenies between powers of E are measured by their
E[p]-rank: an order with p-adic valuation 2r contributes r copies of E[p].
"""

from __future__ import annotations

from .cyclotomic import _require_odd_prime
from .intlinalg import Matrix, Record, cached
from .twist import build_zeta, companion_times_vector, is_companion


def ep_label(p) -> str:
    """The name of the label of E[p], one elliptic curve's p-torsion."""
    return f"E[{p}]"


class TorsionModule(Record):
    """X[p] with the twist acting through its cocycle, an integer Matrix of
    size n = p - 1; the action on X[p] is kron(cocycle mod p, I_2), of
    dimension dim = 2(p - 1). The repr leaves the cocycle out."""

    def __init__(self, p: int, cocycle: Matrix):
        n = p - 1
        if (not isinstance(cocycle, Matrix)
                or cocycle.shape != (n, n)
                or not cocycle.is_integral()):
            raise ValueError("X[p] needs an integer Matrix cocycle of size "
                             "p - 1")
        self._set(p, cocycle)

    def __repr__(self):
        return f"TorsionModule(p={self.p!r})"

    @property
    def dim(self) -> int:
        return 2 * (self.p - 1)

    @cached
    def action(self) -> Matrix:
        """The 2n x 2n action kron(cocycle mod p, I_2) on X[p], built on
        first use; the certificate never reads it."""
        p, rows = self.p, []
        for r in self.cocycle.rows:
            reduced = [x % p for x in r]
            for f in (0, 1):
                rows.append([x if g == f else 0 for x in reduced for g in (0, 1)])
        return Matrix(rows)

    @cached
    def two_jordan_blocks(self) -> bool:
        """Is action - 1 mod p two Jordan blocks of size p - 1, by the module
        docstring's certificate? N_A = cocycle - 1 mod p is applied p - 2
        times to e_0; the certificate holds iff the result v is nonzero and
        N_A v = 0. Sufficient, and met by build_ptorsion's module: det T = 1
        (T is unit upper triangular, see twist) keeps zeta's cyclic e_1
        cyclic mod p."""
        p = self.p
        times = (companion_times_vector if is_companion(self.cocycle)
                 else self.cocycle.mul_vector)

        def apply(u):
            return [(y - x) % p for y, x in zip(times(u), u)]

        v = [0] * (p - 1)
        v[0] = 1
        for _ in range(p - 2):
            v = apply(v)
        return any(v) and not any(apply(v))


def build_ptorsion(p) -> TorsionModule:
    """The twist on X[p] through its cocycle zeta, of size p - 1."""
    return TorsionModule(p, build_zeta(p))


def filtration_dims(m: TorsionModule):
    """Dimensions of (zeta - 1)^i X[p] for i = 0 .. p-1.

    Starts at 2(p-1), ends at 0, and drops by exactly 2 at each step. Raises
    AssertionError when the certificate fails (a construction bug).
    """
    if not m.two_jordan_blocks:
        raise AssertionError(
            f"twist action on X[{m.p}] is not two Jordan blocks of size {m.p - 1}")
    return list(range(m.dim, -2, -2))


def composition_factors(m: TorsionModule):
    """Labels of the filtration factors, validating the structure on the way.

    zeta - 1 maps (zeta - 1)^i X[p] onto (zeta - 1)^(i+1) X[p], so the twist
    acts trivially on every graded piece, and filtration_dims makes each
    piece 2-dimensional: the label "E[p]" records one elliptic-curve torsion
    factor per step. Raises AssertionError when the certificate fails.
    """
    return [ep_label(m.p)] * (len(filtration_dims(m)) - 1)


class EpRank(Record):
    """Number of E[p] factors in the p-primary part of a finite kernel."""

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError("rank must be a nonnegative integer")
        self._set(value)

    @property
    def parity(self):
        return self.value % 2


def valuation(q, p) -> int:
    """The p-adic valuation of a nonzero int or Fraction, for an int p >= 2;
    zero and a smaller p raise ValueError rather than loop forever."""
    if q == 0:
        raise ValueError("zero has no finite valuation")
    if p < 2:
        raise ValueError(f"a valuation needs a base of at least 2, got {p}")
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
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError("order must be a positive integer")
    v = valuation(order, p)
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return EpRank(1 + 2 * valuation(n, p))
