"""The order-p twisting construction and its descent identities.

For an odd prime p, the Galois group of Q(zeta_p)/Q acts on a product of
p - 1 copies of an elliptic curve through an integer matrix zeta of
multiplicative order p: the cyclic shift on Z^p restricted to the trace-zero
sublattice. A symmetric form b (2 on the diagonal, 1 elsewhere, determinant
p) commutes with the twist in the sense zeta^t b zeta = b, which is exactly
the condition for the degree-p^2 polarization it defines to descend to the
twisted variety.

Endomorphisms descend iff they commute with zeta. e_1 is a cyclic vector of
zeta, so the commutant lattice equals the span of the powers
zeta^0 .. zeta^(p-2), the image of the ring of integers of Q(zeta_p),
exactly when T = [e_1, zeta e_1, ..., zeta^(p-2) e_1] is unimodular; for
the cocycle T is unit upper triangular, so det T = 1.

CONSTRUCTION_CHECKS lists every identity of the construction once; both
TwistData.check and the verify suite run that list. The four questions about
zeta itself (its minimal polynomial, its order and its commutant) are read
off one certificate, the orbit e_1, zeta e_1, ..., zeta^(p-1) e_1 that
TwistData.orbit computes once per instance.

zeta is a companion matrix, and is_companion decides that shape, for
TwistData and for galmod's torsion certificate alike. For a companion zeta
every product with zeta is a shift of plain rows, with no matrix product:
zeta X moves X's rows down under minus its column sums, X zeta subtracts
X's first column from the others, and zeta^t X its first row from the
others. TwistData's zeta_times and times_zeta iterate over such rows, and
over the generic product's rows for any other zeta; the descent checks stop
at the first row that differs.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import eq, neg, sub

from .cyclotomic import CycElem, _require_odd_prime, cyclotomic_poly, regular_rep
from .intlinalg import (
    Matrix,
    Record,
    _norm_row,
    _sparse_kernel,
    cached,
    det,
    leading_principal_minors,
    resultant,
)


def build_zeta(p) -> Matrix:
    """The twisting cocycle value: order-p companion-style integer matrix.

    First row all -1, ones on the subdiagonal, zero elsewhere. Its minimal
    polynomial is the p-th cyclotomic polynomial.
    """
    _require_odd_prime(p)
    n = p - 1
    rows = [[-1] * n]
    for i in range(1, n):
        rows.append([1 if j == i - 1 else 0 for j in range(n)])
    return Matrix(rows)


def is_companion(m: Matrix) -> bool:
    """Does m have build_zeta's shape: first row all -1, ones on the
    subdiagonal, zeros elsewhere?"""
    n = m.nrows
    if m.shape != (n, n) or n == 0:
        return False
    first, *rest = m.rows
    return (first == (-1,) * n
            and all(r == (0,) * (i - 1) + (1,) + (0,) * (n - i)
                    for i, r in enumerate(rest, 1)))


def companion_times_vector(v) -> tuple:
    """zeta v for the companion zeta: (-sum v, v_0, ..., v_(n-2))."""
    return (-sum(v), *v[:-1])


def _check_factors(a, b):
    """The ValueError of a generic product, for shapes a and b that do not
    chain."""
    if a[1] != b[0]:
        raise ValueError(f"cannot multiply {a} by {b}")


def reduce_shift(p) -> Matrix:
    """Independent route to the same matrix: restrict the cyclic shift.

    The shift e_i -> e_(i+1 mod p) on Z^p preserves the trace-zero sublattice
    S = {sum x_i = 0}. Writing S in the basis e_i - e_p (i = 1..p-1), the
    shift becomes a (p-1) by (p-1) integer matrix; this function computes it
    by embedding, shifting and projecting back.
    """
    _require_odd_prime(p)
    n = p - 1
    # basis vector j of S embeds into Z^p as e_j - e_(p-1) (0-indexed rows)
    embed = [[0] * n for _ in range(p)]
    for j in range(n):
        embed[j][j] = 1
        embed[p - 1][j] = -1
    shifted = [[0] * n for _ in range(p)]
    for i in range(p):
        shifted[(i + 1) % p] = embed[i]
    for col in zip(*shifted):
        if sum(col) != 0:
            raise AssertionError("shift left the trace-zero sublattice")
    # the first p-1 coordinates recover the S-basis coefficients
    return Matrix(shifted[:n])


def build_b(p) -> Matrix:
    """The symmetric positive definite form: 2 on the diagonal, 1 elsewhere."""
    _require_odd_prime(p)
    n = p - 1
    return Matrix([[2 if i == j else 1 for j in range(n)] for i in range(n)])


Orbit = namedtuple("Orbit", "vectors unit_triangular")


class TwistData(Record):
    """A prime p together with its cocycle matrix and polarization form."""

    def __init__(self, p: int, zeta: Matrix, b: Matrix):
        # the orbit certificate reads 1 + x + ... + x^(p-1) as Phi_p
        _require_odd_prime(p)
        n = p - 1
        if zeta.shape != (n, n) or b.shape != (n, n):
            raise ValueError(f"expected {n} by {n} matrices for p = {p}")
        self._set(p, zeta, b)

    @classmethod
    def for_prime(cls, p) -> "TwistData":
        return cls(p, build_zeta(p), build_b(p))

    @cached
    def zeta_is_companion(self) -> bool:
        """Is zeta exactly build_zeta's companion shape (is_companion)? It
        picks the shift or the generic product in every product with zeta."""
        return is_companion(self.zeta)

    def zeta_times(self, x: Matrix):
        """Iterate over zeta x once: -(x's column sums), then x's rows but the last."""
        if not self.zeta_is_companion:
            return iter((self.zeta * x).rows)
        _check_factors(self.zeta.shape, x.shape)
        return iter((tuple(-s for s in map(sum, zip(*x.rows))), *x.rows[:-1]))

    def times_zeta(self, x: Matrix):
        """Iterate once over x zeta, making (r_1 - r_0, ..., -r_0) of r when read."""
        if not self.zeta_is_companion:
            return iter((x * self.zeta).rows)
        _check_factors(x.shape, self.zeta.shape)
        return ((*[y - r[0] for y in r[1:]], -r[0]) for r in x.rows)

    def zeta_times_vector(self, v) -> tuple:
        """zeta v, by companion_times_vector for the companion zeta."""
        if not self.zeta_is_companion:
            return self.zeta.mul_vector(v)
        v = _norm_row(v)
        if len(v) != self.p - 1:
            raise ValueError("vector length mismatch")
        return companion_times_vector(v)

    @cached
    def orbit(self) -> Orbit:
        """The orbit e1, zeta e1, ..., zeta^(p-1) e1 of the cyclic vector,
        and whether T (its first p - 1 vectors) is unit upper triangular."""
        n = self.p - 1
        vecs = [tuple(1 if i == 0 else 0 for i in range(n))]
        for _ in range(n):
            vecs.append(self.zeta_times_vector(vecs[-1]))
        return Orbit(tuple(vecs), all(v[k] == 1 and not any(v[k + 1:])
                               for k, v in enumerate(vecs[:n])))

    @cached
    def phi_p_annihilates_zeta(self) -> bool:
        """Phi_p(zeta) = 0, read off the orbit (see CONSTRUCTION_CHECKS)."""
        return self.orbit.unit_triangular and not any(map(sum, zip(*self.orbit.vectors)))

    @cached
    def b_is_i_plus_j(self) -> bool:
        """Is b - I the all-ones matrix J = 11^t, entry by entry?"""
        n = self.p - 1
        return all(r == (1,) * i + (2,) + (1,) * (n - 1 - i)
                   for i, r in enumerate(self.b.rows))

    @cached
    def b_minors(self):
        """The leading principal minors of b; the last is det b, also when
        a minor vanishes. For b = I + J the determinant lemma
        det(I + u v^t) = 1 + v^t u gives the k-th minor 1 + k with no
        elimination; any other b takes the generic route,
        leading_principal_minors."""
        if self.b_is_i_plus_j:
            return list(range(2, self.p + 1))
        return leading_principal_minors(self.b)

    @cached
    def polarization_degree(self):
        """The degree (det b)^2 of the polarization b defines."""
        return self.b_minors[-1] ** 2

    def check(self):
        """Run CONSTRUCTION_CHECKS in order; raises naming the first failure."""
        for name, holds in CONSTRUCTION_CHECKS:
            if not holds(self):
                raise AssertionError(f"construction check failed: {name}")


def endo_descends(alpha: Matrix, t: TwistData) -> bool:
    """Does the endomorphism alpha descend through the twist?

    The descent condition for a trivial-action base is commutation with the
    cocycle value, compared row by row up to the first row that differs.
    """
    n = t.p - 1
    if alpha.shape != (n, n):
        raise ValueError(f"expected a {n} by {n} matrix for p = {t.p}")
    return all(map(eq, t.zeta_times(alpha), t.times_zeta(alpha)))


def pol_descends(t: TwistData) -> bool:
    """Descent identity for the polarization form, checked fraction-free.

    b^(-1) zeta^t b zeta = 1 is equivalent to zeta^t b zeta = b since b is
    invertible; the latter needs no rational arithmetic.
    """
    if not t.zeta_is_companion:
        return t.zeta.transpose() * t.b * t.zeta == t.b
    # zeta^t y, y = b zeta: y's rows after the first minus it, then -first
    first, *rest = t.times_zeta(t.b)
    return (all(tuple(map(sub, r, first)) == s for r, s in zip(rest, t.b.rows))
            and tuple(map(neg, first)) == t.b.rows[-1])


def endo_degree(alpha: Matrix):
    """Degree of the endomorphism: the square of its determinant."""
    d = det(alpha)
    if d == 0:
        raise ValueError("matrix is singular, not an isogeny")
    return d * d


def central_degree(a: CycElem):
    """Degree det a(zeta)^2 of a(zeta) = sum c_k zeta^k for integers c_k, as
    Res(Phi_p, a)^2, which is det a(M)^2 for every M whose characteristic
    polynomial is Phi_p; endo_degree(regular_rep(a)) is its reference."""
    return resultant(cyclotomic_poly(a.p).coeffs, a.coords) ** 2


def rosati(x: Matrix, t: TwistData) -> Matrix:
    """The involution x -> b^(-1) x^t b induced by the polarization form.

    b = I + J with J the all-ones matrix, so y = x^t b is x^t with each
    row's sum added across that row, and b^(-1) = I - J/p: every row of
    J y / p holds y's column sums over p, each an int when p divides it.
    Column j of y sums to row j of x plus the sum of all of x.
    """
    n = t.p - 1
    if x.shape != (n, n):
        raise ValueError(f"expected a {n} by {n} matrix for p = {t.p}")
    if not t.b_is_i_plus_j:
        raise ValueError("the closed-form inverse needs the form b = I + J")
    xt = list(zip(*x.rows))
    row_sums = [sum(r) for r in xt]
    total = sum(row_sums)
    sums = [Fraction(s, t.p) if rem else q for s in (sum(r) + total for r in x.rows)
            for q, rem in [divmod(s, t.p)]]
    return Matrix([[v + rs - s for v, s in zip(r, sums)]
                   for r, rs in zip(xt, row_sums)])


# ---------------------------------------------------------------------------
# the commutant lattice


def _commutator_columns(zeta: Matrix):
    """Sparse columns of X -> zeta X - X zeta on row-major n^2 coordinates."""
    n = zeta.nrows
    colnz, rownz = zeta.transpose().row_nonzeros(), zeta.row_nonzeros()
    cols = []
    for k in range(n):
        for l in range(n):
            d = {}
            for i, v in colnz[k]:
                d[i * n + l] = d.get(i * n + l, 0) + v
            for j, v in rownz[l]:
                key = k * n + j
                nv = d.get(key, 0) - v
                if nv:
                    d[key] = nv
                else:
                    d.pop(key, None)
            cols.append({r: v for r, v in d.items() if v})
    return cols


def centralizer_basis(p, method="kernel"):
    """Basis of the lattice of integer matrices commuting with the cocycle.

    Returned as a list of p - 1 matrices, the column-HNF-canonical basis of
    the kernel of the commutator map, found by the generic sparse
    integer-kernel engine. This lattice is the image of Z[zeta_p]; every
    returned matrix is re-checked to commute. It is the independent
    reference for the orbit certificate that the checks and the sweep read
    (see CONSTRUCTION_CHECKS); "kernel" is the only method.
    """
    if method != "kernel":
        raise ValueError(f"unknown method {method!r}")
    zeta = build_zeta(p)
    n = p - 1
    canon = _sparse_kernel(_commutator_columns(zeta), n * n)
    out = []
    for j in range(canon.ncols):
        flat = canon.column(j)
        m = Matrix([flat[i * n:(i + 1) * n] for i in range(n)])
        if zeta * m != m * zeta:
            raise AssertionError("basis element fails to commute")
        out.append(m)
    return out


def zeta_power_lattice(p):
    """The matrices zeta^0 .. zeta^(p-2)."""
    zeta = build_zeta(p)
    out = [Matrix.identity(p - 1)]
    for _ in range(p - 2):
        out.append(out[-1] * zeta)
    return out


def flatten_matrices(mats):
    """Row-major vectorizations as the columns of one matrix."""
    if not mats:
        raise ValueError("no matrices to flatten")
    n = mats[0].nrows
    cols = [tuple(x for row in m.rows for x in row) for m in mats]
    return Matrix.from_columns(cols, nrows=n * n)


def power_basis_transform(p) -> Matrix:
    """Unimodular T with zeta T = T C, C the multiplication-by-zeta matrix
    on the power basis of Q(zeta_p).

    T has columns e1, zeta e1, ..., zeta^(p-2) e1; this is the explicit
    change of basis reconciling the matrix construction with the field
    picture, verified rather than assumed.
    """
    data = TwistData.for_prime(p)
    t = Matrix.from_columns(data.orbit.vectors[:p - 1])
    if data.zeta * t != t * regular_rep(CycElem.zeta(p)):
        raise AssertionError("cyclic-vector transform failed to intertwine")
    if det(t) not in (1, -1):
        raise AssertionError("cyclic-vector transform is not unimodular")
    return t


# ---------------------------------------------------------------------------
# the construction checks
#
# Each predicate names the module functions it calls at call time, so a
# wrapper installed on one of them (a tracer, a test double) sees the call.
#
# Four checks read TwistData.orbit. If X commutes with zeta then
# X zeta^k e1 = zeta^k X e1, so X is determined by X e1 once
# T = [e1, zeta e1, ...] is invertible. The orbit certificate asks T to be
# unit upper triangular, so det T = 1: T is invertible, which bounds the
# commutant's rank by p - 1, which the powers of zeta attain, and
# unimodular, which makes the coordinates T^(-1) X e1 of every integral X
# in the commutant integral, so the commutant is the span of the powers.
# The orbit's sum is Phi_p(zeta) e1; Phi_p(zeta) commutes with zeta and e1
# is cyclic, so a zero sum gives Phi_p(zeta) = 0. Cyclicity also forces
# deg minpoly >= p - 1, so minpoly = Phi_p, and (x - 1) Phi_p = x^p - 1
# gives zeta^p = I. Phi_p(1) = p, so Phi_p(zeta) = 0 also excludes
# zeta = I, and the order is the prime p.
#
# TwistData decides each closed form once: polarization_degree is
# (det b)^2, so a singular b fails the b checks, and rosati, defined for
# b = I + J alone, fails rosati_inverts_zeta for any other b, not raising.


CONSTRUCTION_CHECKS = (
    ("zeta_minpoly_is_cyclotomic", lambda t: t.phi_p_annihilates_zeta),
    ("zeta_order_p", lambda t: t.phi_p_annihilates_zeta),
    ("shift_reduction_matches", lambda t: reduce_shift(t.p) == t.zeta),
    ("b_determinant_is_p", lambda t: t.b_minors[-1] == t.p),
    ("b_positive_definite",
     lambda t: t.b.is_symmetric() and all(m > 0 for m in t.b_minors)),
    ("polarization_descends", lambda t: pol_descends(t)),
    ("polarization_degree_p_squared", lambda t: t.polarization_degree == t.p ** 2),
    ("rosati_inverts_zeta", lambda t: t.b_is_i_plus_j
     and all(map(eq, t.times_zeta(rosati(t.zeta, t)), Matrix.identity(t.p - 1).rows))),
    ("centralizer_rank", lambda t: t.orbit.unit_triangular),
    ("centralizer_equals_zeta_powers", lambda t: t.orbit.unit_triangular),
)
