"""Arithmetic in the p-th cyclotomic field and its maximal real subfield.

Elements of K = Q(zeta_p) are coordinate vectors over the power basis
1, zeta, ..., zeta^{p-2}; products are reduced eagerly mod the p-th
cyclotomic polynomial. K+ = Q(eta), eta = zeta + zeta^{-1}, has one
representation: the CycElem that conjugation fixes, which norms and
positivity read as it is. The eta-power coordinates of such an element
(from_eta, restrict_to_real, real_mult_matrix, by Dickson polynomials) are
a reference route that no command takes; only their Dickson elimination,
_dickson_to_eta, is on one, in twist.central_degree.

Norms take one of two routes, chosen by the element and never by the size
of p, so no size threshold divides them.

A conjugation-fixed x lies in K+. The power sums of its (p-1)/2 real
embeddings are halved traces Tr_(K/Q)(x^k), read off by
Tr(zeta^j) = p [j = 0] - 1, and Newton's identities turn them into the
elementary symmetric functions e_k. x is totally positive iff every e_k is
positive (its embeddings are real because K+ is totally real), and
[K : K+] = 2 gives N_(K/Q)(x) = e_m^2 (Washington, Introduction to
Cyclotomic Fields, ch. 2). The powers of x are packed integers whose digit
width is proven never to carry (Kronecker substitution). The pass is
memoized on its element (CycElem._elementary), as is the conjugation test
(CycElem._fixed), so the norm and the positivity of one certificate share
both, and no module-level cache holds either; the codec of the packed
integers is kept per digit count and width in an lru_cache.

Any other a takes the multimodular route: for moduli l = 1 (mod p) below
2^31, conjugates_mod_primes gives the p - 1 conjugates of a mod l, one
packed-integer product per modulus by Rader's permutation, and the norm is
their product mod each l, lifted by the Chinese remainder theorem (Cohen,
A Course in Computational Algebraic Number Theory, 1.3). A modulus is
certified by an omega = 2^((l-1)/p) of order p modulo each of its prime
factors, not by a primality test, so it may be composite; see
_order_p_root. The number of moduli is proven, not tuned; see norm_to_Q.
The supply of moduli and their tables is memoized only in module-level
lru_caches.

No matrix and no floating point enters either route.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul

from .intlinalg import (
    IntPoly,
    Matrix,
    Record,
    cached,
    _cleared,
    _count,
    _norm_row,
    _norm_scalar,
    _plain_ints,
    _power,
    parse_int,
)


# the largest prime any command or model file accepts: work grows
# polynomially in p, and the cap turns an absurd p into a one-line error
# instead of a hang
MAX_P = 1000


def _cap(p, what):
    """p, if it is at most MAX_P; read before any primality test."""
    if p > MAX_P:
        raise ValueError(f"{what} must be at most {MAX_P}, got {p}")
    return p


# the twelve prime bases of the deterministic Miller-Rabin test, and the
# least composite that is a strong pseudoprime to each of the first k of
# them, k = 1..12 (OEIS A014233; Sorenson and Webster, Math. Comp. 86, 2017):
# below _PSI[k - 1], the first k bases decide primality
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461)
_ODD_TRIAL = tuple((q, q * q) for q in _BASES[1:])


def is_prime(n) -> bool:
    """2 counts, and anything but an int is not a prime. Trial division by
    the twelve primes 2 to 37, up to the square root, decides every
    n < 41^2. A larger n takes the strong probable-prime test to the first
    k of them, k as _PSI gives it, which is exact below _PSI[-1], about
    3.18e23; past it, an n with no factor up to 37 raises ValueError."""
    if not isinstance(n, int) or n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for q, square in _ODD_TRIAL:
        if square > n:
            return True
        if n % q == 0:
            return False
    if n < 41 * 41:
        return True
    if n >= _PSI[-1]:
        raise ValueError(f"primality of {n} is not decided past {_PSI[-1]}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for q in _BASES[:1 + bisect_right(_PSI, n)]:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(p) -> bool:
    return p != 2 and is_prime(p)


def _require_odd_prime(p):
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")


def cyclotomic_poly(p) -> IntPoly:
    """1 + x + ... + x^(p-1), the minimal polynomial of a primitive p-th root."""
    _require_odd_prime(p)
    return IntPoly([1] * p)


@lru_cache(maxsize=64)
def real_cyclotomic_poly(p) -> IntPoly:
    """psi_p, the monic minimal polynomial of eta, of degree m = (p-1)/2:
    x^m psi_p(x + 1/x) = Phi_p(x), by its binomial closed form."""
    _require_odd_prime(p)
    m = (p - 1) // 2
    return IntPoly([(-1) ** (k // 2) * comb(m - (k + 1) // 2, k // 2)
                    for k in range(m, -1, -1)])


class CycElem(Record):
    """Element of Q(zeta_p), p - 1 exact coordinates in the power basis
    1, zeta, ..., zeta^(p-2). An element fixed by conjugation is an element
    of K+; there is no second representation of K+. Arithmetic takes a
    CycElem of the same p, an int or a Fraction, and a rational element
    equals (and hashes as) its int or Fraction."""

    def __init__(self, p, coords):
        _require_odd_prime(p)
        coords = _norm_row(coords)
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for p = {p}, got {len(coords)}")
        self._set(p, coords)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p):
        return cls(p, (1,) + (0,) * (p - 2))

    @classmethod
    def from_rational(cls, q, p):
        """The rational element q, an exact scalar (see _norm_scalar)."""
        return cls(p, (q,) + (0,) * (p - 2))

    @classmethod
    def zeta(cls, p):
        return cls(p, (0, 1) + (0,) * (p - 3))

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not any(self.coords)

    def is_integral(self):
        return _plain_ints(self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    # -- field operations --------------------------------------------------

    def _same_field(self, other):
        if not isinstance(other, CycElem):
            raise TypeError("expected a CycElem")
        if other.p != self.p:
            raise ValueError(f"mixed fields p = {self.p} and p = {other.p}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.from_rational(other, self.p)
        self._same_field(other)
        return CycElem(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.p, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _norm_scalar(other)
            return CycElem(self.p, tuple(c * x for x in self.coords))
        self._same_field(other)
        p = self.p
        a, b = self.coords, other.coords
        conv = [0] * (2 * p - 3)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return CycElem(p, _reduce_mod_cyclotomic(conv, p))

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(self, _count(k, 0, "exponent"), self.one(self.p))

    # -- comparison: Record's, widened to ints and Fractions ----------------

    def __eq__(self, other):
        # read off the coordinates, so == never builds (or rejects) an element
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return super().__eq__(other)

    def __hash__(self):
        # a rational element equals its int or Fraction, so it hashes as one
        return hash(self.coords[0]) if self.is_rational() else super().__hash__()

    # -- the real subfield -------------------------------------------------

    def is_conj_fixed(self):
        """Is the element in K+? The test runs once per element (_fixed)."""
        return self._fixed

    @cached
    def _fixed(self):
        """Padded with c_(p-1) = 0, the element is fixed by conjugation,
        zeta^j -> zeta^(p-j), iff c_j = c_(p-j) for every j. Kept on the
        element, which norm_to_Q and is_totally_positive read directly."""
        c = self.coords + (0,)
        return c[1:(self.p + 1) // 2] == c[:(self.p - 1) // 2:-1]

    def conj(self):
        """Complex conjugation, zeta -> zeta^(p-1)."""
        p = self.p
        acc = [0] * p  # exponents 0..p-1
        acc[0] = self.coords[0]
        for i in range(1, p - 1):
            acc[p - i] += self.coords[i]
        return CycElem(p, _reduce_mod_cyclotomic(acc, p))

    @cached
    def _elementary(self):
        """_real_elementary of a conjugation-fixed element, on the first
        read, so its norm and its positivity share one pass."""
        return _real_elementary(self)

    def __repr__(self):
        return f"CycElem({format_element(self)!r})"


def _reduce_mod_cyclotomic(conv, p):
    """Reduce coefficients on exponents 0..len-1 into the power basis.

    zeta^p = 1 folds exponents >= p; the relation
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) removes the top exponent.
    """
    conv = list(conv) + [0] * (max(0, p - len(conv)))
    for e in range(len(conv) - 1, p - 1, -1):
        if conv[e]:
            conv[e - p] += conv[e]
            conv[e] = 0
    top = conv[p - 1]
    if top:
        for e in range(p - 1):
            conv[e] -= top
    return conv[:p - 1]


def complex_conj(a: CycElem) -> CycElem:
    return a.conj()


def regular_rep(a: CycElem) -> Matrix:
    """Matrix of multiplication by a on the power basis, columns a * zeta^j;
    zeta maps (c_0, ..., c_(p-2)) to (-c_(p-2), c_0 - c_(p-2), ...,
    c_(p-3) - c_(p-2)) because zeta^(p-1) = -(1 + ... + zeta^(p-2))."""
    c = a.coords
    cols = [c]
    for _ in range(a.p - 2):
        top = c[-1]
        c = (-top,) + tuple(x - top for x in c[:-1])
        cols.append(c)
    return Matrix.from_columns(cols)


def norm_to_Q(a: CycElem):
    """Field norm from Q(zeta_p) down to Q of a CycElem a (TypeError
    for any other type).

    A conjugation-fixed a lies in K+, and [K : K+] = 2 gives
    N_(K/Q)(a) = N_(K+/Q)(a)^2, the square of the last elementary symmetric
    function of a's own power-sum pass, which the memo then shares with a's
    positivity test.

    Any other a has N(a) = N(da) / d^(p-1), d the lcm of its denominators,
    and N(da), the product of the p - 1 conjugates of da, is lifted by the
    Chinese remainder theorem from its residues mod pairwise coprime
    moduli l_1, l_2, ... = 1 (mod p) of product M. A modulus need not be
    prime. omega = 2^((l-1)/p) mod l with omega^p = 1 and
    gcd(omega - 1, l) = 1 has order p modulo every prime factor q of l, so
    the omega^j, j = 0..p-1, differ pairwise by units mod l; then
    Phi_p = prod_(j=1..p-1) (x - omega^j) over Z/l, and the product of the
    conjugates a(omega^j) is Res(Phi_p, a) = N(a) mod l (_order_p_root
    gives the steps). The lift stops once M^2 (p-1)^(p-1) > 4 Q^(p-1), for
    Q = p sum c_k^2 - (sum c_k)^2 over da's coordinates. By Parseval over
    Z/p, Q = sum_(j=1..p-1) |a(zeta^j)|^2, and AM-GM bounds the product of
    those p - 1 squares by (Q/(p-1))^(p-1). So |N(da)| < M/2, and N(da) is
    positive, a product of (p - 1)/2 values |sigma(da)|^2 for a nonzero a
    (zero is fixed): the residue in [0, M) is N(da) itself.
    """
    if not isinstance(a, CycElem):
        raise TypeError("norm_to_Q expects a CycElem")
    if a._fixed:
        e = a._elementary[-1]
        return e * e
    return _crt_norm(a)


# ---------------------------------------------------------------------------
# the Dickson route: K+ in the eta-power basis, the reference the tests
# compare norms and positivity against


def from_eta(p, coords) -> CycElem:
    """The conjugation-fixed element sum_k coords[k] eta^k, eta =
    zeta + zeta^(-1), for (p-1)/2 exact coordinates: each eta^k expands as
    (zeta + zeta^(-1))^k = sum_j C(k, j) zeta^(k - 2j), so the exponents
    are collected mod p and reduced once."""
    _require_odd_prime(p)
    coords = _norm_row(coords)
    m = (p - 1) // 2
    if len(coords) != m:
        raise ValueError(f"need {m} coordinates for p = {p}, got {len(coords)}")
    acc = [0] * p
    for k, c in enumerate(coords):
        if c:
            for j in range(k + 1):
                acc[(k - 2 * j) % p] += comb(k, j) * c
    return CycElem(p, _reduce_mod_cyclotomic(acc, p))


def restrict_to_real(a: CycElem) -> tuple:
    """The eta-power coordinates of a conjugation-fixed a, the inverse of
    from_eta.

    A fixed a is c_0 + sum_(k=1..m) c_k D_k with m = (p-1)/2 and
    D_k = zeta^k + zeta^(-k). Eliminating D_m by 1 + D_1 + ... + D_m = 0
    leaves a = (c_0 - c_m) + sum_(k=1..m-1) (c_k - c_m) D_k, and the
    Dickson polynomials D_0 = 2, D_1 = eta, D_(k+1) = eta D_k - D_(k-1)
    write each D_k in the eta-power basis.
    """
    if not a.is_conj_fixed():
        raise ValueError("element is not fixed by conjugation")
    return _norm_row(_dickson_to_eta(a.coords, (a.p - 1) // 2))


def _dickson_to_eta(c, m):
    """The eta-power coordinates of c_0 + sum_(k=1..m) c_k D_k, as
    restrict_to_real says, reduced mod psi_p = 1 + D_1 + ... + D_m."""
    out = [c[0] - c[m]] + [0] * (m - 1)
    prev, cur = [2], [0, 1]  # D_0 and D_1 in the eta-power basis
    for k in range(1, m):
        d = c[k] - c[m]
        if d:
            for i, x in enumerate(cur):
                out[i] += d * x
        nxt = [0] + cur
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return out


def real_mult_matrix(a: CycElem) -> Matrix:
    """Matrix of multiplication by a conjugation-fixed a on the eta-power
    basis; its determinant is N_(K+/Q)(a)."""
    p = a.p
    z = CycElem.zeta(p)
    eta = z + z.conj()
    cols = []
    for _ in range((p - 1) // 2):
        cols.append(restrict_to_real(a))
        a = a * eta
    return Matrix.from_columns(cols)


# ---------------------------------------------------------------------------
# norms and total positivity by power sums


def _real_elementary(x: CycElem):
    """The tuple e_0, ..., e_m of the m = (p-1)/2 real embeddings of a
    conjugation-fixed x, integral values as int. The callers read it as
    x._elementary, which keeps the tuple on x itself, so one element's
    norm and positivity share it.

    The power sums are s_k = Tr_(K/Q)(x^k) / 2. X = d x, d the lcm of the
    denominators (1 for an integral x, whose coordinates are taken as they
    are), has e_k(x) = e_k(X) / d^k. Padded with c_(p-1) = 0 and
    shifted by o (1 + zeta + ... + zeta^(p-1)) = 0 to digits a_j >= 0, X
    lives in Z[t]/(t^p - 1), where Tr(sum a_j zeta^j) = p a_0 - sum a_j.
    The digits of X^k are nonnegative with sum S^k, S = sum a_j, so digits
    of w bits never carry while 2^w > S^k. w is the width of S^ceil(m/2),
    rounded up to whole bytes and to at least a 64-bit word, and h is the
    largest k <= m with 2^w > S^k, so h >= ceil(m/2): for k <= h, X^k is
    one packed integer product and one fold, in _codec's codec. For k > h,
    a_0(X^k) = sum_t u_t v_(p-t) for u, v the digits of X^h and X^(k-h). Newton's
    identities k e_k = sum_(i=1..k) e_(k-i) t_i, with the signed power sums
    t_i = (-1)^(i-1) s_i, are one dot product each and run in integers; an
    inexact halving or division raises AssertionError.
    """
    p = x.p
    m = (p - 1) // 2
    d, c = _cleared(x.coords + (0,))
    shift = -min(c)  # >= 0 because of the padded c_(p-1) = 0
    a = [v + shift for v in c]
    total = sum(a)
    h = (m + 1) // 2
    bound = total ** h
    nbytes = _digit_bytes(bound.bit_length())  # 2^(8 nbytes) > S^h
    pack, read = _codec(p, nbytes)
    top = 1 << 8 * nbytes
    while h < m and bound * total < top:  # X^(h+1) fits the digits too
        bound *= total
        h += 1
    nbits = 8 * nbytes * p  # bits of p digits
    low = (1 << nbits) - 1
    powers = [pack(a)]
    for k in range(2, h + 1):
        # X^k = X^(k//2) X^(k - k//2), for even k a square, which CPython
        # multiplies in about two thirds of the time of a general product
        prod = powers[k // 2 - 1] * powers[(k + 1) // 2 - 1]
        powers.append((prod & low) + (prod >> nbits))
    # a_0 of X^1, ..., X^h, then of X^(h+1), ..., X^m by dot products
    const = [v & (top - 1) for v in powers]
    if h < m:
        u = read(powers[-1])
        u = u[:1] + u[:0:-1]  # u_0, u_(p-1), ..., u_1
        const += [sum(map(mul, u, read(v))) for v in powers[:m - h]]
    t, power, sign = [], 1, 1
    for a0 in const:
        power *= total
        v = p * a0 - power
        if v & 1:
            raise AssertionError("inexact division by 2")
        t.append(sign * (v >> 1))
        sign = -sign
    e = [1]
    for k in range(1, m + 1):
        q, r = divmod(sum(map(mul, reversed(e), t)), k)
        if r:
            raise AssertionError(f"inexact division by {k}")
        e.append(q)
    return tuple(e) if d == 1 else _norm_row(Fraction(v, d ** k) for k, v in enumerate(e))


def _digit_bytes(nbits):
    """The width in bytes of a digit of nbits bits: at least one 64-bit
    word, the width _codec reads in one struct call."""
    return max(8, (nbits + 7) // 8)


@lru_cache(maxsize=1024)
def _codec(count, nbytes):
    """The Kronecker codec of count digits of nbytes bytes each: pack,
    which turns count nonnegative digits below 2^(8 nbytes) into one
    integer, and read, which turns an integer below 2^(8 nbytes count)
    back into its count digits. A digit that fits a word is one struct
    field, so one call packs or reads them all; a wider digit is one
    int.from_bytes each. Built once per digit count and width."""
    size = nbytes * count
    if nbytes == 8:
        word = struct.Struct(f"<{count}Q")

        def pack(digits):
            return int.from_bytes(word.pack(*digits), "little")

        def read(v):
            return word.unpack(v.to_bytes(size, "little"))
    else:
        def pack(digits):
            return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in digits),
                                  "little")

        def read(v):
            b = v.to_bytes(size, "little")
            return [int.from_bytes(b[i:i + nbytes], "little") for i in range(0, size, nbytes)]
    return pack, read


# ---------------------------------------------------------------------------
# conjugates modulo primes l = 1 (mod p), and the norm by the Chinese
# remainder theorem


# the supply of moduli: l = kp + 1 below 2^31, the largest first
_L_TOP = 1 << 31
# the odd primes 3 to 37 multiplied: an l with a proper factor among them
# is passed over before any power is taken
_SCREEN = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37


@lru_cache(maxsize=None)
def _generator_powers(p):
    """g^0, g^1, ..., g^(p-2) mod p for the least generator g of (Z/p)^*."""
    n = p - 1
    for g in range(2, p):
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * g % p)
        if len(set(powers)) == n:
            return tuple(powers)


def _order_p_root(p, ell):
    """omega = 2^((l-1)/p) mod l for l = 1 (mod p), if it certifies l as a
    modulus of the norm: omega^p = 1 and gcd(omega - 1, l) = 1; else None.

    l need not be prime. For each prime factor q of l, omega^p = 1 and
    omega != 1 (mod q) give omega the order p mod q, so for 0 <= j < i < p,
    omega^i - omega^j = omega^j (omega^(i-j) - 1) is a unit mod q, hence mod
    l. Each omega^j is a root of x^p - 1 over Z/l; dividing out x - omega^j
    one root at a time leaves the next a root of the quotient, because the
    differences are units, so x^p - 1 = prod_(j=0..p-1) (x - omega^j), and
    cancelling the monic x - 1, Phi_p = prod_(j=1..p-1) (x - omega^j) over
    Z/l. The resultant is a polynomial in the coefficients, so for an
    integral a, prod_(j=1..p-1) a(omega^j) = Res(Phi_p, a) = N(a) (mod l).
    Without the gcd, omega = 1 modulo some factor q, and the product is
    a(1)^(p-1) there, not N(a)."""
    omega = pow(2, (ell - 1) // p, ell)
    if pow(omega, p, ell) == 1 and gcd(omega - 1, ell) == 1:
        return omega
    return None


# a table is p - 1 words, so 1024 of them take at most 8 MB for p <= MAX_P
@lru_cache(maxsize=1024)
def _modulus_below(p, top):
    """The largest l = kp + 1 below top, k even, with no proper factor from
    3 to 37, that _order_p_root certifies, and the values
    w_r = omega^(g^r) mod l, r = 0..p-2, of its omega, packed as 64-bit
    digits. l may be composite: the certificate, not primality, makes the
    product of the conjugates mod l the norm mod l. When no such l
    remains, ArithmeticError."""
    k = (top - 2) // p
    for k in range(k - k % 2, 0, -2):  # kp + 1 is odd for even k
        ell = k * p + 1
        if not 1 < gcd(ell, _SCREEN) < ell and (omega := _order_p_root(p, ell)):
            break
    else:
        raise ArithmeticError(
            f"no modulus l = 1 (mod {p}) with an omega of order {p} is left below {top}")
    powers = [1]
    for _ in range(p - 1):
        powers.append(powers[-1] * omega % ell)
    return ell, _codec(p - 1, 8)[0]([powers[e] for e in _generator_powers(p)])


def conjugates_mod_primes(a: CycElem):
    """For an integral a, the pairs (l, conjugates) for the moduli
    l = 1 (mod p) of _modulus_below, the largest below 2^31 first:
    conjugates holds a(omega^j) mod l for j = g^s, s = 0..p-2, which is
    each j from 1 to p - 1 once, for the omega of order p that certifies l.
    An endless generator; a supply that runs out raises.

    Padded with c_(p-1) = 0 and shifted by o (1 + zeta + ... + zeta^(p-1))
    = 0 to digits a_k >= 0, a(omega^j) = a_0 + sum_t a_(g^t) omega^(j g^t).
    With j = g^s the sum is sum_t a_(g^t) w_(t+s), w_r = omega^(g^r), a
    cyclic correlation of length p - 1 (Rader): put a_(g^t) at position -t
    mod p - 1, and the product of the two packed integers, folded mod
    X^(p-1) - 1, holds a(omega^(g^s)) - a_0 at position s. Each position
    sums p - 1 products of a w below l and a digit at most max a_k, or
    below l once digits of 2^31 or more are reduced mod l, so digits of
    (p - 1) min(max a_k, 2^31) 2^31 never carry.
    """
    p, n = a.p, a.p - 1
    c = list(a.coords) + [0]
    shift = -min(c)
    a0 = c[0] + shift
    order = _generator_powers(p)
    digits = [c[order[-t]] + shift for t in range(n)]  # a_(g^(-t)) at t
    top = max(digits)
    nbytes = _digit_bytes((n * min(top, _L_TOP) * _L_TOP).bit_length())
    pack, read = _codec(n, nbytes)
    nbits = 8 * nbytes * n
    u = pack(digits) if top < _L_TOP else None
    ell = _L_TOP
    while True:
        ell, w = _modulus_below(p, ell)
        if nbytes > 8:
            w = pack(_codec(n, 8)[1](w))
        prod = (pack([v % ell for v in digits]) if u is None else u) * w
        folded = (prod & ((1 << nbits) - 1)) + (prod >> nbits)
        yield ell, [(v + a0) % ell for v in read(folded)]


def _crt_norm(a: CycElem):
    """N(a) for any a, as norm_to_Q takes it for an a that conjugation
    moves: the product of the conjugates mod each modulus, lifted by the
    Chinese remainder theorem until the bound proves the lift exact. A
    modulus may be composite, so one that shares a factor with the product
    so far is passed over."""
    p, n = a.p, a.p - 1
    d, c = _cleared(a.coords)
    big_q = p * sum(v * v for v in c) - sum(c) ** 2
    need, scale = 4 * big_q ** n, n ** n
    x, mod = 0, 1
    moduli = conjugates_mod_primes(CycElem(p, c) if d > 1 else a)
    while mod * mod * scale <= need:  # then |N(da)| < mod/2, see norm_to_Q
        ell, conj = next(moduli)
        if gcd(mod, ell) > 1:
            continue
        r = 1
        for v in conj:
            r = r * v % ell
        x += mod * ((r - x) * pow(mod, -1, ell) % ell)
        mod *= ell
    return _norm_scalar(Fraction(x, d ** n))


def is_totally_positive(a) -> bool:
    """Is every real embedding of a strictly positive? a is a
    conjugation-fixed CycElem. Zero and a CycElem that conjugation moves
    raise ValueError, other types TypeError.

    Decided exactly from the elementary symmetric functions e_k of the
    embeddings a_1, ..., a_m, which are real because K+ is totally real
    (repeated when a lies in a proper subfield). Positive a_i give positive
    e_k. Conversely, if every e_k > 0, then at any x <= 0 each term of
    prod (x - a_i) = sum_k (-1)^k e_k x^(m-k) has the sign (-1)^m and the
    constant term is nonzero, so no a_i is <= 0.
    """
    if not isinstance(a, CycElem):
        raise TypeError("is_totally_positive expects a CycElem")
    if not a._fixed:
        raise ValueError("element is not fixed by conjugation; positivity "
                         "is asked of symmetric elements")
    e = a._elementary
    if e[-1] == 0:
        # e_m is the norm, which vanishes exactly at zero
        if a.is_zero():
            raise ValueError("zero is neither positive nor negative")
        raise AssertionError("nonzero element with vanishing norm")
    return min(e[1:]) > 0


# ---------------------------------------------------------------------------
# the shared element text format: "p; c0, c1, ..." with rationals as "a/b"


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(token) -> int | Fraction:
    """An integer or a fraction a/b in plain digits, built from the matched
    digits: an int when the value is integral, else a Fraction, as
    _norm_scalar would leave it. Fraction() alone also reads exponents:
    "1e999999999" would build a billion-digit integer."""
    m = _RATIONAL.fullmatch(token)
    if m is None:
        raise ValueError("expected an integer or a fraction a/b in plain digits")
    num, den = m.groups()
    try:
        num = int(num)
        if den is None:
            return num
        q = Fraction(num, int(den))
    except (ValueError, ZeroDivisionError):  # or past int()'s digit limit
        raise ValueError("a rational has a zero denominator or too many digits") from None
    return q.numerator if q.denominator == 1 else q


def parse_element(text) -> CycElem:
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError("expected 'p; c0, c1, ...'")
    try:
        p = parse_int(head.strip())
    except ValueError:
        raise ValueError(f"bad prime field tag {head.strip()!r}") from None
    if p < 3:  # no coordinate count fits such a tag
        raise ValueError(f"p must be an odd prime, got {p}")
    parts = [t.strip() for t in tail.split(",")]
    if parts == [""]:
        raise ValueError("no coordinates given")
    if len(parts) != p - 1:
        # before CycElem tests p for primality, which is slow for a huge tag
        raise ValueError(f"{len(parts)} coordinates do not fit the field tag "
                         f"p = {p}, which needs p - 1")
    return CycElem(_cap(p, "the field tag p"), [parse_rational(t) for t in parts])


def format_element(a: CycElem) -> str:
    return f"{a.p}; " + ", ".join(str(c) for c in a.coords)
