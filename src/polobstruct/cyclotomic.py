"""Arithmetic in the p-th cyclotomic field and its maximal real subfield.

Elements of K = Q(zeta_p) are coordinate vectors over the power basis
1, zeta, ..., zeta^{p-2}; products are reduced eagerly mod the p-th
cyclotomic polynomial. The real subfield K+ = Q(eta), eta = zeta + zeta^{-1},
holds the conjugation-fixed CycElem, which norms and positivity read as it is;
the Dickson restriction to RealElem's eta-power basis is a reference route.

Norms and total positivity come from one routine. For x in K+, the power
sums of its (p-1)/2 real embeddings are halved traces Tr_(K/Q)(x^k), read
off by Tr(zeta^j) = p [j = 0] - 1, and Newton's identities turn them into
the elementary symmetric functions e_k. The norm to Q is the last of them,
and x is totally positive iff every e_k is positive (its embeddings are
real because K+ is totally real). The powers of x are packed integers
whose digit width is proven never to carry (Kronecker substitution). No
matrix and no floating point enters the verification path.

Each element pays for that power-sum pass once: the pass is memoized per
element in a bounded least-recently-used cache, so the norm and the
positivity of one certificate share it. Because [K : K+] = 2, a
conjugation-fixed a has N_(K/Q)(a) = N_(K+/Q)(a)^2 (Washington,
Introduction to Cyclotomic Fields, ch. 2), and its norm is read off the
pass on a itself rather than on the wider product a conj(a).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul

from .intlinalg import (
    IntPoly,
    Matrix,
    _norm_row,
    _norm_scalar,
    _power,
    _q_divmod,
    _q_strip,
    parse_int,
)


# the largest prime any command or model file accepts: work grows
# polynomially in p, and the cap turns an absurd p into a one-line error
# instead of a hang
MAX_P = 1000


def is_prime(n) -> bool:
    """Trial division; 2 counts, and anything but an int is not a prime."""
    if not isinstance(n, int) or n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


class _FieldElem:
    """An immutable vector of _dim(p) exact coordinates: construction, the
    additive group, scalar multiples and equality, shared by the elements
    of Q(zeta_p) and of its real subfield. Elements of different classes
    never compare equal, and arithmetic between them raises TypeError."""

    __slots__ = ("p", "coords")

    def __init__(self, p, coords):
        _require_odd_prime(p)
        coords = _norm_row(coords)
        if len(coords) != self._dim(p):
            raise ValueError(
                f"need {self._dim(p)} coordinates for p = {p}, got {len(coords)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls(p, (0,) * cls._dim(p))

    @classmethod
    def one(cls, p):
        return cls(p, (1,) + (0,) * (cls._dim(p) - 1))

    @classmethod
    def from_rational(cls, q, p):
        return cls(p, (Fraction(q),) + (0,) * (cls._dim(p) - 1))

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    # -- the additive group and scalars ------------------------------------

    def _same_field(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed fields p = {self.p} and p = {other.p}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.from_rational(other, self.p)
        self._same_field(other)
        return type(self)(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.p, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        c = _norm_scalar(Fraction(c))
        return type(self)(self.p, tuple(c * x for x in self.coords))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.from_rational(other, self.p)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.p == other.p and self.coords == other.coords

    def __hash__(self):
        # a rational element equals its int or Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.p, self.coords))


class CycElem(_FieldElem):
    """Element of Q(zeta_p) in the power basis 1, zeta, ..., zeta^(p-2)."""

    __slots__ = ()

    @staticmethod
    def _dim(p):
        return p - 1

    @classmethod
    def zeta(cls, p):
        return cls(p, (0, 1) + (0,) * (p - 3))

    # -- field operations --------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
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

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_p."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        f = [Fraction(c) for c in self.coords]
        phi = [Fraction(1)] * p
        g, u = _xgcd_poly(f, phi)
        # gcd is a nonzero constant since Phi_p is irreducible and deg f < deg Phi_p
        assert len(g) == 1 and g[0] != 0
        inv = [c / g[0] for c in u]
        inv += [Fraction(0)] * (p - 1 - len(inv))
        return CycElem(p, inv[:p - 1])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        self._same_field(other)
        return self * other.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        base = self if k >= 0 else self.inverse()
        return _power(base, abs(k), CycElem.one(self.p))

    def is_conj_fixed(self):
        """Is the element in K+? Padded with c_(p-1) = 0, it is fixed by
        conjugation, zeta^j -> zeta^(p-j), iff c_j = c_(p-j) for every j."""
        p, c = self.p, self.coords + (0,)
        return all(c[j] == c[p - j] for j in range(1, (p + 1) // 2))

    def conj(self):
        """Complex conjugation, zeta -> zeta^(p-1)."""
        p = self.p
        acc = [0] * p  # exponents 0..p-1
        acc[0] = self.coords[0]
        for i in range(1, p - 1):
            acc[p - i] += self.coords[i]
        return CycElem(p, _reduce_mod_cyclotomic(acc, p))

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


def _xgcd_poly(a, b):
    """Return (g, u) with u*a = g mod b, g the monic-free gcd as computed."""
    r0, r1 = _q_strip(a), _q_strip(b)
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = _q_divmod(r0, r1)
        r0, r1 = r1, r
        # u_new = u0 - q * u1
        new = u0 + [0] * max(0, len(q) + len(u1) - 1 - len(u0))
        for i, qc in enumerate(q):
            for j, uc in enumerate(u1):
                new[i + j] -= qc * uc
        u0, u1 = u1, _q_strip(new)
    return r0, u0


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
    """Field norm from Q(zeta_p) down to Q.

    A conjugation-fixed a lies in K+, and [K : K+] = 2 gives
    N_(K/Q)(a) = N_(K+/Q)(a)^2, the square of the last elementary symmetric
    function of a's own power-sum pass, which the memo then shares with a's
    positivity test. Any other a has norm N_(K+/Q)(a conj(a)).
    """
    if a.is_conj_fixed():
        e = _real_elementary(a)[-1]
        return e * e
    return _real_elementary(a * a.conj())[-1]


# ---------------------------------------------------------------------------
# the real subfield


class RealElem(_FieldElem):
    """Element of K+ = Q(eta) in the basis 1, eta, ..., eta^((p-3)/2)."""

    __slots__ = ()

    @staticmethod
    def _dim(p):
        return (p - 1) // 2

    def lift(self) -> CycElem:
        """The same element viewed inside Q(zeta_p): each eta^k expands as
        (zeta + zeta^(-1))^k = sum_j C(k, j) zeta^(k - 2j), so the exponents
        are collected mod p and reduced once."""
        p = self.p
        acc = [0] * p
        for k, c in enumerate(self.coords):
            if c:
                for j in range(k + 1):
                    acc[(k - 2 * j) % p] += comb(k, j) * c
        return CycElem(p, _reduce_mod_cyclotomic(acc, p))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        self._same_field(other)
        return restrict_to_real(self.lift() * other.lift())

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, k, RealElem.one(self.p))

    def __repr__(self):
        return f"RealElem(p={self.p}, coords={self.coords})"


def eta(p) -> CycElem:
    """zeta + zeta^(-1), the generator of the real subfield."""
    z = CycElem.zeta(p)
    return z + z.conj()


def restrict_to_real(a: CycElem) -> RealElem:
    """Express a conjugation-fixed element in the eta-power basis, the
    reference route into K+ that norms and positivity do not take.

    A fixed a is c_0 + sum_(k=1..m) c_k D_k with m = (p-1)/2 and
    D_k = zeta^k + zeta^(-k). Eliminating D_m by 1 + D_1 + ... + D_m = 0
    leaves a = (c_0 - c_m) + sum_(k=1..m-1) (c_k - c_m) D_k, and the
    Dickson polynomials D_0 = 2, D_1 = eta, D_(k+1) = eta D_k - D_(k-1)
    write each D_k in the eta-power basis.
    """
    if not a.is_conj_fixed():
        raise ValueError("element is not fixed by conjugation")
    p, c = a.p, a.coords
    m = (p - 1) // 2
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
    return RealElem(p, out)


def real_mult_matrix(a: RealElem) -> Matrix:
    """Matrix of multiplication by a on the eta-power basis."""
    p = a.p
    m = (p - 1) // 2
    lifted = a.lift()
    e = eta(p)
    cols = []
    cur = lifted
    for _ in range(m):
        cols.append(restrict_to_real(cur).coords)
        cur = cur * e
    return Matrix.from_columns(cols)


def norm_real_to_Q(a: RealElem):
    """Field norm from the real subfield down to Q."""
    return _real_elementary(a.lift())[-1]


# ---------------------------------------------------------------------------
# norms and total positivity by power sums


# one command's certificates fit many times over
@lru_cache(maxsize=256)
def _real_elementary(x: CycElem):
    """The tuple e_0, ..., e_m of the m = (p-1)/2 real embeddings of a
    conjugation-fixed x, integral values as int. Memoized per element, so
    callers share the tuple.

    The power sums are s_k = Tr_(K/Q)(x^k) / 2. X = d x, d the lcm of the
    denominators, has e_k(x) = e_k(X) / d^k. Padded with c_(p-1) = 0 and
    shifted by o (1 + zeta + ... + zeta^(p-1)) = 0 to digits a_j >= 0, X
    lives in Z[t]/(t^p - 1), where Tr(sum a_j zeta^j) = p a_0 - sum a_j.
    The digits of X^k are nonnegative with sum S^k, S = sum a_j, so for
    k <= h = ceil(m/2) digits of w bits, 2^w > S^h, never carry: X^k is one
    packed integer product and one fold. For k > h, a_0(X^k) =
    sum_t u_t v_(p-t) for u, v the digits of X^h and X^(k-h). Newton's
    identities k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) s_i run in integers;
    an inexact halving or division raises AssertionError.
    """
    p = x.p
    m = (p - 1) // 2
    d = lcm(*(c.denominator for c in x.coords))
    c = [int(v * d) for v in x.coords] + [0]
    shift = -min(c)  # >= 0 because of the padded c_(p-1) = 0
    a = [v + shift for v in c]
    total = sum(a)
    h = (m + 1) // 2
    nbytes = (total ** h).bit_length() // 8 + 1  # 2^(8 nbytes) > S^h
    nbits = 8 * nbytes * p  # p digits

    def unpack(v):
        b = v.to_bytes(nbytes * p, "little")
        return [int.from_bytes(b[i:i + nbytes], "little")
                for i in range(0, nbytes * p, nbytes)]

    powers = [int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in a),
                             "little")]
    for _ in range(h - 1):
        prod = powers[-1] * powers[0]
        powers.append((prod & ((1 << nbits) - 1)) + (prod >> nbits))
    # a_0 of X^1, ..., X^h, then of X^(h+1), ..., X^m by dot products
    digit = (1 << 8 * nbytes) - 1
    const = [v & digit for v in powers]
    u = unpack(powers[-1])
    u[1:] = u[:0:-1]  # u_0, u_(p-1), ..., u_1
    const += [sum(map(mul, u, unpack(v))) for v in powers[:m - h]]
    s, power = [0], 1
    for a0 in const:
        power *= total
        s.append(_exact_div(p * a0 - power, 2))
    e = [1]
    for k in range(1, m + 1):
        acc = sum(e[k - i] * s[i] if i % 2 else -e[k - i] * s[i]
                  for i in range(1, k + 1))
        e.append(_exact_div(acc, k))
    out, scale = [], 1
    for v in e:
        q, r = divmod(v, scale)
        out.append(Fraction(v, scale) if r else q)
        scale *= d
    return tuple(out)


def _exact_div(n, k):
    q, r = divmod(n, k)
    if r:
        raise AssertionError(f"inexact division by {k}")
    return q


def is_totally_positive(a) -> bool:
    """Is every real embedding of a strictly positive? a is a
    conjugation-fixed CycElem, or a RealElem, lifted once. Zero and a
    CycElem that conjugation moves raise ValueError, other types TypeError.

    Decided exactly from the elementary symmetric functions e_k of the
    embeddings a_1, ..., a_m, which are real because K+ is totally real
    (repeated when a lies in a proper subfield). Positive a_i give positive
    e_k. Conversely, if every e_k > 0, then at any x <= 0 each term of
    prod (x - a_i) = sum_k (-1)^k e_k x^(m-k) has the sign (-1)^m and the
    constant term is nonzero, so no a_i is <= 0.
    """
    if isinstance(a, RealElem):
        a = a.lift()
    elif not isinstance(a, CycElem):
        raise TypeError("is_totally_positive expects a CycElem or a RealElem")
    elif not a.is_conj_fixed():
        raise ValueError("element is not fixed by conjugation; positivity "
                         "is asked of symmetric elements")
    if a.is_zero():
        raise ValueError("zero is neither positive nor negative")
    e = _real_elementary(a)
    if e[-1] == 0:
        # e_m is the norm, nonzero for nonzero a
        raise AssertionError("nonzero element with vanishing norm")
    return all(c > 0 for c in e[1:])


# ---------------------------------------------------------------------------
# the shared element text format: "p; c0, c1, ..." with rationals as "a/b"


def parse_rational(token) -> Fraction:
    """An integer or a fraction a/b in plain digits, built from the matched
    digits. Fraction() alone also reads exponents: "1e999999999" would
    build a billion-digit integer."""
    m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", token)
    if m is None:
        raise ValueError("expected an integer or a fraction a/b in plain digits")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError):  # or past int()'s digit limit
        raise ValueError("a rational has a zero denominator or too many digits") from None


def parse_element(text) -> CycElem:
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError("expected 'p; c0, c1, ...'")
    try:
        p = parse_int(head.strip())
    except ValueError:
        raise ValueError(f"bad prime field tag {head.strip()!r}") from None
    parts = [t.strip() for t in tail.split(",")]
    if parts == [""]:
        raise ValueError("no coordinates given")
    if len(parts) != p - 1:
        # before CycElem tests p for primality, which is slow for a huge tag
        raise ValueError(f"{len(parts)} coordinates do not fit the field tag "
                         f"p = {p}, which needs p - 1")
    if p > MAX_P:
        raise ValueError(f"the field tag p must be at most {MAX_P}, got {p}")
    return CycElem(p, [parse_rational(t) for t in parts])


def format_element(a: CycElem) -> str:
    return f"{a.p}; " + ", ".join(str(c) for c in a.coords)
