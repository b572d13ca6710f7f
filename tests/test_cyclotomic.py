"""Cyclotomic field arithmetic against independent oracles.

Norms are cross-checked with a resultant computed by a textbook Euclidean
recurrence (N(a) = Res(Phi_p, f_a) for monic Phi_p) and with the Bareiss
determinant of the regular representation; the power-sum symmetric
functions behind norms and total positivity with the Hessenberg
characteristic polynomial of the multiplication matrix on K+; and total
positivity with high-precision numeric embeddings via mpmath.
"""

import operator
import random
from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polobstruct.intlinalg as intlinalg
from polobstruct.intlinalg import (
    IntPoly,
    Matrix,
    _charpoly_coeffs,
    det,
    resultant,
    solve_exact,
)
from polobstruct.cyclotomic import (
    CycElem,
    _real_elementary,
    RealElem,
    complex_conj,
    cyclotomic_poly,
    eta,
    format_element,
    is_odd_prime,
    is_totally_positive,
    norm_real_to_Q,
    norm_to_Q,
    parse_element,
    parse_rational,
    real_mult_matrix,
    regular_rep,
    restrict_to_real,
)

PRIMES = [3, 5, 7, 11]


def _q_rem(f, g):
    f = [Fraction(x) for x in f]
    g = [Fraction(x) for x in g]
    while f and f[-1] == 0:
        f.pop()
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        k = len(f) - len(g)
        for i, gc in enumerate(g):
            f[k + i] -= c * gc
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def _resultant(f, g):
    """Res(f, g) by the Euclidean recurrence; exact over Q."""
    f = [Fraction(x) for x in f]
    g = [Fraction(x) for x in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    if not f or not g:
        return Fraction(0)
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    r = _q_rem(f, g)
    if not r:
        return Fraction(0)
    dr = len(r) - 1
    return ((-1) ** (df * dg)) * g[-1] ** (df - dr) * _resultant(g, r)


def _norm_oracle(a: CycElem):
    """N(a) = Res(Phi_p, f_a): the product of f_a over the primitive roots."""
    phi = [Fraction(1)] * a.p
    fa = [Fraction(c) for c in a.coords]
    return _resultant(phi, fa)


def _embeddings_real(a: RealElem, dps=60):
    mpmath.mp.dps = dps
    p = a.p
    out = []
    for j in range(1, (p - 1) // 2 + 1):
        etaj = 2 * mpmath.cos(2 * mpmath.pi * j / p)
        out.append(sum(mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                       if isinstance(c, Fraction) else mpmath.mpf(c)
                       for c in (coef * etaj ** k for k, coef in enumerate(a.coords))))
    return out


def _rand_elem(rng, p, bound=4, rational=False):
    if rational:
        coords = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                  for _ in range(p - 1)]
    else:
        coords = [rng.randint(-bound, bound) for _ in range(p - 1)]
    return CycElem(p, coords)


# ---------------------------------------------------------------------------
# field and polynomial guards


def test_is_odd_prime():
    assert [q for q in range(2, 30) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_cyclotomic_poly():
    assert cyclotomic_poly(3) == IntPoly([1, 1, 1])
    assert cyclotomic_poly(5) == IntPoly([1, 1, 1, 1, 1])
    for bad in (2, 4, 9, 1, 0, -3):
        with pytest.raises(ValueError):
            cyclotomic_poly(bad)


# the coordinate count of each element class at p
ELEMENT_DIMS = {CycElem: lambda p: p - 1, RealElem: lambda p: (p - 1) // 2}


def test_constructor_guards():
    with pytest.raises(ValueError):
        CycElem(4, (0, 0, 0))
    with pytest.raises(ValueError):
        CycElem(5, (0, 1))
    with pytest.raises(TypeError):
        CycElem(3, (0.5, 0))
    for cls, dim in ELEMENT_DIMS.items():
        with pytest.raises(ValueError):
            cls(9, (0,) * dim(9))
        with pytest.raises(ValueError):
            cls(7, (0,) * (dim(7) + 1))
        for bad in (0.5, True):
            with pytest.raises(TypeError):
                cls(7, (bad,) + (0,) * (dim(7) - 1))
        x = cls.one(7)
        for attr in ("p", "coords", "other"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 5)


# ---------------------------------------------------------------------------
# ring structure


def test_zeta_satisfies_cyclotomic_relation():
    for p in PRIMES:
        z = CycElem.zeta(p)
        assert z ** p == CycElem.one(p)
        acc = CycElem.zero(p)
        for k in range(p):
            acc = acc + z ** k
        assert acc.is_zero()


def test_inverse_and_division():
    for p in PRIMES:
        z = CycElem.zeta(p)
        assert z * z.inverse() == CycElem.one(p)
        a = CycElem.one(p) - z
        assert (a / a) == CycElem.one(p)
        assert z ** -1 == z.inverse()
    with pytest.raises(ZeroDivisionError):
        CycElem.zero(5).inverse()


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        CycElem.zeta(3) + CycElem.zeta(5)
    for cls in ELEMENT_DIMS:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(cls.one(5), cls.one(7))
    c, r = CycElem.one(7), RealElem.one(7)
    for op in (operator.add, operator.sub, operator.mul):
        for x, y in ((c, r), (r, c)):
            with pytest.raises(TypeError):
                op(x, y)
    assert c != r and r != c
    assert CycElem.zero(7) != RealElem.zero(7)
    assert r.lift() == c and restrict_to_real(c) == r


@pytest.mark.parametrize("cls", list(ELEMENT_DIMS), ids=lambda c: c.__name__)
def test_element_classes_share_scalars_and_powers(cls):
    p = 7
    rng = random.Random(61)
    x = cls(p, [rng.randint(-3, 3) for _ in range(ELEMENT_DIMS[cls](p))])
    for s in (3, -2, Fraction(5, 4)):
        as_elem = cls.from_rational(s, p)
        assert x + s == s + x == x + as_elem
        assert x - s == x - as_elem and s - x == as_elem - x
        assert x * s == s * x == x * as_elem
        assert (x * s).coords == tuple(s * c for c in x.coords)
    assert x + 0 == x and hash(x + 0) == hash(x)
    assert cls.from_rational(Fraction(6, 3), p).coords[0] == 2
    assert isinstance(cls.from_rational(Fraction(6, 3), p).coords[0], int)
    assert x ** 0 == cls.one(p)
    assert x ** 5 == x * x * x * x * x
    if cls is CycElem:
        assert x ** -1 == x.inverse()
        with pytest.raises(TypeError):
            x ** 1.5
    else:
        with pytest.raises(ValueError):
            x ** -1


@pytest.mark.parametrize("cls", list(ELEMENT_DIMS), ids=lambda c: c.__name__)
def test_rational_elements_hash_like_the_rationals_they_equal(cls):
    p = 7
    for q in (3, -2, 0, Fraction(3, 5), Fraction(-9, 4)):
        elem = cls.from_rational(q, p)
        assert elem.is_rational() and elem == q and hash(elem) == hash(q)
        assert len({q, elem}) == 1 and len({elem, q}) == 1
        assert {q: "q"}[elem] == "q" and {elem: "e"}[q] == "e"
        table = {q: 1}
        table[elem] = 2
        assert table == {q: 2}
    x = cls(p, (3, 1) + (0,) * (ELEMENT_DIMS[cls](p) - 2))
    assert not x.is_rational() and x != 3 and len({3, x}) == 2


def test_conj_frozen_and_properties():
    z5 = CycElem.zeta(5)
    assert z5.conj() == CycElem(5, (-1, -1, -1, -1))
    assert complex_conj(complex_conj(z5)) == z5
    assert CycElem.from_rational(Fraction(7, 3), 5).conj() == CycElem.from_rational(Fraction(7, 3), 5)
    rng = random.Random(3)
    for p in PRIMES:
        a = _rand_elem(rng, p)
        b = _rand_elem(rng, p)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


# ---------------------------------------------------------------------------
# regular representation and norms


def test_regular_rep_frozen():
    assert regular_rep(CycElem.zeta(3)) == Matrix([[0, -1], [1, -1]])
    assert regular_rep(CycElem.one(7)) == Matrix.identity(6)
    assert regular_rep(CycElem.from_rational(Fraction(3, 2), 5)) == \
        Matrix.identity(4).scale(Fraction(3, 2))


def test_regular_rep_is_ring_homomorphism():
    # regular_rep shifts coordinates by the closed form for multiplication
    # by zeta and takes no CycElem product, so this checks __mul__ too
    rng = random.Random(5)
    for p in PRIMES + [13]:
        for rational in (False, True):
            a = _rand_elem(rng, p, rational=rational)
            b = _rand_elem(rng, p)
            assert regular_rep(a * b) == regular_rep(a) * regular_rep(b)
            assert regular_rep(a + b) == regular_rep(a) + regular_rep(b)


def test_norm_frozen():
    assert norm_to_Q(CycElem.one(5) - CycElem.zeta(5)) == 5
    assert norm_to_Q(CycElem.one(3) - CycElem.zeta(3)) == 3
    assert norm_to_Q(CycElem.from_rational(3, 3)) == 9
    assert norm_to_Q(CycElem.zeta(7)) == 1
    assert norm_to_Q(CycElem.zero(5)) == 0
    # 1 + zeta is a unit: its norm is the cyclotomic polynomial at -1
    assert norm_to_Q(CycElem.one(5) + CycElem.zeta(5)) == 1


def test_norm_multiplicative_and_resultant_oracle():
    rng = random.Random(7)
    for p in PRIMES:
        for _ in range(8):
            a = _rand_elem(rng, p)
            b = _rand_elem(rng, p)
            assert norm_to_Q(a * b) == norm_to_Q(a) * norm_to_Q(b)
            assert norm_to_Q(a) == _norm_oracle(a)
        r = _rand_elem(rng, p, rational=True)
        assert norm_to_Q(r) == _norm_oracle(r)


# ---------------------------------------------------------------------------
# the real subfield


def test_restrict_frozen():
    z = CycElem.zeta(5)
    assert restrict_to_real(z + z ** 4) == RealElem(5, (0, 1))
    assert restrict_to_real(CycElem.from_rational(2, 5)) == RealElem(5, (2, 0))
    with pytest.raises(ValueError):
        restrict_to_real(z)


def test_restrict_closed_form_matches_generic_solve():
    # the generic route: solve E c = a with E = [1, eta, ..., eta^(m-1)]
    # in zeta-coordinates; the Dickson closed form must give the same c
    rng = random.Random(61)
    for p in (3, 5, 7, 11, 13):
        m = (p - 1) // 2
        powers = [CycElem.one(p)]
        for _ in range(m - 1):
            powers.append(powers[-1] * eta(p))
        e = Matrix.from_columns([x.coords for x in powers])
        for rational in (False, True, True):
            x = _rand_elem(rng, p, rational=rational)
            for a in (x + x.conj(), x * x.conj()):
                c = solve_exact(e, Matrix.from_columns([a.coords])).column(0)
                r = restrict_to_real(a)
                assert r.coords == c
                assert [type(v) for v in r.coords] == [type(v) for v in c]
            if x.conj() != x:
                with pytest.raises(ValueError):
                    restrict_to_real(x)


def test_eta_relation_p5():
    # eta = zeta + zeta^4 satisfies x^2 + x - 1, so eta^2 = 1 - eta
    e = restrict_to_real(eta(5))
    assert e * e == RealElem(5, (1, -1))


def test_lift_restrict_round_trip():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(6):
            x = _rand_elem(rng, p)
            sym = x * x.conj()
            r = restrict_to_real(sym)
            assert r.lift() == sym
            s = x + x.conj()
            assert restrict_to_real(s).lift() == s


def test_lift_closed_form_matches_eta_products():
    # the binomial expansion of eta^k against sum c_k eta^k built from
    # CycElem products, and back through the Dickson restriction
    rng = random.Random(43)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = (p - 1) // 2
        e = eta(p)
        for rational in (False, True):
            for _ in range(3):
                if rational:
                    coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(m)]
                else:
                    coords = [rng.randint(-5, 5) for _ in range(m)]
                r = RealElem(p, coords)
                expected = CycElem.zero(p)
                power = CycElem.one(p)
                for c in r.coords:
                    expected = expected + power * c
                    power = power * e
                lifted = r.lift()
                assert lifted.coords == expected.coords
                assert [type(x) for x in lifted.coords] == [type(x) for x in expected.coords]
                assert restrict_to_real(lifted) == r


def test_real_norm_frozen():
    e = restrict_to_real(eta(5))
    two_plus_eta = RealElem.from_rational(2, 5) + e
    assert norm_real_to_Q(two_plus_eta) == 1
    assert norm_real_to_Q(e) == -1
    assert norm_real_to_Q(RealElem.one(7)) == 1


def test_real_norm_square_law():
    # the full norm of a conjugation-fixed element is the square of its
    # real-subfield norm
    rng = random.Random(13)
    for p in PRIMES:
        for _ in range(5):
            x = _rand_elem(rng, p, bound=3)
            if x.is_zero():
                continue
            r = restrict_to_real(x * x.conj())
            assert norm_to_Q(r.lift()) == norm_real_to_Q(r) ** 2


def test_real_mult_matrix_identity():
    for p in PRIMES:
        assert real_mult_matrix(RealElem.one(p)) == Matrix.identity((p - 1) // 2)


# ---------------------------------------------------------------------------
# total positivity


def test_totally_positive_frozen():
    e = restrict_to_real(eta(5))
    assert is_totally_positive(RealElem.from_rational(2, 5) + e)
    assert not is_totally_positive(e)
    assert is_totally_positive(RealElem.one(7))
    assert not is_totally_positive(RealElem.from_rational(-1, 7))
    assert not is_totally_positive(RealElem.from_rational(Fraction(-1, 2), 3))
    with pytest.raises(ValueError):
        is_totally_positive(RealElem.zero(5))
    # a conjugation-fixed CycElem is read as it is
    assert is_totally_positive(CycElem.one(5))
    with pytest.raises(ValueError, match="not fixed by conjugation"):
        is_totally_positive(CycElem.zeta(5))
    with pytest.raises(ValueError, match="neither positive nor negative"):
        is_totally_positive(CycElem.zero(5))
    for other in (Fraction(1), 1):
        with pytest.raises(TypeError):
            is_totally_positive(other)


def test_norms_of_conjugate_products_totally_positive():
    rng = random.Random(17)
    for p in PRIMES:
        for _ in range(6):
            x = _rand_elem(rng, p, bound=3)
            if x.is_zero():
                continue
            assert is_totally_positive(restrict_to_real(x * x.conj()))


def test_totally_positive_against_embedding_oracle():
    rng = random.Random(19)
    for p in PRIMES:
        m = (p - 1) // 2
        done = 0
        while done < 40:
            coords = [rng.randint(-5, 5) for _ in range(m)]
            a = RealElem(p, coords)
            if a.is_zero():
                continue
            emb = _embeddings_real(a)
            if min(abs(v) for v in emb) < mpmath.mpf("1e-30"):
                continue  # too close to call numerically; resample
            assert is_totally_positive(a) == all(v > 0 for v in emb)
            done += 1


def _gaussian_period_13():
    # the Gaussian period over the order-4 subgroup {1, 5, 8, 12} of
    # (Z/13)^* lies in the cubic subfield of K+, so its characteristic
    # polynomial on K+ is its minimal polynomial squared: repeated roots
    z = CycElem.zeta(13)
    return restrict_to_real(sum((z ** k for k in (1, 5, 8, 12)), CycElem.zero(13)))


def test_totally_positive_on_proper_subfield_element():
    period = _gaussian_period_13()
    emb = _embeddings_real(period)
    assert len({mpmath.nstr(v, 20) for v in emb}) == 3
    for shift in (-3, -1, 0, 1, 2, 3):
        a = period + shift
        vals = _embeddings_real(a)
        assert min(abs(v) for v in vals) > mpmath.mpf("1e-30")
        assert is_totally_positive(a) == all(v > 0 for v in vals)
    assert is_totally_positive(period + 3)
    assert not is_totally_positive(period)


# ---------------------------------------------------------------------------
# the power-sum route against the matrix routes

PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _real_samples(rng, p):
    x = _rand_elem(rng, p, bound=3)
    y = _rand_elem(rng, p, bound=3, rational=True)
    out = [restrict_to_real(x * x.conj()), restrict_to_real(y + y.conj()),
           RealElem.zero(p)]
    if p == 13:
        out.append(_gaussian_period_13())
    return out


def _conj_samples(rng, p):
    """Fixed elements (x conj(x), its negative, y + conj(y) with Fraction
    coordinates, rationals) and, apart, elements conjugation moves: x, y,
    and zeta^(p-2) alone, which is fixed only against a padded c_(p-1)."""
    x = _rand_elem(rng, p, bound=3)
    y = _rand_elem(rng, p, bound=3, rational=True)
    fixed = [x * x.conj(), -(x * x.conj()), y + y.conj(), CycElem.from_rational(3, p),
             CycElem.from_rational(Fraction(-2, 5), p)]
    moved = [CycElem.zeta(p) ** (p - 2) * Fraction(3, 2)]
    moved += [v for v in (x, y) if v.conj() != v]
    return fixed, moved


def test_positivity_of_a_fixed_cyc_elem_matches_the_dickson_route():
    rng = random.Random(3)
    for p in PRIMES_TO_31:
        fixed, moved = _conj_samples(rng, p)
        assert moved[0].coords[-1] == Fraction(3, 2) and not any(moved[0].coords[:-1])
        for a in fixed:
            assert a.is_conj_fixed() and a.conj() == a
            r = restrict_to_real(a)
            assert is_totally_positive(a) == is_totally_positive(r)
            assert norm_to_Q(a) == norm_real_to_Q(r) ** 2
        for a in moved:
            assert not a.is_conj_fixed() and a.conj() != a
            with pytest.raises(ValueError, match="not fixed by conjugation"):
                is_totally_positive(a)
            with pytest.raises(ValueError, match="not fixed by conjugation"):
                restrict_to_real(a)


def test_elementary_functions_frozen():
    e5, e7 = restrict_to_real(eta(5)), restrict_to_real(eta(7))
    # eta_5 has minimal polynomial x^2 + x - 1, eta_7 has x^3 + x^2 - 2x - 1
    assert _real_elementary(e5.lift()) == (1, -1, -1)
    assert _real_elementary((e5 + 2).lift()) == (1, 3, 1)
    assert _real_elementary(e7.lift()) == (1, -1, -2, 1)
    half = _real_elementary((e5 * Fraction(1, 2)).lift())
    assert half == (1, Fraction(-1, 2), Fraction(-1, 4))
    assert [type(v) for v in half] == [int, Fraction, Fraction]
    # the period's minimal polynomial x^3 + x^2 - 4x + 1, squared
    assert _real_elementary(_gaussian_period_13().lift()) == (1, -2, -7, 6, 18, 8, 1)
    assert _real_elementary(CycElem.zero(7)) == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# packed powers against the product chain


def _elementary_by_products(x: CycElem):
    """The power sums by m - 1 schoolbook CycElem products, then Newton's
    identities over Q: the route _real_elementary replaced."""
    p = x.p
    m = (p - 1) // 2
    s = [0]
    power = x
    for k in range(1, m + 1):
        if k > 1:
            power = power * x
        c = power.coords
        s.append(Fraction(p * c[0] - sum(c), 2))
    e = [Fraction(1)]
    for k in range(1, m + 1):
        acc = sum(e[k - i] * s[i] if i % 2 else -e[k - i] * s[i]
                  for i in range(1, k + 1))
        e.append(acc / k)
    return tuple(int(v) if v.denominator == 1 else v for v in e)


PRIMES_TO_61 = PRIMES_TO_31 + [37, 41, 43, 47, 53, 59, 61]


def _negative_fixed_elem(rng, p):
    # c_1 = c_(p-1) = 0 for a conjugation-fixed element; every other
    # coordinate is negative, so only the shift makes the digits nonnegative
    half = [-rng.randint(1, 3) for _ in range(p // 2 + 1)]
    return CycElem(p, [half[0], 0] + [half[min(j, p - j)] for j in range(2, p - 1)])


def _fixed_samples(rng, p):
    x = _rand_elem(rng, p, bound=3)
    # three Fraction coordinates, c_0 and c_2 = c_(p-2): the product chain
    # over a dense Fraction element is too slow at p = 61 to run every time
    z = CycElem.zeta(p)
    sparse = (z ** 2 + z ** (p - 2)) * Fraction(5, 6) + Fraction(rng.randint(-9, 9), 4)
    out = [x * x.conj(), -(x * x.conj()), sparse, _negative_fixed_elem(rng, p),
           CycElem.zero(p), CycElem.from_rational(5, p), CycElem.from_rational(-5, p),
           CycElem.from_rational(Fraction(-7, 3), p)]
    if p <= 31:
        y = _rand_elem(rng, p, bound=2, rational=True)
        out.append(y * y.conj())
    if p == 13:
        out.append(_gaussian_period_13().lift())
    return out


def test_packed_powers_match_product_chain():
    rng = random.Random(61)
    for p in PRIMES_TO_61:
        for x in _fixed_samples(rng, p):
            e, expected = _real_elementary(x), _elementary_by_products(x)
            assert e == expected
            assert [type(v) for v in e] == [type(v) for v in expected]


def test_packed_powers_read_the_trace_of_an_unfixed_element():
    # off the fixed field the digits of X^h are not palindromic, so only
    # the reversed dot product a_0(X^h X^j) = sum_t u_t v_(p-t) gives the
    # halved traces; scaling by 2 m! keeps every power sum and Newton step
    # integral (the elementary functions of the halved traces have
    # denominators dividing 2^k k!)
    rng = random.Random(67)
    for p in (5, 7, 11, 13):
        scale = 2 * factorial((p - 1) // 2)
        for _ in range(3):
            x = _rand_elem(rng, p, bound=3) * scale
            assert x != x.conj()
            e = _real_elementary(x)
            assert e == _elementary_by_products(x)
            assert all(type(v) is int for v in e)
    # unscaled, Tr(zeta) = -1 is odd, and 2 e_2 = 3 for 2 zeta at p = 5
    for x in (CycElem.zeta(5), CycElem.zeta(5) * 2):
        with pytest.raises(AssertionError, match="inexact division"):
            _real_elementary(x)


def _constant_elementary(c, p):
    # all m real embeddings of a rational c equal c: e_k = C(m, k) c^k
    m = (p - 1) // 2
    e = [comb(m, k) * Fraction(c) ** k for k in range(m + 1)]
    return tuple(int(v) if v.denominator == 1 else v for v in e)


@st.composite
def _constant_near_byte_boundary(draw):
    # a constant c > 0 puts all of c^k in digit 0, so that digit reaches the
    # guard's bound S^k exactly; -c moves all the mass into the shifted
    # digits 1, ..., p-1. |c| = 2^e + delta crosses byte boundaries of c^h.
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19]))
    c = (1 << draw(st.integers(0, 40))) + draw(st.integers(-2, 2))
    c = Fraction(max(c, 1), draw(st.sampled_from([1, 1, 3, 4])))
    return p, c if draw(st.booleans()) else -c


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_constant_near_byte_boundary())
@example((7, Fraction(256)))  # c^h = 2^(8h): one bit past h bytes, h = 2
@example((13, Fraction(256)))
@example((13, Fraction(-256)))
@example((5, Fraction(256)))  # h = 1: the digit c itself needs two bytes
@example((11, Fraction(255)))
@example((19, Fraction(1 << 16, 3)))
@example((3, Fraction(-1)))
def test_digit_width_guard_at_its_bound(case):
    p, c = case
    x = CycElem.from_rational(c, p)
    e = _real_elementary(x)
    expected = _constant_elementary(c, p)
    assert e == expected
    assert [type(v) for v in e] == [type(v) for v in expected]


def test_elementary_functions_match_hessenberg_charpoly():
    # prod (x - a_i) = sum_k (-1)^k e_k x^(m-k), and the Hessenberg route
    # lists the characteristic polynomial of multiplication low degree first
    rng = random.Random(31)
    for p in PRIMES_TO_31:
        m = (p - 1) // 2
        for r in _real_samples(rng, p):
            coeffs = _charpoly_coeffs(real_mult_matrix(r).to_lists())
            e = _real_elementary(r.lift())
            assert e == tuple((-1) ** k * coeffs[m - k] for k in range(m + 1))
            assert all(type(v) is int for v in e) == r.is_integral()
            assert norm_real_to_Q(r) == det(real_mult_matrix(r))


def test_norm_matches_bareiss_determinant():
    rng = random.Random(37)
    for p in PRIMES_TO_31:
        x = _rand_elem(rng, p)
        xx = x * x.conj()
        # the conjugation-fixed ones take the N_(K+/Q)(a)^2 route
        samples = [x, _rand_elem(rng, p, bound=2, rational=True), xx, -xx, xx / 3,
                   eta(p), CycElem.from_rational(Fraction(-5, 3), p), CycElem.zero(p)]
        if p == 13:
            samples.append(_gaussian_period_13().lift())
        for a in samples:
            assert norm_to_Q(a) == det(regular_rep(a))


def test_resultant_is_the_determinant_and_the_norm():
    # verify's degree check reads Res(Phi_p, a) as det a(zeta); Bareiss on
    # the regular representation and the power-sum norm are the references
    rng = random.Random(43)
    for p in [q for q in range(3, 62) if is_odd_prime(q)]:
        phi_p = cyclotomic_poly(p).coeffs
        for a in (_rand_elem(rng, p, bound=3), _rand_elem(rng, p, bound=1)):
            assert resultant(phi_p, a.coords) == det(regular_rep(a)) == norm_to_Q(a)


def test_norms_and_positivity_use_no_determinant_or_charpoly(monkeypatch):
    # the degree checks compare det(regular_rep(a))^2 with norm_to_Q(a)^2:
    # two independent computations only if the norm takes no determinant
    def refuse(*args):
        raise AssertionError("reached a generic determinant or charpoly")

    monkeypatch.setattr(intlinalg, "_bareiss_det", refuse)
    monkeypatch.setattr(intlinalg, "_hessenberg", refuse)
    e = restrict_to_real(eta(5))
    assert norm_to_Q(CycElem.one(5) - CycElem.zeta(5)) == 5
    assert norm_real_to_Q(e) == -1
    assert is_totally_positive(e + 2)
    assert not is_totally_positive(e)


# ---------------------------------------------------------------------------
# text format


def test_parse_format_round_trip():
    a = parse_element("5; 1, -1, 0, 0")
    assert a == CycElem.one(5) - CycElem.zeta(5)
    assert format_element(a) == "5; 1, -1, 0, 0"
    b = parse_element("3; 1/2, -2/3")
    assert b.coords == (Fraction(1, 2), Fraction(-2, 3))
    assert parse_element(format_element(b)) == b


def test_parse_rational_reads_plain_digits():
    for token, value in (("3", 3), ("-4", -4), ("+7", 7), ("6/4", Fraction(3, 2)),
                         ("4/2", 2), ("-0/5", 0)):
        q = parse_rational(token)
        assert type(q) is Fraction and q == value
    for bad in ("1e5", "1.5", " 3", "3/", "/3", "1/-2", "١٢"):
        with pytest.raises(ValueError, match="plain digits"):
            parse_rational(bad)
    for bad in ("1/0", "9" * 5000, "1/" + "9" * 5000):
        with pytest.raises(ValueError, match="zero denominator or too many digits"):
            parse_rational(bad)


def test_parse_errors():
    for bad in ("5", "4; 1, 2, 3", "5; 1, 2", "5; a, b, c, d", "x; 1, 1"):
        with pytest.raises(ValueError):
            parse_element(bad)


def test_parse_checks_coordinate_count_before_primality(monkeypatch):
    # trial division of a 31-digit tag would not finish; the count check
    # rejects it first
    import polobstruct.cyclotomic as cyc

    def no_primality_test(p):
        raise AssertionError("primality tested")

    monkeypatch.setattr(cyc, "is_odd_prime", no_primality_test)
    with pytest.raises(ValueError, match="coordinates"):
        parse_element("1000000000000000000000000000057; 1, 2")
    # a tag whose count fits is capped before CycElem tests it
    with pytest.raises(ValueError, match="at most 1000, got 1009"):
        parse_element("1009; " + ", ".join(["1"] * 1008))
