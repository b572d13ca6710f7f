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
from math import comb, factorial, gcd, isqrt

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
    _crt_norm,
    _dickson_to_eta,
    _generator_powers,
    _modulus_below,
    _order_p_root,
    _real_elementary,
    complex_conj,
    conjugates_by_modulus,
    cyclotomic_poly,
    format_element,
    from_eta,
    is_odd_prime,
    is_prime,
    is_totally_positive,
    norm_to_Q,
    parse_element,
    parse_rational,
    real_cyclotomic_poly,
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


def _embeddings_real(p, coords, dps=60):
    """The real embeddings of sum coords[k] eta^k, at eta = 2 cos(2 pi j / p)."""
    mpmath.mp.dps = dps
    out = []
    for j in range(1, (p - 1) // 2 + 1):
        etaj = 2 * mpmath.cos(2 * mpmath.pi * j / p)
        out.append(sum(mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                       if isinstance(c, Fraction) else mpmath.mpf(c)
                       for c in (coef * etaj ** k for k, coef in enumerate(coords))))
    return out


def _eta(p):
    """zeta + zeta^(-1), the generator of K+."""
    z = CycElem.zeta(p)
    return z + z.conj()


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


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_10_to_the_5():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == [
        n for n in range(-3, 10 ** 5) if _prime_by_trial_division(n)]
    assert not any(is_prime(v) for v in (2.0, Fraction(7), "7", None, True))


def test_is_prime_matches_the_oracles_on_seeded_odd_n_below_its_bound():
    # seeded odd n below 2^32 of every bit length, against sympy's isprime
    # (BPSW, which has no pseudoprime below 2^64). Products of two primes
    # near 2^16 have no factor below 2^15 and must test composite
    import sympy

    rng = random.Random(62)
    for _ in range(2000):
        n = rng.randrange(1, 1 << rng.randint(2, 32), 2)
        assert is_prime(n) == sympy.isprime(n), n
    near = [q for q in range((1 << 16) - 2000, 1 << 16) if sympy.isprime(q)]
    for _ in range(200):
        q, r = (rng.choice(near) for _ in range(2))
        assert not is_prime(q * r)
    assert is_prime((1 << 31) - 1)


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    # Carmichael numbers, and the least strong pseudoprimes to the first
    # k prime bases for k = 1..4: trial division finds a factor of each
    for n in (561, 41041, 2047, 1373653, 25326001, 3215031751):
        assert not is_prime(n)
    assert is_prime(3215031751 + 2) == _prime_by_trial_division(3215031753)


def test_is_prime_refuses_past_its_proven_bound():
    bound = 1 << 32
    # exact just below the bound: the largest prime below 2^32, its
    # composite neighbours, and 2^31 - 1
    assert is_prime(4294967291) and is_prime((1 << 31) - 1)
    assert not is_prime(bound - 1) and not is_prime(4294967293)
    for n in (bound, bound + 1, bound + 15, 3 * 10 ** 30, (1 << 89) - 1):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(n)


def test_cyclotomic_poly():
    assert cyclotomic_poly(3) == IntPoly([1, 1, 1])
    assert cyclotomic_poly(5) == IntPoly([1, 1, 1, 1, 1])
    for bad in (2, 4, 9, 1, 0, -3):
        with pytest.raises(ValueError):
            cyclotomic_poly(bad)


def test_constructor_guards():
    with pytest.raises(ValueError):
        CycElem(4, (0, 0, 0))
    with pytest.raises(ValueError):
        CycElem(5, (0, 1))
    with pytest.raises(TypeError):
        CycElem(3, (0.5, 0))
    # from_eta keeps the checks of CycElem: the prime, the coordinate count
    # (here (p - 1)/2) and the exact-value rule
    for build, dim in ((CycElem, lambda p: p - 1), (from_eta, lambda p: (p - 1) // 2)):
        with pytest.raises(ValueError, match="odd prime"):
            build(9, (0,) * dim(9))
        with pytest.raises(ValueError, match=f"^need {dim(7)} coordinates for p = 7, got"):
            build(7, (0,) * (dim(7) + 1))
        for bad in (0.5, True):
            with pytest.raises(TypeError):
                build(7, (bad,) + (0,) * (dim(7) - 1))
    x = CycElem.one(7)
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


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        CycElem.zeta(3) + CycElem.zeta(5)
    c = CycElem.one(7)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(CycElem.one(5), c)
        # eta-power coordinates are no element
        with pytest.raises(TypeError):
            op(c, restrict_to_real(c))
    assert from_eta(7, (1, 0, 0)) == c and restrict_to_real(c) == (1, 0, 0)


# a seeded element built each way: by its zeta-power coordinates, and a
# conjugation-fixed one by its eta-power coordinates
ELEMENTS = {
    "CycElem": lambda p, c: CycElem(p, c + [0] * (p - 1 - len(c))),
    "from_eta": lambda p, c: from_eta(p, c + [0] * ((p - 1) // 2 - len(c))),
}


@pytest.mark.parametrize("build", list(ELEMENTS.values()), ids=list(ELEMENTS))
def test_element_classes_share_scalars_and_powers(build):
    p = 7
    rng = random.Random(61)
    x = build(p, [rng.randint(-3, 3) for _ in range(3)])
    for s in (3, -2, Fraction(5, 4)):
        as_elem = CycElem.from_rational(s, p)
        assert x + s == s + x == x + as_elem
        assert x - s == x - as_elem and s - x == as_elem - x
        assert x * s == s * x == x * as_elem
        assert (x * s).coords == tuple(s * c for c in x.coords)
        assert (x * s).is_conj_fixed() == x.is_conj_fixed()
    assert x + 0 == x and hash(x + 0) == hash(x)
    assert build(p, [Fraction(6, 3)]).coords[0] == 2
    assert isinstance(build(p, [Fraction(6, 3)]).coords[0], int)
    assert x ** 0 == CycElem.one(p)
    assert x ** 5 == x * x * x * x * x
    for k in (-1, 1.5):
        with pytest.raises(ValueError):
            x ** k


@pytest.mark.parametrize("build", list(ELEMENTS.values()), ids=list(ELEMENTS))
def test_rational_elements_hash_like_the_rationals_they_equal(build):
    p = 7
    for q in (3, -2, 0, Fraction(3, 5), Fraction(-9, 4)):
        elem = build(p, [q])
        assert elem.is_rational() and elem == q and hash(elem) == hash(q)
        assert len({q, elem}) == 1 and len({elem, q}) == 1
        assert {q: "q"}[elem] == "q" and {elem: "e"}[q] == "e"
        table = {q: 1}
        table[elem] = 2
        assert table == {q: 2}
    x = build(p, [3, 1])
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
# the real subfield: a fixed CycElem against its eta-power coordinates


def test_restrict_frozen():
    z = CycElem.zeta(5)
    assert restrict_to_real(z + z ** 4) == (0, 1)
    assert restrict_to_real(CycElem.from_rational(2, 5)) == (2, 0)
    assert restrict_to_real(CycElem.from_rational(Fraction(4, 2), 5)) == (2, 0)
    assert type(restrict_to_real(CycElem.from_rational(Fraction(4, 2), 5))[0]) is int
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
            powers.append(powers[-1] * _eta(p))
        e = Matrix.from_columns([x.coords for x in powers])
        for rational in (False, True, True):
            x = _rand_elem(rng, p, rational=rational)
            for a in (x + x.conj(), x * x.conj()):
                c = solve_exact(e, Matrix.from_columns([a.coords])).column(0)
                r = restrict_to_real(a)
                assert r == c
                assert [type(v) for v in r] == [type(v) for v in c]
            if x.conj() != x:
                with pytest.raises(ValueError):
                    restrict_to_real(x)


def _dickson_reference(c, m):
    """c_0 + sum_(k=1..m) c_k D_k in eta-powers mod psi_p, by the Dickson
    recurrence on coefficient lists: the reference for _dickson_to_eta."""
    out = [c[0] - c[m]] + [0] * (m - 1)
    prev, cur = [2], [0, 1]  # D_0 and D_1
    for k in range(1, m):
        d = c[k] - c[m]
        for i, x in enumerate(cur):
            out[i] += d * x
        nxt = [0] + cur
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return out


def test_dickson_to_eta_is_the_list_recurrence():
    rng = random.Random(60)
    for m in range(1, 61):
        for bound in (1, 10 ** 3, 10 ** 30):
            c = [rng.randint(-bound, bound) for _ in range(m + 1)]
            assert _dickson_to_eta(c, m) == _dickson_reference(c, m)
        assert _dickson_to_eta([0] * (m + 1), m) == [0] * m
    # at m = 1 the width b + m is tight: 2^63 and -2^63 - 1 take a ninth byte
    for c0 in (2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1, -2 ** 63):
        assert _dickson_to_eta([c0, 0], 1) == _dickson_reference([c0, 0], 1) == [c0]
    # rationals clear their denominators first, and an integral one is an int
    for p in (3, 5, 13, 43):
        m = (p - 1) // 2
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m - 1)]
        x = from_eta(p, coords + [Fraction(4, 2)])
        r = restrict_to_real(x)
        assert r == tuple(_dickson_reference(x.coords, m)) == tuple(coords) + (2,)
        assert type(r[-1]) is int


def test_eta_relation_p5():
    # eta = zeta + zeta^4 satisfies x^2 + x - 1, so eta^2 = 1 - eta
    e = _eta(5)
    assert restrict_to_real(e) == (0, 1)
    assert e * e == from_eta(5, (1, -1))
    assert restrict_to_real(e * e) == (1, -1)


def test_lift_restrict_round_trip():
    rng = random.Random(11)
    for p in PRIMES:
        m = (p - 1) // 2
        for _ in range(6):
            x = _rand_elem(rng, p)
            sym = x * x.conj()
            assert from_eta(p, restrict_to_real(sym)) == sym
            s = x + x.conj()
            assert from_eta(p, restrict_to_real(s)) == s
            c = tuple(rng.randint(-4, 4) for _ in range(m))
            assert restrict_to_real(from_eta(p, c)) == c


def test_lift_closed_form_matches_eta_products():
    # the binomial expansion of eta^k against sum c_k eta^k built from
    # CycElem products, and back through the Dickson restriction
    rng = random.Random(43)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = (p - 1) // 2
        e = _eta(p)
        for rational in (False, True):
            for _ in range(3):
                if rational:
                    coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(m)]
                else:
                    coords = [rng.randint(-5, 5) for _ in range(m)]
                expected = CycElem.zero(p)
                power = CycElem.one(p)
                for c in coords:
                    expected = expected + power * c
                    power = power * e
                lifted = from_eta(p, coords)
                assert lifted.is_conj_fixed()
                assert lifted.coords == expected.coords
                assert [type(x) for x in lifted.coords] == [type(x) for x in expected.coords]
                assert restrict_to_real(lifted) == tuple(coords)


def test_real_norm_frozen():
    # N_(K+/Q) as the determinant of multiplication on the eta-power basis
    e = _eta(5)
    assert det(real_mult_matrix(e + 2)) == 1
    assert det(real_mult_matrix(e)) == -1
    assert det(real_mult_matrix(CycElem.one(7))) == 1
    assert _real_elementary(e)[-1] == -1


def test_real_norm_square_law():
    # the full norm of a conjugation-fixed element is the square of its
    # real-subfield norm
    rng = random.Random(13)
    for p in PRIMES:
        for _ in range(5):
            x = _rand_elem(rng, p, bound=3)
            if x.is_zero():
                continue
            r = x * x.conj()
            assert norm_to_Q(r) == det(real_mult_matrix(r)) ** 2


def test_real_mult_matrix_identity():
    for p in PRIMES:
        assert real_mult_matrix(CycElem.one(p)) == Matrix.identity((p - 1) // 2)
    with pytest.raises(ValueError, match="not fixed by conjugation"):
        real_mult_matrix(CycElem.zeta(5))


# ---------------------------------------------------------------------------
# total positivity


def test_totally_positive_frozen():
    e = _eta(5)
    assert is_totally_positive(e + 2)
    assert not is_totally_positive(e)
    assert is_totally_positive(CycElem.one(7))
    assert not is_totally_positive(CycElem.from_rational(-1, 7))
    assert not is_totally_positive(CycElem.from_rational(Fraction(-1, 2), 3))
    with pytest.raises(ValueError, match="not fixed by conjugation"):
        is_totally_positive(CycElem.zeta(5))
    with pytest.raises(ValueError, match="neither positive nor negative"):
        is_totally_positive(CycElem.zero(5))
    # a CycElem is the only element of K+; its eta-power coordinates are none
    for other in (Fraction(1), 1, restrict_to_real(e + 2)):
        with pytest.raises(TypeError, match="^is_totally_positive expects a CycElem$"):
            is_totally_positive(other)


def test_norms_of_conjugate_products_totally_positive():
    rng = random.Random(17)
    for p in PRIMES:
        for _ in range(6):
            x = _rand_elem(rng, p, bound=3)
            if x.is_zero():
                continue
            assert is_totally_positive(x * x.conj())


def test_totally_positive_against_embedding_oracle():
    rng = random.Random(19)
    for p in PRIMES:
        m = (p - 1) // 2
        done = 0
        while done < 40:
            coords = [rng.randint(-5, 5) for _ in range(m)]
            if not any(coords):
                continue
            emb = _embeddings_real(p, coords)
            if min(abs(v) for v in emb) < mpmath.mpf("1e-30"):
                continue  # too close to call numerically; resample
            assert is_totally_positive(from_eta(p, coords)) == all(v > 0 for v in emb)
            done += 1


def _gaussian_period_13():
    # the Gaussian period over the order-4 subgroup {1, 5, 8, 12} of
    # (Z/13)^* lies in the cubic subfield of K+, so its characteristic
    # polynomial on K+ is its minimal polynomial squared: repeated roots
    z = CycElem.zeta(13)
    return sum((z ** k for k in (1, 5, 8, 12)), CycElem.zero(13))


def test_totally_positive_on_proper_subfield_element():
    period = _gaussian_period_13()
    emb = _embeddings_real(13, restrict_to_real(period))
    assert len({mpmath.nstr(v, 20) for v in emb}) == 3
    for shift in (-3, -1, 0, 1, 2, 3):
        a = period + shift
        vals = _embeddings_real(13, restrict_to_real(a))
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
    out = [x * x.conj(), y + y.conj(), CycElem.zero(p)]
    if p == 13:
        out.append(_gaussian_period_13())
    return out


def _charpoly_elementary(a: CycElem):
    """e_0, ..., e_m of a fixed a from the Hessenberg characteristic
    polynomial of multiplication on the eta-power basis, which lists
    prod (x - a_i) = sum_k (-1)^k e_k x^(m-k) low degree first."""
    m = (a.p - 1) // 2
    coeffs = _charpoly_coeffs(real_mult_matrix(a).to_lists())
    return tuple((-1) ** k * coeffs[m - k] for k in range(m + 1))


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
    # the Dickson route: the characteristic polynomial of multiplication on
    # the eta-power basis, whose roots are the real embeddings
    rng = random.Random(3)
    for p in PRIMES_TO_31:
        fixed, moved = _conj_samples(rng, p)
        assert moved[0].coords[-1] == Fraction(3, 2) and not any(moved[0].coords[:-1])
        for a in fixed:
            assert a.is_conj_fixed() and a.conj() == a
            assert from_eta(p, restrict_to_real(a)) == a
            assert is_totally_positive(a) == (min(_charpoly_elementary(a)[1:]) > 0)
            assert norm_to_Q(a) == det(real_mult_matrix(a)) ** 2
        for a in moved:
            assert not a.is_conj_fixed() and a.conj() != a
            with pytest.raises(ValueError, match="not fixed by conjugation"):
                is_totally_positive(a)
            with pytest.raises(ValueError, match="not fixed by conjugation"):
                restrict_to_real(a)


def test_elementary_functions_frozen():
    e5, e7 = _eta(5), _eta(7)
    # eta_5 has minimal polynomial x^2 + x - 1, eta_7 has x^3 + x^2 - 2x - 1
    assert _real_elementary(e5) == (1, -1, -1)
    assert _real_elementary(e5 + 2) == (1, 3, 1)
    assert _real_elementary(e7) == (1, -1, -2, 1)
    half = _real_elementary(e5 * Fraction(1, 2))
    assert half == (1, Fraction(-1, 2), Fraction(-1, 4))
    assert [type(v) for v in half] == [int, Fraction, Fraction]
    # the period's minimal polynomial x^3 + x^2 - 4x + 1, squared
    assert _real_elementary(_gaussian_period_13()) == (1, -2, -7, 6, 18, 8, 1)
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
        out.append(_gaussian_period_13())
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
@example((5, Fraction((1 << 64) - 1)))  # S^h = 2^64 - 1: a digit is one 8-byte word
@example((5, Fraction(1 << 64)))  # S^h = 2^64: a digit needs 9 bytes
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
        for r in _real_samples(rng, p):
            e = _real_elementary(r)
            assert e == _charpoly_elementary(r)
            assert all(type(v) is int for v in e) == r.is_integral()
            assert e[-1] == det(real_mult_matrix(r))


def test_norm_matches_bareiss_determinant():
    rng = random.Random(37)
    for p in PRIMES_TO_31:
        x = _rand_elem(rng, p)
        xx = x * x.conj()
        # the conjugation-fixed ones take the N_(K+/Q)(a)^2 route
        samples = [x, _rand_elem(rng, p, bound=2, rational=True), xx, -xx,
                   xx * Fraction(1, 3), _eta(p), CycElem.from_rational(Fraction(-5, 3), p), CycElem.zero(p)]
        if p == 13:
            samples.append(_gaussian_period_13())
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


def test_real_cyclotomic_poly_is_phi_p_over_the_real_subfield():
    # x^m psi_p(x + 1/x) = Phi_p(x), expanding x^m (x + 1/x)^k as
    # sum_j C(k, j) x^(m + k - 2j)
    for p in [q for q in range(3, 102) if is_odd_prime(q)]:
        psi, m = real_cyclotomic_poly(p).coeffs, (p - 1) // 2
        assert len(psi) == m + 1 and psi[-1] == 1
        out = [0] * (2 * m + 1)
        for k, c in enumerate(psi):
            for j in range(k + 1):
                out[m + k - 2 * j] += c * comb(k, j)
        assert IntPoly(out) == cyclotomic_poly(p)
    assert real_cyclotomic_poly(5) == IntPoly([-1, 1, 1])
    assert real_cyclotomic_poly(13) is real_cyclotomic_poly(13)
    for bad in (2, 9, 1, 3.0, True):
        with pytest.raises(ValueError):
            real_cyclotomic_poly(bad)


# ---------------------------------------------------------------------------
# the multimodular core: conjugates mod primes l = 1 (mod p) and the CRT norm


def _power_sum_norm(a):
    # the norm as the last elementary function of the power-sum pass on the
    # conjugation-fixed a conj(a)
    return _real_elementary(a * a.conj())[-1]


def _crt_samples(rng, p):
    """Seeded elements, most of which conjugation moves: small and rational
    ones, a single nonzero coordinate, zeros, all-negative coordinates, and
    coordinates so wide that a packed digit needs more than one word."""
    n = p - 1
    wide = rng.randint(1 << 64, 1 << 70)
    return [
        _rand_elem(rng, p, bound=3),
        _rand_elem(rng, p, bound=3, rational=True),
        CycElem.zeta(p) ** rng.randrange(1, n) * rng.choice((-3, 2, Fraction(5, 7))),
        CycElem(p, [0] * (n - 1) + [-4]),
        CycElem(p, [rng.choice((0, 0, 0, 1, -2)) for _ in range(n)]),
        CycElem(p, [-rng.randint(1, 9) for _ in range(n)]),
        CycElem(p, [rng.randint(-wide, wide) for _ in range(n)]),
        CycElem(p, [rng.randint(1 << 29, 1 << 31) for _ in range(n)]),
        CycElem(p, [Fraction(rng.randint(-1 << 40, 1 << 40), rng.randint(1, 6))
                    for _ in range(n)]),
    ]


def test_crt_norm_matches_the_power_sums_for_every_p_to_61():
    rng = random.Random(97)
    for p in PRIMES_TO_61:
        # the wide samples cost the power-sum oracle most: p <= 31 and 61
        samples = _crt_samples(rng, p)
        for a in samples if p <= 31 or p == 61 else samples[:6]:
            got, expected = _crt_norm(a), _power_sum_norm(a)
            assert got == expected and type(got) is type(expected), (p, a)
            assert norm_to_Q(a) == got


def test_crt_norm_matches_the_power_sums_on_seeded_samples_to_211():
    rng = random.Random(211)
    for p in (67, 97, 211):
        a = _rand_elem(rng, p, bound=3, rational=p < 100)
        assert a != a.conj()
        assert _crt_norm(a) == norm_to_Q(a) == _power_sum_norm(a)


def test_crt_norm_matches_bareiss_determinant():
    rng = random.Random(31)
    for p in PRIMES_TO_31:
        for a in _crt_samples(rng, p)[:6]:
            assert _crt_norm(a) == det(regular_rep(a))


def _gauss_sum(p):
    """sum (k/p) zeta^k: every conjugate has |g(zeta^j)|^2 = p."""
    acc = [0] * p
    for k in range(1, p):
        acc[k] = 1 if pow(k, (p - 1) // 2, p) == 1 else -1
    return CycElem(p, [c - acc[p - 1] for c in acc[:p - 1]])


def test_gauss_sum_attains_the_prime_count_bound():
    # Q = p sum c_k^2 - (sum c_k)^2 = (p - 1) p, so the AM-GM bound
    # (Q/(p-1))^((p-1)/2) = p^((p-1)/2) is |N(g)| itself: a CRT that stopped
    # one prime short would read the residue of N(g) on the wrong side
    for p in PRIMES_TO_61:
        g = _gauss_sum(p)
        c = g.coords
        assert p * sum(v * v for v in c) - sum(c) ** 2 == (p - 1) * p
        assert g * g == CycElem.from_rational(p if p % 4 == 1 else -p, p)
        assert abs(_crt_norm(g)) == p ** ((p - 1) // 2)
        assert _crt_norm(g * 3) == 3 ** (p - 1) * _crt_norm(g)


def test_conjugates_are_the_values_at_the_powers_of_an_order_p_root():
    # what the supply promises, and nothing more: each l = 1 (mod p) lies
    # below the last, has no proper factor from 3 to 37, and is certified
    # by omega = 2^((l-1)/p) of order p; the conjugates are a(omega^(g^s))
    rng = random.Random(5)
    for p in (3, 5, 13, 43):
        a = _rand_elem(rng, p, bound=3)
        c = a.coords + (0,)
        order = _generator_powers(p)
        assert sorted(order) == list(range(1, p))
        supply, last = conjugates_by_modulus(a), 1 << 31
        for _ in range(3):
            ell, conj = next(supply)
            assert ell % p == 1 and ell < last
            assert all(ell % q or ell == q for q in range(3, 38))
            omega = pow(2, (ell - 1) // p, ell)
            assert pow(omega, p, ell) == 1 and gcd(omega - 1, ell) == 1
            assert conj == [sum(v * pow(omega, j * k, ell) for k, v in enumerate(c)) % ell
                            for j in order]
            last = ell


def test_a_modulus_supply_that_runs_out_raises(monkeypatch):
    import polobstruct.cyclotomic as cyc

    # below 60, the l = 1 (mod 3) that 2^((l-1)/3) certifies are 37, 19, 13
    # and 7: it is 1 mod 43 and mod 31, 14 mod 55 has no order 3, and 49
    # and 25 have a proper factor of at most 37
    monkeypatch.setattr(cyc, "_L_TOP", 60)
    assert _crt_norm(CycElem(3, [2, 1])) == 3
    with pytest.raises(ArithmeticError, match="^no modulus l = 1 "):
        _crt_norm(CycElem(3, [10 ** 9, 1]))


def _conjugate_product(a, omega, ell):
    """prod_(j=1..p-1) a(omega^j) mod l, evaluated term by term."""
    r = 1
    for j in range(1, a.p):
        r = r * sum(v * pow(omega, j * k, ell) for k, v in enumerate(a.coords)) % ell
    return r


def test_a_composite_modulus_with_an_order_p_root_gives_the_norm():
    # 341 = 11 * 31 is a base-2 pseudoprime; omega = 2^68 has order 5 mod 11
    # and mod 31, so the product of the conjugates is N(a) mod 341
    assert _order_p_root(5, 341) == 256 == pow(2, 68, 341)
    rng = random.Random(341)
    for _ in range(200):
        a = _rand_elem(rng, 5, bound=9)
        assert _conjugate_product(a, 256, 341) == _norm_oracle(a) % 341


def test_a_modulus_with_omega_one_modulo_a_factor_is_refused():
    # 561 = 3 * 11 * 17: omega = 2^112 has omega^5 = 1 mod 561 but is 1 mod
    # 3 and mod 17, where the product is a(1)^4, not N(a)
    omega = pow(2, 112, 561)
    assert pow(omega, 5, 561) == 1 and gcd(omega - 1, 561) == 51
    assert _order_p_root(5, 561) is None
    rng = random.Random(561)
    wrong = sum(_conjugate_product(a, omega, 561) != _norm_oracle(a) % 561
                for a in (_rand_elem(rng, 5, bound=9) for _ in range(200)))
    assert wrong > 150


def test_the_lift_passes_over_the_factors_of_a_composite_modulus(monkeypatch):
    import polobstruct.cyclotomic as cyc

    # below 342, p = 5 takes 341 = 11 * 31 first; 31 and 11 come last and
    # share a factor with it, so the lift passes over them: 341 and the
    # moduli from 331 to 41 bound it, and a norm past them runs out
    monkeypatch.setattr(cyc, "_L_TOP", 342)
    assert _modulus_below(5, 342)[0] == 341
    a = CycElem(5, [10 ** 5, 3, -7, 1])
    assert _crt_norm(a) == _norm_oracle(a)
    with pytest.raises(ArithmeticError, match="^no modulus l = 1 "):
        _crt_norm(CycElem(5, [10 ** 9, 3, -7, 1]))


def test_the_lift_passes_over_a_modulus_that_shares_a_factor(monkeypatch):
    # every modulus comes twice; the second shares all its factors with the
    # product so far and must not enter the lift
    import polobstruct.cyclotomic as cyc

    supply = cyc.conjugates_by_modulus

    def twice(a):
        for pair in supply(a):
            yield pair
            yield pair

    rng = random.Random(2)
    expected = {p: [_crt_norm(a) for a in _crt_samples(rng, p)[:7]] for p in (5, 43)}
    monkeypatch.setattr(cyc, "conjugates_by_modulus", twice)
    rng = random.Random(2)
    for p in (5, 43):
        assert [_crt_norm(a) for a in _crt_samples(rng, p)[:7]] == expected[p]


def test_a_composite_modulus_at_p_79_keeps_the_norm_exact(monkeypatch):
    # at p = 79 the 28th modulus below 2^31 is 2147429509 = 3319 * 647011
    # (the 28th prime l = 1 (mod 79) is 2147429351); a norm whose lift
    # reaches it must still be the square root of the sub-resultant degree
    import polobstruct.cyclotomic as cyc
    from polobstruct.twist import central_degree

    ell, moduli = cyc._L_TOP, []
    for _ in range(28):
        ell = _modulus_below(79, ell)[0]
        moduli.append(ell)
    assert moduli[-1] == 2147429509 == 3319 * 647011
    assert not _prime_by_trial_division(moduli[-1])
    assert all(map(_prime_by_trial_division, moduli[:-1]))
    supply, seen = cyc.conjugates_by_modulus, []

    def spy(a):
        for ell, conj in supply(a):
            seen.append(ell)
            yield ell, conj

    monkeypatch.setattr(cyc, "conjugates_by_modulus", spy)
    rng = random.Random(79)
    a = CycElem(79, [rng.randint(-1000, 1000) for _ in range(78)])
    norm = _crt_norm(a)
    assert seen[:28] == moduli and len(seen) > 28
    assert norm > 0 and norm * norm == central_degree(a)


def test_the_norm_takes_no_primality_test(monkeypatch):
    import polobstruct.cyclotomic as cyc

    a = _rand_elem(random.Random(43), 43, bound=3)
    assert a != a.conj()
    expected, calls = _power_sum_norm(a), []
    monkeypatch.setattr(cyc, "is_prime", lambda n: calls.append(n) or is_prime(n))
    _modulus_below.cache_clear()
    assert _crt_norm(a) == expected
    assert calls == []


def test_norms_and_positivity_use_no_determinant_or_charpoly(monkeypatch):
    # the degree checks compare det(regular_rep(a))^2 with norm_to_Q(a)^2:
    # two independent computations only if the norm takes no determinant
    def refuse(*args):
        raise AssertionError("reached a generic determinant or charpoly")

    monkeypatch.setattr(intlinalg, "_bareiss_det", refuse)
    monkeypatch.setattr(intlinalg, "_hessenberg", refuse)
    e = _eta(5)
    assert norm_to_Q(CycElem.one(5) - CycElem.zeta(5)) == 5
    assert norm_to_Q(e) == 1
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
        assert type(q) is type(value) and q == value  # int when integral
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


def test_parse_rejects_a_tag_below_3_as_not_prime():
    # no coordinate count fits such a tag, so it is not reported as a count
    for text in ("-5; 1, 2, 3, 4", "0; 1", "1; 5"):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            parse_element(text)


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
