"""Exact linear algebra: frozen small cases plus oracle-backed properties.

Oracles used here are deliberately naive and independent of the library
implementations: cofactor expansion for determinants, Lagrange interpolation
of det(xI - A) for charpoly, and gcds of k-by-k minors for the Smith
invariant factors.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polobstruct.intlinalg import (
    IntPoly,
    Matrix,
    SnfResult,
    charpoly,
    col_hnf,
    col_lattice_contains,
    col_lattice_eq,
    det,
    hnf_row,
    int_kernel,
    leading_principal_minors,
    matrix_to_json,
    minpoly,
    resultant,
    snf,
    solve_exact,
    _hnf_coords,
    _matmul,
)
from polobstruct.cyclotomic import real_cyclotomic_poly
from polobstruct.twist import build_zeta


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * _cofactor_det(minor)
        sign = -sign
    return total


def _interp_charpoly(a: Matrix):
    """det(xI - A) by evaluation at x = 0..n and Lagrange interpolation."""
    n = a.nrows
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - a[i, j] for j in range(n)] for i in range(n)]
        ys.append(_cofactor_det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            new = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k] += c * (-xj)
                new[k + 1] += c
            num = new
            den *= xi - xj
        for k, c in enumerate(num):
            coeffs[k] += Fraction(ys[i]) * c / den
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly([int(c) for c in coeffs])


def _minor_gcds(a: Matrix):
    """gcd of all k-by-k minors for k = 1..min(m, n); 0 once all minors vanish."""
    import math

    m, n = a.shape
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows_idx in itertools.combinations(range(m), k):
            for cols_idx in itertools.combinations(range(n), k):
                sub = [[a[i, j] for j in cols_idx] for i in rows_idx]
                g = math.gcd(g, _cofactor_det(sub))
            if g == 1:
                break
        out.append(g)
    return out


def _random_matrix(rng, m, n, bound=20):
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def _rank_deficient(rng, m, n):
    """A product through an inner dimension below min(m, n) when there is one."""
    k = rng.randint(1, max(1, min(m, n) - 1))
    return _random_matrix(rng, m, k, bound=4) * _random_matrix(rng, k, n, bound=4)


# ---------------------------------------------------------------------------
# Matrix basics


def test_entry_normalization_and_float_rejection():
    a = Matrix([[Fraction(4, 2), 1], [0, Fraction(1, 3)]])
    assert isinstance(a[0, 0], int) and a[0, 0] == 2
    assert a[1, 1] == Fraction(1, 3)
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        Matrix([[True]])


def test_is_integral_is_a_fresh_scan():
    # is_integral reads what construction decided; it must agree with a
    # scan of the stored entries, also after Fraction(4, 2) became 2
    def scan(a):
        return all(type(x) is int for r in a.rows for x in r)

    class Int(int):
        pass

    rng = random.Random(31)
    half = Matrix([[Fraction(1, 2), 1], [0, 3]])
    mats = [_random_matrix(rng, 3, 4), Matrix([[Fraction(4, 2), 1], [0, 3]]),
            Matrix([[Int(5), 1]]), half,
            Matrix.zero(0, 3), Matrix.zero(2, 3), Matrix.identity(4), Matrix.identity(0),
            Matrix.from_columns([(1, Fraction(6, 3)), (Fraction(1, 3), 2)]),
            Matrix.from_columns([(1, Fraction(6, 3)), (4, 2)]),
            half.transpose(), _random_matrix(rng, 2, 2).transpose(),
            _matmul(half, Matrix([[2, 0], [0, 1]])), _matmul(half, half),
            Matrix([[Fraction(3)]], ncols=1)]
    for a in mats:
        assert a.is_integral() is scan(a), a
    assert [a.is_integral() for a in mats[:4]] == [True, True, True, False]
    assert _matmul(half, Matrix([[2, 0], [0, 1]])).is_integral()
    # the kept answer takes no part in ==, hash or repr
    a, b = Matrix([[Fraction(4, 2)]]), Matrix([[2]])
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_int_rows_skip_coercion_and_keep_every_check():
    # a row of plain ints is kept as it is; every other row is coerced
    # entry by entry, in Matrix(...) and in mul_vector alike
    class Int(int):
        pass

    def stored(r):
        return Matrix([r]).rows[0]

    def applied(r):
        return Matrix.identity(2).mul_vector(r)

    for build in (stored, applied):
        for bad in ([1, True], [1, 0.5], [False, 0]):
            with pytest.raises(TypeError):
                build(bad)
        assert build([1, Fraction(1, 3)]) == (1, Fraction(1, 3))
        assert build([Fraction(4, 2), 1]) == (2, 1)
        assert build(iter([3, -4])) == (3, -4)
    for r in ([Int(3), 1], [Fraction(4, 2), 1]):
        assert [type(x) for x in stored(r)] == [int, int]
    assert Matrix(iter([iter([1, 2])])) == Matrix([[1, 2]])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.identity(2).mul_vector([1, 2, 3])


def test_from_columns_rejects_ragged_columns_and_disagreeing_nrows():
    assert Matrix.from_columns([(1, 2), (3, 4)]) == Matrix([[1, 3], [2, 4]])
    assert Matrix.from_columns([(1, 2)], nrows=2) == Matrix([[1], [2]])
    assert Matrix.from_columns([], nrows=3).shape == (3, 0)
    # k empty columns over no rows once came back 0 x 0
    assert Matrix.from_columns([(), ()], nrows=0).shape == (0, 2)
    # a short later column once dropped the extra entry of a long one, or
    # raised IndexError; nrows was ignored whenever columns were given
    with pytest.raises(ValueError, match="ragged columns"):
        Matrix.from_columns([(1,), (3, 4)])
    with pytest.raises(ValueError, match="ragged columns"):
        Matrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError, match="nrows"):
        Matrix.from_columns([(1, 2)], nrows=3)


def _naive_product(a, b):
    m, k, n = a.nrows, a.ncols, b.ncols
    return Matrix([[sum(a[i, t] * b[t, j] for t in range(k)) for j in range(n)]
                   for i in range(m)], ncols=n)


def test_matmul_matches_naive_and_big_entries():
    rng = random.Random(101)
    for _ in range(20):
        a = _random_matrix(rng, 4, 3)
        b = _random_matrix(rng, 3, 5)
        prod = a * b
        for i in range(4):
            for j in range(5):
                assert prod[i, j] == sum(a[i, k] * b[k, j] for k in range(3))
    big = 10 ** 30
    a = Matrix([[big, 1], [0, big]])
    assert (a * a)[0, 1] == 2 * big

    cases = []
    # entries at +-2^63 and beyond, where a fixed-width product would wrap
    edge = [2 ** 63, -2 ** 63, 2 ** 63 - 1, -2 ** 63 + 1, 2 ** 64 + 1, -10 ** 30,
            0, 1, -1]
    for _ in range(20):
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        cases.append((Matrix([[rng.choice(edge) for _ in range(k)] for _ in range(m)]),
                      Matrix([[rng.choice(edge) for _ in range(n)] for _ in range(k)])))
    # Fraction entries, alone and mixed with big ints
    for _ in range(10):
        cases.append((
            Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
                    for _ in range(2)]),
            Matrix([[rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                 rng.choice(edge)]) for _ in range(4)]
                    for _ in range(3)])))
    # zero rows and columns on either side
    c = _random_matrix(rng, 4, 4)
    zero_row = Matrix([[0] * 4] + c.to_lists()[1:])
    zero_col = Matrix([[0] + r[1:] for r in c.to_lists()])
    cases += [(zero_row, c), (c, zero_row), (zero_col, c), (c, zero_col),
              (Matrix.zero(3, 4), c), (c, Matrix.zero(4, 2))]
    # empty shapes: 0 x k times k x n, and m x 0 times 0 x n
    cases += [(Matrix.zero(0, 3), _random_matrix(rng, 3, 2)),
              (Matrix.zero(3, 0), Matrix.zero(0, 2)),
              (Matrix.zero(0, 0), Matrix.zero(0, 4)),
              (_random_matrix(rng, 2, 3), Matrix.zero(3, 0))]
    # zeta and its transpose against a dense factor, as the construction uses them
    z = build_zeta(13)
    dense = _random_matrix(rng, 12, 12)
    cases += [(z, dense), (dense, z), (z.transpose(), dense), (dense, z.transpose())]
    vector_entries = edge + [2 ** 64, -2 ** 64, Fraction(-7, 3), Fraction(1, 2)]
    for a, b in cases:
        prod = _matmul(a, b)
        assert prod == _naive_product(a, b) and prod.shape == (a.nrows, b.ncols)
        for mat in (a, b, prod):
            _check_listing_and_mul_vector(
                mat, [rng.choice(vector_entries) for _ in range(mat.ncols)])
    # a Fraction row whose sum is integral, by an int and a mixed vector
    halves = Matrix([[Fraction(1, 2), Fraction(1, 2), 0], [1, 0, 3],
                     [0, Fraction(2, 3), Fraction(-1, 3)]])
    for v in ([1, 1, 2], [2, Fraction(3, 2), 5], [Fraction(1, 3), 3, 6]):
        _check_listing_and_mul_vector(halves, v)
    assert halves.mul_vector([1, 1, 2])[0] == 1
    assert _matmul(Matrix.zero(0, 3), Matrix.zero(3, 2)) == Matrix.zero(0, 2)
    assert _matmul(Matrix.zero(3, 0), Matrix.zero(0, 2)) == Matrix.zero(3, 2)
    # a Fraction product that is integral comes back as int entries
    half = Matrix([[Fraction(1, 2)]])
    assert _matmul(half, Matrix([[2]])).rows == ((1,),)
    assert type(_matmul(half, Matrix([[2]]))[0, 0]) is int



def _near(magnitude):
    """Small entries, or entries within 3 of +-magnitude."""
    return (st.integers(-3, 3)
            | st.integers(magnitude - 3, magnitude + 3)
            | st.integers(-magnitude - 3, -magnitude + 3))


def _grid(draw, m, n, entries):
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


@st.composite
def _factor_pair(draw):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    ea = draw(st.sampled_from([30, 31, 32]) | st.integers(1, 61))
    # b's magnitude puts max|A| * max|B| * k within a factor 4 of 2^62
    eb = max(0, 62 - ea - k.bit_length() + draw(st.integers(-1, 2)))
    return _grid(draw, m, k, _near(2 ** ea)), _grid(draw, k, n, _near(2 ** eb))


def _bigint_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_factor_pair())
@example(([[2 ** 31]], [[2 ** 31 - 1]]))  # a product just under 2^62
@example(([[2 ** 31, 2 ** 31]], [[2 ** 31 - 1], [2 ** 31 - 1]]))  # a sum past it
@example(([[-(2 ** 31), 2 ** 31 - 1]], [[-(2 ** 30)], [-(2 ** 30)]]))
def test_matmul_matches_bigint_products_around_2_to_the_62_and_63(pair):
    """_matmul agrees exactly with plain bigint products whose entries and
    accumulators straddle 2^62 and 2^63, where a fixed-width product would
    overflow."""
    a, b = pair
    assert _matmul(Matrix(a), Matrix(b)).rows == _bigint_product(a, b)


def _check_listing_and_mul_vector(a, v):
    # the listing holds exactly the nonzero entries, by increasing column
    listed = {}
    for i, row in enumerate(a.row_nonzeros()):
        assert [j for j, _ in row] == sorted(j for j, _ in row)
        listed.update(((i, j), x) for j, x in row)
    assert len(a.row_nonzeros()) == a.nrows
    assert listed == {(i, j): a[i, j] for i in range(a.nrows)
                      for j in range(a.ncols) if a[i, j] != 0}
    naive = tuple(sum(a[i, j] * v[j] for j in range(a.ncols)) for i in range(a.nrows))
    # a sum generator over each listed row is the reference for the type as
    # well: an integral Fraction sum stays a Fraction, a row with no
    # Fraction term stays int
    by_generator = tuple(sum(x * v[j] for j, x in r) for r in a.row_nonzeros())
    got = a.mul_vector(v)
    assert got == naive == by_generator
    assert [type(y) for y in got] == [type(y) for y in by_generator]


def test_row_nonzeros_matches_a_listing_by_enumerate():
    # the C-level listing against a generator over each row: sparse, dense,
    # Fraction-valued and empty matrices
    rng = random.Random(42)
    sparse = [[0] * 42 for _ in range(42)]
    for r in sparse:
        r[rng.randrange(42)] = rng.choice((-2, -1, 1, 2))
    dense = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(7)]
    halves = [[Fraction(rng.randint(-2, 2), 2) for _ in range(5)] for _ in range(6)]
    for a in (Matrix(sparse), Matrix(dense), Matrix(halves), Matrix([]),
              Matrix.zero(0, 3), Matrix.zero(3, 0), Matrix.zero(2, 2)):
        want = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in a.rows)
        assert a.row_nonzeros() == want


def test_row_nonzeros_is_listed_once_and_ignored_by_comparison():
    rows = [[0, 2 ** 64, 0], [0, 0, 0], [Fraction(1, 3), 0, -2 ** 64]]
    a, fresh = Matrix(rows), Matrix(rows)
    listing = a.row_nonzeros()
    assert listing == (((1, 2 ** 64),), (), ((0, Fraction(1, 3)), (2, -2 ** 64)))
    assert a.row_nonzeros() is listing
    assert a == fresh and fresh == a
    assert hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert len({a, fresh}) == 1
    # constructors that bypass __init__ list on first use as well
    for m, want in ((Matrix.identity(2), (((0, 1),), ((1, 1),))),
                    (Matrix.zero(2, 3), ((), ())),
                    (Matrix.zero(0, 3), ()), (Matrix.zero(3, 0), ((), (), ()))):
        assert m.row_nonzeros() == want and m.row_nonzeros() is m.row_nonzeros()
    assert Matrix.zero(0, 3).mul_vector([1, 2, 3]) == ()
    assert Matrix.zero(3, 0).mul_vector([]) == (0, 0, 0)
    # mul_vector still validates its vector
    with pytest.raises(TypeError):
        a.mul_vector([1, 0.5, 0])
    with pytest.raises(ValueError):
        a.mul_vector([1, 2])


def test_pow_binary():
    a = Matrix([[1, 1], [0, 1]])
    assert (a ** 0) == Matrix.identity(2)
    assert (a ** 37)[0, 1] == 37
    with pytest.raises(ValueError):
        a ** -1


# ---------------------------------------------------------------------------
# determinants


def test_det_small_frozen():
    assert det(Matrix([[2, 1], [1, 2]])) == 3
    assert det(Matrix.identity(5)) == 1
    assert det(Matrix.zero(0, 0)) == 1
    assert det(Matrix([[2, 4], [6, 8]])) == -8
    assert det(Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])) == Fraction(1, 6)
    with pytest.raises(ValueError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_det_against_cofactor_oracle():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(10):
            a = _random_matrix(rng, n, n, bound=9)
            assert det(a) == _cofactor_det(a.to_lists())


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 8)
        a = _random_matrix(rng, n, n)
        b = _random_matrix(rng, n, n)
        assert det(a * b) == det(a) * det(b)


def _block_minors(m):
    return [_cofactor_det([list(r[:k]) for r in m.rows[:k]]) for k in range(1, m.nrows + 1)]


def test_leading_principal_minors():
    a = Matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert leading_principal_minors(a) == [2, 3, 4]
    b = Matrix([[0, 1], [1, 0]])
    assert leading_principal_minors(b) == [0, -1]
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n, bound=6)
        assert leading_principal_minors(m) == _block_minors(m)
    for k in range(5):
        # [[0, 1], [1, 0]] + I_k: minors 0, -1, -1, ...
        rows = [[0, 1] + [0] * k, [1, 0] + [0] * k]
        rows += [[1 if j == i else 0 for j in range(k + 2)] for i in range(2, k + 2)]
        m = Matrix(rows)
        assert leading_principal_minors(m) == _block_minors(m) == [0] + [-1] * (k + 1)
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(2, 7)
        j = rng.randint(1, n - 1)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        # the leading j-by-j block gets a zero row, so a minor of size <= j vanishes
        rows[j - 1][:j] = [0] * j
        m = Matrix(rows)
        expected = _block_minors(m)
        assert 0 in expected[:j]
        assert leading_principal_minors(m) == expected


# ---------------------------------------------------------------------------
# Smith normal form


def _check_snf(a: Matrix):
    res = snf(a)
    assert res.U * a * res.V == res.D
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    d = res.invariant_factors
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if y != 0:
            assert x != 0 and y % x == 0
        # a zero invariant factor can only be followed by zeros
        if x == 0:
            assert y == 0
    for i in range(res.D.nrows):
        for j in range(res.D.ncols):
            if i != j:
                assert res.D[i, j] == 0
    return d


def test_snf_frozen_cases():
    assert _check_snf(Matrix([[2, 0], [0, 2]])) == [2, 2]
    assert _check_snf(Matrix([[2, 4], [6, 8]])) == [2, 4]
    assert _check_snf(Matrix.zero(2, 3)) == [0, 0]
    assert _check_snf(Matrix([[1, 0], [0, 6], [0, 0]])) == [1, 6]
    # diagonal already, but d_i does not divide d_(i+1)
    assert _check_snf(Matrix.diagonal([2, 3])) == [1, 6]
    assert _check_snf(Matrix.diagonal([6, 10, 15])) == [1, 30, 30]
    # a zero before a nonzero entry moves last
    assert _check_snf(Matrix([[0, 0], [0, 5]])) == [5, 0]
    for m, n in ((0, 3), (2, 0)):
        res = snf(Matrix.zero(m, n))
        assert res == SnfResult(Matrix.identity(m), Matrix.zero(m, n), Matrix.identity(n))


def test_snf_is_alternating_hermite_passes(monkeypatch):
    import polobstruct.intlinalg as il

    calls, real = [], il._hnf_vectors
    monkeypatch.setattr(il, "_hnf_vectors", lambda vecs, n: calls.append(n) or real(vecs, n))
    a = Matrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    d = snf(a).D
    # a row pass alone leaves this A upper triangular, not diagonal
    assert len(calls) >= 2
    monkeypatch.undo()
    assert d == snf(a).D == Matrix.diagonal([2, 6, 12])


def test_snf_minor_gcd_oracle():
    rng = random.Random(17)
    for _ in range(15):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = _random_matrix(rng, m, n, bound=10)
        d = _check_snf(a)
        gcds = _minor_gcds(a)
        prod = 1
        for k, g in enumerate(gcds):
            # product of first k invariant factors equals the k-minor gcd
            prod *= d[k]
            assert prod == g


def test_snf_rejects_rational():
    with pytest.raises(TypeError):
        snf(Matrix([[Fraction(1, 2)]]))


# ---------------------------------------------------------------------------
# Hermite form and lattices


def test_hnf_row_canonical():
    a = Matrix([[2, 3, 6, 2], [5, 6, 1, 6], [8, 3, 1, 1]])
    h = hnf_row(a)
    # pivots positive, below-pivot zero, above-pivot reduced
    assert h == hnf_row(h)
    # row lattice is preserved: every original row is an integer combination
    assert col_lattice_eq(a.transpose(), h.transpose())


def test_hnf_drops_zero_rows():
    a = Matrix([[0, 0], [3, 1], [6, 2]])
    h = hnf_row(a)
    assert h.nrows == 1
    assert h == Matrix([[3, 1]])


def test_hnf_row_beyond_int64():
    # row 2 + 2 * row 1 puts 3 * 2^62 - 3 in the second column, past int64
    rows = [[1, 2 ** 62 - 1], [-2, 2 ** 62 - 1]]
    assert hnf_row(Matrix(rows)).rows == ((1, 2 ** 62 - 1), (0, 3 * 2 ** 62 - 3))


def _hnf_inputs(rng):
    """Random integer matrices up to 6 x 6: any shape, square,
    rank-deficient (a product through a thinner inner dimension) and with
    zero rows."""
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["any", "square", "deficient", "zero_rows"])
        if kind == "square":
            n = m
        if kind == "deficient":
            a = _rank_deficient(rng, m, n)
        else:
            a = _random_matrix(rng, m, n, bound=9)
        if kind == "zero_rows":
            rows = [list(r) for r in a.rows]
            for i in rng.sample(range(m), rng.randint(1, m)):
                rows[i] = [0] * n
            a = Matrix(rows, ncols=n)
        yield a
    yield Matrix.zero(3, 4)


def _random_unimodular(rng, m):
    """A product of random elementary row operations: swaps, negations
    and additions of a multiple of one row to another."""
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        op = rng.choice(["swap", "negate", "add"])
        if op == "swap":
            u[i], u[j] = u[j], u[i]
        elif op == "negate":
            u[i] = [-x for x in u[i]]
        elif i != j:
            q = rng.choice([-3, -2, -1, 1, 2, 3])
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return Matrix(u, ncols=m)


def test_hnf_row_properties_random():
    rng = random.Random(37)
    for a in _hnf_inputs(rng):
        m, n = a.shape
        h = hnf_row(a)
        assert h.ncols == n
        pivots = []
        for r, row in enumerate(h.rows):
            j = next(j for j, x in enumerate(row) if x != 0)  # no zero rows
            assert row[j] > 0
            assert all(h[i, j] == 0 for i in range(r + 1, h.nrows))
            assert all(0 <= h[i, j] < row[j] for i in range(r))
            assert not pivots or j > pivots[-1]
            pivots.append(j)
        assert hnf_row(_random_unimodular(rng, m) * a) == h
        d = _cofactor_det([list(r) for r in a.rows]) if m == n else 0
        if d:
            prod = 1
            for r, j in enumerate(pivots):
                prod *= h[r, j]
            assert prod == abs(d)
        assert h.nrows == sum(1 for d in snf(a).invariant_factors if d != 0)


def test_col_hnf_is_the_transposed_row_hnf():
    # col_hnf eliminates on the columns; it must agree with the definition,
    # shapes included, on empty shapes, zero columns and entries past 2^62
    rng = random.Random(41)
    inputs = list(_hnf_inputs(rng))
    inputs += [Matrix.zero(0, 3), Matrix.zero(3, 0), Matrix.zero(0, 0),
               Matrix([[0, 2, 0], [0, 4, 0]]), Matrix([[0], [0]])]
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice([0, rng.randint(-2 ** 70, 2 ** 70)]) for _ in range(n)]
                for _ in range(m)]
        zero = rng.randrange(n)
        for r in rows:
            r[zero] = 0
        inputs.append(Matrix(rows))
    for a in inputs:
        h = col_hnf(a)
        want = hnf_row(a.transpose()).transpose()
        assert h == want and h.shape == want.shape == (a.nrows, want.ncols)
    big = Matrix([[2 ** 63, 2 ** 62], [3, -(2 ** 64)]])
    assert col_hnf(big) == hnf_row(big.transpose()).transpose()
    with pytest.raises(TypeError):
        col_hnf(Matrix([[Fraction(1, 2)]]))


def test_col_lattice_membership():
    basis = Matrix.from_columns([(2, 0, 1), (0, 3, 1)])
    assert col_lattice_contains(basis, (2, 0, 1))
    assert col_lattice_contains(basis, (2, 3, 2))
    assert col_lattice_contains(basis, (0, 0, 0))
    assert not col_lattice_contains(basis, (1, 0, 0))
    assert not col_lattice_contains(basis, (2, 3, 1))


def test_col_lattice_membership_rejects_non_integers():
    # 5/2 was truncated to 2, which lies in 2Z
    two = Matrix([[2]])
    for bad in (Fraction(5, 2), 2.0, True, "2"):
        with pytest.raises(TypeError):
            col_lattice_contains(two, [bad])
    assert col_lattice_contains(two, [Fraction(4, 2)])
    assert not col_lattice_contains(two, [Fraction(3, 1)])


def test_hnf_coords_match_solve_exact():
    # the pivot-by-pivot reduction reads the same coordinates a Fraction
    # solve finds, and None exactly when they are not all integers
    rng = random.Random(31)
    for _ in range(30):
        m = rng.randint(1, 4)
        h = col_hnf(_random_matrix(rng, m, rng.randint(1, 4), bound=6))
        if h.ncols == 0:
            continue
        for _ in range(4):
            v = [rng.randint(-12, 12) for _ in range(m)]
            if rng.random() < 0.5:  # a lattice vector, often
                v = list(h.mul_vector([rng.randint(-3, 3) for _ in range(h.ncols)]))
            coords = _hnf_coords(h, v)
            sol = solve_exact(h, Matrix.from_columns([v], nrows=m))
            integral = sol is not None and all(x.denominator == 1 for x in sol.column(0))
            assert (coords is not None) == integral == col_lattice_contains(h, v)
            if coords is not None:
                assert coords == [int(x) for x in sol.column(0)]


def test_col_lattice_eq_detects_index():
    a = Matrix.from_columns([(1, 0), (0, 1)])
    b = Matrix.from_columns([(1, 0), (0, 2)])
    assert not col_lattice_eq(a, b)
    c = Matrix.from_columns([(1, 1), (0, 1)])
    assert col_lattice_eq(a, c)


# ---------------------------------------------------------------------------
# integer kernels


def test_kernel_frozen_cases():
    assert int_kernel(Matrix.identity(4)).shape == (4, 0)
    k = int_kernel(Matrix([[1, 1]]))
    assert k.shape == (2, 1)
    assert col_lattice_eq(k, Matrix.from_columns([(1, -1)]))
    k2 = int_kernel(Matrix([[2, 4]]))
    assert col_lattice_eq(k2, Matrix.from_columns([(2, -1)]))


def test_kernel_saturated():
    # (2,-1) spans the kernel of [1,2]; the non-saturated (4,-2) must not
    a = Matrix([[1, 2]])
    k = int_kernel(a)
    assert col_lattice_contains(k, (2, -1))


def test_kernel_properties_random():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        a = _random_matrix(rng, m, n, bound=8)
        k = int_kernel(a)
        assert (a * k) == Matrix.zero(m, k.ncols)
        rank = hnf_row(a).nrows
        assert k.ncols == n - rank
        # canonical form is a fixed point
        if k.ncols:
            assert col_hnf(k) == k


def test_kernel_is_saturated_random():
    # unit invariant factors make the kernel basis saturated: a lattice of
    # finite index > 1 in the kernel would show a factor > 1
    rng = random.Random(29)
    cases = [Matrix.zero(3, 4), Matrix([[2, 4, 6, -8]])]
    cases += [_random_matrix(rng, 1, rng.randint(2, 6), bound=12) for _ in range(5)]
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        if rng.random() < 0.5:
            cases.append(_rank_deficient(rng, m, n))
        else:
            cases.append(_random_matrix(rng, m, n, bound=5))
    for a in cases:
        m, n = a.shape
        k = int_kernel(a)
        assert a * k == Matrix.zero(m, k.ncols)
        rank = sum(1 for d in snf(a).invariant_factors if d != 0)
        assert k.shape == (n, n - rank)
        assert col_hnf(k) == k
        assert all(d == 1 for d in snf(k).invariant_factors)
    assert int_kernel(Matrix.zero(3, 4)) == Matrix.identity(4)


# ---------------------------------------------------------------------------
# solve, and an inverse as the solution of a X = I


def test_solve_and_invert():
    a = Matrix([[2, 1], [1, 2]])
    inv = solve_exact(a, Matrix.identity(2))
    assert a * inv == Matrix.identity(2)
    assert inv[0, 0] == Fraction(2, 3)
    b = Matrix.from_columns([(1, 0)])
    x = solve_exact(a, b)
    assert a * x == b
    with pytest.raises(ValueError):
        solve_exact(Matrix([[1, 1], [1, 1]]), Matrix.identity(2))


def test_solve_inconsistent_returns_none():
    a = Matrix.from_columns([(1, 0, 0), (0, 1, 0)])
    b = Matrix.from_columns([(0, 0, 1)])
    assert solve_exact(a, b) is None


# ---------------------------------------------------------------------------
# charpoly / minpoly


def test_charpoly_frozen():
    assert charpoly(Matrix([[-1, -1], [1, 0]])) == IntPoly([1, 1, 1])
    assert charpoly(Matrix.identity(3)) == IntPoly([-1, 3, -3, 1])
    assert charpoly(Matrix.diagonal([2, 3])) == IntPoly([-2, 1]) * IntPoly([-3, 1])
    assert charpoly(Matrix.zero(0, 0)) == IntPoly([1])


def test_charpoly_against_interpolation_oracle():
    rng = random.Random(31)
    for n in range(1, 6):
        for _ in range(6):
            a = _random_matrix(rng, n, n, bound=6)
            assert charpoly(a) == _interp_charpoly(a)


def test_cayley_hamilton():
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n, bound=5)
        assert charpoly(a).eval_matrix(a) == Matrix.zero(n, n)


def test_minpoly_frozen():
    zeta5 = Matrix([[-1, -1, -1, -1],
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0]])
    assert minpoly(zeta5) == IntPoly([1, 1, 1, 1, 1])
    assert minpoly(Matrix.identity(4)) == IntPoly([-1, 1])
    assert minpoly(Matrix.diagonal([1, 1, 2])) == IntPoly([-1, 1]) * IntPoly([-2, 1])


def test_minpoly_mixed_multiplicities():
    # charpoly x^2 (x-1)^2 but minpoly x^2 (x-1): charpoly is not
    # squarefree, so the Krylov lcm must find the smaller polynomial
    a = Matrix([[0, 1, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1]])
    assert charpoly(a) == IntPoly([0, 0, 1, -2, 1])
    assert minpoly(a) == IntPoly([0, 0, 1]) * IntPoly([-1, 1])


def _unimodular(rng, n, steps=6):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(rows)


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, r in enumerate(b):
            rows[k + i][k:k + len(r)] = r
        k += len(b)
    return Matrix(rows)


def _minimality_oracle(a: Matrix, m: IntPoly):
    """m annihilates a, and no m / f does for an irreducible factor f of m
    (sympy factoring); m divides sympy's charpoly."""
    import sympy

    x = sympy.symbols("x")
    n = a.nrows
    assert m.is_monic()
    assert m.eval_matrix(a) == Matrix.zero(n, n)
    cp = sympy.Matrix(a.to_lists()).charpoly(x).as_expr()
    as_poly = sympy.Poly(list(reversed(m.coeffs)), x)
    assert sympy.rem(cp, as_poly.as_expr(), x) == 0
    for f, _ in as_poly.factor_list()[1]:
        smaller = sympy.quo(as_poly, f)
        coeffs = [int(c) for c in reversed(smaller.all_coeffs())]
        assert IntPoly(coeffs).eval_matrix(a) != Matrix.zero(n, n)
    return cp


def test_minpoly_non_squarefree_charpoly_against_sympy():
    # U diag(blocks) U^(-1) with U unimodular: Jordan blocks, repeated
    # scalars and a repeated companion block of x^2 + 1, so charpoly has
    # repeated factors and minpoly must take the Krylov route
    import sympy

    jordan2 = [[2, 1], [0, 2]]
    rot = [[0, -1], [1, 0]]
    cases = [
        [jordan2, [[2]], [[-1]]],
        [rot, rot, [[3]]],
        [rot, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1]]],
        [[[0, 1], [0, 0]], [[0]], rot],
        [[[5]], [[5]], [[5]]],
    ]
    rng = random.Random(67)
    x = sympy.symbols("x")
    for blocks in cases:
        d = _block_diagonal(blocks)
        u = _unimodular(rng, d.nrows)
        a = u * d * solve_exact(u, Matrix.identity(d.nrows))
        assert a.is_integral()
        cp = _minimality_oracle(a, minpoly(a))
        assert any(k > 1 for _, k in sympy.sqf_list(cp, x)[1])
    # repeated rotation blocks: minpoly x^2 + 1 although charpoly has degree 4
    a = _block_diagonal([rot, rot])
    assert minpoly(a) == IntPoly([1, 0, 1])


def test_minpoly_properties_random():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n, bound=4)
        _minimality_oracle(a, minpoly(a))


# ---------------------------------------------------------------------------
# IntPoly arithmetic


def test_intpoly_basics():
    f = IntPoly([1, 1, 1])
    g = IntPoly([-1, 1])
    assert f * g == IntPoly([-1, 0, 0, 1])
    assert f * IntPoly([]) == IntPoly([]) and IntPoly([]).degree == -1
    with pytest.raises(TypeError):  # a polynomial multiplies only a polynomial
        2 * f


def _poly_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _sympy_resultant(f, g):
    """sympy's resultant, called with the higher degree first.

    sympy 1.14 returns the same value for both argument orders when the
    degree of f is below that of g and both are odd: it reads -1 for
    Res(x, x^3 + 1), whose definition gives 1^3 (0^3 + 1) = 1. The swapped
    order is therefore derived by Res(f, g) = (-1)^(deg f deg g) Res(g, f).
    """
    import sympy

    x = sympy.symbols("x")
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return (-1) ** (df * dg) * _sympy_resultant(g, f)
    poly = [sympy.Poly(list(reversed(c)), x).as_expr() for c in (f, g)]
    return int(sympy.resultant(*poly, x))


def _sylvester(f, g):
    """The Sylvester matrix of f and g (coefficients low degree first)."""
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = [[0] * i + list(reversed(f)) + [0] * (n - df - 1 - i) for i in range(dg)]
    rows += [[0] * i + list(reversed(g)) + [0] * (n - dg - 1 - i) for i in range(df)]
    return rows


def _int_poly(min_degree=0):
    # the leading coefficient is nonzero, so the degree is len - 1
    return st.tuples(
        st.lists(st.integers(-6, 6), min_size=min_degree, max_size=8),
        st.integers(-6, 6).filter(bool),
    ).map(lambda t: t[0] + [t[1]])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_int_poly(), _int_poly(), st.one_of(st.just([1]), _int_poly(1)))
@example([0, 1], [1, 0, 0, 1], [1])
@example([1, 3], [2, 1, -5, -4], [1])
@example([5], [1, 2, 3], [1])
@example([-2], [3], [1])
@example([1, 1], [2, 3], [1, 1])
def test_resultant_matches_sympy(f, g, h):
    # a common factor h of degree >= 1 makes the resultant vanish
    f, g = _poly_product(f, h), _poly_product(g, h)
    for a, b in ((f, g), (g, f)):
        want = _sympy_resultant(a, b)
        assert resultant(a, b) == want
        assert want == 0 or len(h) == 1
    df, dg = len(f) - 1, len(g) - 1
    assert resultant(g, f) == (-1) ** (df * dg) * resultant(f, g)


def test_resultant_frozen_and_sylvester_oracle():
    # Res(x, x^3 + 1) = 1 and Res(x^3 + 1, x) = -1, the product of the
    # roots of x^3 + 1; Res(3x + 1, g) = 3^3 g(-1/3) = 34
    assert resultant([0, 1], [1, 0, 0, 1]) == 1
    assert resultant([1, 0, 0, 1], [0, 1]) == -1
    assert resultant([1, 3], [2, 1, -5, -4]) == 34
    assert resultant([7], [1, 2, 3]) == 49
    assert resultant([-2], [3]) == 1
    assert resultant([], [1, 1]) == resultant([1, 1], [0, 0]) == 0
    # trailing zeros are no part of the degree
    assert resultant([1, 3, 0], [2, 1, -5, -4, 0]) == 34
    with pytest.raises(TypeError):
        resultant([1, Fraction(1, 2)], [1, 1])
    rng = random.Random(41)
    for _ in range(120):
        f, g = ([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
                + [rng.choice([-2, -1, 1, 3])] for _ in range(2))
        assert resultant(f, g) == _cofactor_det(_sylvester(f, g))


def _remainder_chain(degrees, rng):
    """f and g whose remainder sequence over Q has the given degrees, from
    the top: built from the bottom by r_(i-1) = q r_i + r_(i+1), each q of
    degree deg r_(i-1) - deg r_i with a nonzero leading coefficient, so the
    remainder of r_(i-1) by r_i is r_(i+1); the last member divides the one
    above it, and is their gcd. Leading coefficients are drawn from +-1,
    +-2, +-3, so most members are not monic."""
    def poly(d):
        return [rng.randint(-3, 3) for _ in range(d)] + [rng.choice([-3, -2, -1, 1, 2, 3])]

    low = poly(degrees[-1])
    high = _poly_product(poly(degrees[-2] - degrees[-1]), low)
    for d in reversed(degrees[:-2]):
        low, high = high, [x + y for x, y in itertools.zip_longest(
            _poly_product(poly(d - len(high) + 1), high), low, fillvalue=0)]
    return high, low


def _spy_pseudo_rem(monkeypatch):
    """The degree gap deg a - deg b of each step that takes _pseudo_rem."""
    import polobstruct.intlinalg as il

    gaps, real = [], il._pseudo_rem
    monkeypatch.setattr(il, "_pseudo_rem",
                        lambda a, b: gaps.append(len(a) - len(b)) or real(a, b))
    return gaps


@pytest.mark.parametrize("degrees", [
    (4, 3, 1, 0), (4, 4, 2, 0), (5, 4, 3, 1, 0), (5, 5, 3, 2, 0), (7, 6, 4, 3, 1, 0),
    (8, 7, 6, 3, 2, 0), (6, 5, 2, 1), (7, 6, 3, 2, 1)])
def test_resultant_with_a_gap_in_the_middle_of_the_sequence(degrees, monkeypatch):
    # a step of degree gap 2 or more takes _pseudo_rem, the steps around it
    # the one-pass normal step; a chain that ends above degree 0 has a
    # common factor, and Res = 0
    gaps = _spy_pseudo_rem(monkeypatch)
    rng = random.Random(sum(degrees))
    for _ in range(6):
        f, g = _remainder_chain(degrees, rng)
        assert (len(f) - 1, len(g) - 1) == degrees[:2]
        gaps.clear()
        want = _sympy_resultant(f, g)
        assert resultant(f, g) == want
        assert (want == 0) == (degrees[-1] > 0)
        assert max(gaps) >= 2
        if sum(degrees[:2]) <= 8:
            assert want == _cofactor_det(_sylvester(f, g))
        df, dg = len(f) - 1, len(g) - 1
        assert resultant(g, f) == (-1) ** (df * dg) * want


def test_resultant_of_non_monic_and_negative_leading_coefficients():
    rng = random.Random(53)
    for _ in range(100):
        f, g = ([rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
                + [rng.choice([-7, -4, -3, -2, 2, 3, 5, 6])] for _ in range(2))
        want = _cofactor_det(_sylvester(f, g))
        assert resultant(f, g) == want == _sympy_resultant(f, g)
    # scaling f by c scales Res(f, g) by c^(deg g)
    f, g = [3, -1, 4, -2], [1, 5, 0, -3, 2]
    assert resultant([-5 * x for x in f], g) == (-5) ** 4 * resultant(f, g)


def test_resultant_of_phi_p_takes_only_normal_steps(monkeypatch):
    # every step of Res(Phi_p, a) for a generic a has degree gap 1, the
    # one-pass step, and the value is det a(zeta) by the generic determinant
    gaps = _spy_pseudo_rem(monkeypatch)
    rng = random.Random(43)
    for p in (5, 13, 43):
        phi = [1] * p
        a = [rng.randint(-3, 3) for _ in range(p - 2)] + [rng.choice([-3, -2, 2, 3])]
        want = _sympy_resultant(phi, a)
        assert resultant(phi, a) == want
        if p < 43:
            a_zeta = sum(((build_zeta(p) ** k).scale(c) for k, c in enumerate(a)),
                         Matrix.zero(p - 1, p - 1))
            assert want == det(a_zeta)
    # so does central_degree's Res(psi_p, g) for a generic g of degree m - 1
    for p in (13, 43):
        psi, m = real_cyclotomic_poly(p).coeffs, (p - 1) // 2
        g = [rng.randint(-30, 30) for _ in range(m - 1)] + [rng.choice([-7, 5, 11])]
        assert resultant(psi, g) == _sympy_resultant(psi, g)
    assert gaps == []


# ---------------------------------------------------------------------------
# serialization


def test_matrix_json_round_trip():
    a = Matrix([[1, -2], [3, 4]])
    obj = matrix_to_json(a)
    assert obj == {"rows": 2, "cols": 2, "entries": [[1, -2], [3, 4]]}
    assert json.loads(json.dumps(obj)) == obj


def test_matrix_json_rejects_bad_input():
    with pytest.raises(TypeError):
        matrix_to_json(Matrix([[Fraction(1, 2)]]))
