"""The twisting construction: frozen matrices, descent identities, and the
commutant lattice, cross-checked between two independent computations."""

import random
from fractions import Fraction

import pytest

from polobstruct.cyclotomic import CycElem, cyclotomic_poly, norm_to_Q, regular_rep
from polobstruct.intlinalg import (
    Matrix,
    col_hnf,
    det,
    leading_principal_minors,
    minpoly,
    solve_exact,
)
from polobstruct.twist import (
    CONSTRUCTION_CHECKS,
    TwistData,
    build_b,
    build_zeta,
    central_degree,
    centralizer_basis,
    endo_degree,
    endo_descends,
    flatten_matrices,
    is_companion,
    pol_descends,
    power_basis_transform,
    reduce_shift,
    rosati,
    zeta_power_lattice,
)

PRIMES = [3, 5, 7, 11, 13]
PRIMES_TO_61 = [q for q in range(3, 62) if all(q % d for d in range(2, q))]


def _rand_int_matrix(rng, n, bound=3):
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# the matrices themselves


def test_build_zeta_frozen():
    assert build_zeta(3) == Matrix([[-1, -1], [1, 0]])
    z5 = build_zeta(5)
    assert z5.rows[0] == (-1, -1, -1, -1)
    for i in range(1, 4):
        assert z5.rows[i] == tuple(1 if j == i - 1 else 0 for j in range(4))
    for bad in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            build_zeta(bad)


def test_reduce_shift_matches_direct_construction():
    for p in PRIMES:
        assert reduce_shift(p) == build_zeta(p)


def test_zeta_has_order_p_and_cyclotomic_minpoly():
    # the generic routes (minpoly, matrix powers) agree with the orbit
    # certificate that the two catalogue checks read
    for p in PRIMES:
        z = build_zeta(p)
        assert minpoly(z) == cyclotomic_poly(p)
        assert z ** p == Matrix.identity(p - 1)
        assert z ** 1 != Matrix.identity(p - 1)
        t = TwistData.for_prime(p)
        assert len(t.orbit.vectors) == p
        assert t.orbit.vectors[-1] == (z ** (p - 1)).column(0)
        assert t.orbit.unit_triangular
        assert det(Matrix.from_columns(t.orbit.vectors[:p - 1])) == 1
        assert _holds("zeta_minpoly_is_cyclotomic", t)
        assert _holds("zeta_order_p", t)


def test_orbit_cannot_be_changed():
    # a cached value that a later check reads is as frozen as a field
    t = TwistData.for_prime(5)
    with pytest.raises(TypeError):
        t.orbit.vectors[4] = (1, 0, 0, 0)
    assert t.phi_p_annihilates_zeta


def test_build_b_frozen():
    assert build_b(3) == Matrix([[2, 1], [1, 2]])
    for p in PRIMES:
        b = build_b(p)
        assert b.is_symmetric()
        assert det(b) == p
        assert all(m > 0 for m in leading_principal_minors(b))


def test_twist_data_validates():
    # for_prime only builds; check() runs the catalogue
    for p in PRIMES:
        TwistData.for_prime(p).check()
    with pytest.raises(TypeError):
        TwistData.for_prime(5, validate=False)
    broken = TwistData(3, build_zeta(3), Matrix([[2, 0], [0, 2]]))
    with pytest.raises(AssertionError, match="b_determinant_is_p"):
        broken.check()
    with pytest.raises(ValueError):
        TwistData(5, build_zeta(3), build_b(3))
    # for p = 9, 1 + x + ... + x^8 is not the cyclotomic polynomial
    with pytest.raises(ValueError):
        TwistData(9, Matrix.identity(8), Matrix.identity(8))


def _holds(name, t):
    return dict(CONSTRUCTION_CHECKS)[name](t)


def test_b_determinant_check_rejects_minus_p():
    # swapping two rows of b negates its determinant but not its square
    p = 5
    rows = list(build_b(p).rows)
    rows[0], rows[1] = rows[1], rows[0]
    t = TwistData(p, build_zeta(p), Matrix(rows))
    assert det(t.b) == -p
    assert not _holds("b_determinant_is_p", t)
    assert _holds("polarization_degree_p_squared", t)
    with pytest.raises(AssertionError, match="b_determinant_is_p"):
        t.check()


def _counted_eliminations(monkeypatch):
    import polobstruct.intlinalg as intlinalg

    sizes = []
    bareiss = intlinalg._bareiss_det

    def counted(m):
        sizes.append(len(m))
        return bareiss(m)

    monkeypatch.setattr(intlinalg, "_bareiss_det", counted)
    return sizes


def test_b_minors_by_the_determinant_lemma(monkeypatch):
    for p in PRIMES:
        assert leading_principal_minors(build_b(p)) == list(range(2, p + 1))
    sizes = _counted_eliminations(monkeypatch)
    for p in PRIMES + [43]:
        assert TwistData.for_prime(p).b_minors == list(range(2, p + 1))
    assert sizes == []


def test_b_minors_fall_back_to_elimination_off_the_lemma(monkeypatch):
    # one off-diagonal pair of b changed: still symmetric, but b - I is no
    # longer 11^t, so the minors come from the elimination
    p = 7
    rows = [list(r) for r in build_b(p).rows]
    rows[1][3] = rows[3][1] = 0
    expected = [det(Matrix([r[:k] for r in rows[:k]])) for k in range(1, p)]
    assert expected != list(range(2, p + 1))
    sizes = _counted_eliminations(monkeypatch)
    t = TwistData(p, build_zeta(p), Matrix(rows))
    assert t.b.is_symmetric()
    assert t.b_minors == expected
    assert sizes == [p - 1]


def _foreign_twists(p):
    """b = 3I, b with two rows swapped, b = diag(p, p, 1, ...), then zeta^t
    and 2 zeta with the constructed b."""
    z, b = build_zeta(p), build_b(p)
    swapped = list(b.rows)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    return [TwistData(p, z, Matrix.identity(p - 1).scale(3)),
            TwistData(p, z, Matrix(swapped)),
            TwistData(p, z, Matrix.diagonal([p, p] + [1] * (p - 3))),
            TwistData(p, z.transpose(), b),
            TwistData(p, z.scale(2), b)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_no_construction_check_raises(p):
    for t in _foreign_twists(p):
        verdicts = [holds(t) for _, holds in CONSTRUCTION_CHECKS]
        assert all(type(v) is bool for v in verdicts)
        assert not all(verdicts)
        with pytest.raises(AssertionError, match="construction check failed"):
            t.check()


def test_b_is_i_plus_j_exactly_for_the_constructed_form():
    for p in PRIMES_TO_61:
        assert TwistData.for_prime(p).b_is_i_plus_j
    for p in (3, 5, 7):
        for t in _foreign_twists(p)[:3]:
            assert not t.b_is_i_plus_j
            assert not _holds("rosati_inverts_zeta", t)
            with pytest.raises(ValueError, match="b = I"):
                rosati(t.zeta, t)
    rows = [list(r) for r in build_b(7).rows]
    rows[1][3] = rows[3][1] = 0
    assert not TwistData(7, build_zeta(7), Matrix(rows)).b_is_i_plus_j


def test_b_checks_reject_a_singular_form_without_raising():
    t = TwistData(3, build_zeta(3), Matrix([[1, 1], [1, 1]]))
    assert t.b_minors[-1] == det(t.b) == 0
    for name in ("b_determinant_is_p", "b_positive_definite",
                 "polarization_degree_p_squared"):
        assert not _holds(name, t)


def test_centralizer_certificate_rejects_non_cyclic_matrix():
    # every vector is an eigenvector of a scalar matrix, so e1 is not cyclic
    t = TwistData(5, Matrix.identity(4).scale(2), build_b(5))
    assert not _holds("centralizer_rank", t)
    assert not _holds("centralizer_equals_zeta_powers", t)


def test_unit_triangular_certificate_is_sound():
    # the flag reads det T = 1 off T's shape; Bareiss is the oracle
    for p in PRIMES_TO_61:
        t = TwistData.for_prime(p)
        assert t.orbit.unit_triangular
        assert det(Matrix.from_columns(t.orbit.vectors[:p - 1])) == 1
    # foreign zeta': upper Hessenberg with a unit subdiagonal (the flag
    # holds), half of them with one entry at or below the subdiagonal
    # redrawn (the flag may fail)
    rng = random.Random(12)
    outcomes = set()
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        n = p - 1
        rows = [[rng.randint(-2, 2) if j >= i else int(j == i - 1) for j in range(n)]
                for i in range(n)]
        if rng.random() < 0.5:
            i = rng.randrange(1, n)
            rows[i][rng.randrange(i)] = rng.randint(-2, 2)
        t = TwistData(p, Matrix(rows), build_b(p))
        tmat = Matrix.from_columns(t.orbit.vectors[:n])
        shape = all(tmat[i, j] == (i == j) for i in range(n) for j in range(i + 1))
        assert t.orbit.unit_triangular == shape
        if shape:
            assert det(tmat) == 1
            assert _holds("centralizer_equals_zeta_powers", t)
        outcomes.add(shape)
    assert outcomes == {True, False}


def test_orbit_certificate_rejects_foreign_zeta():
    # changing one first-row entry keeps e1 cyclic (T stays unit upper
    # triangular) but Phi_5(zeta) e1 != 0, so zeta is no longer a 5th root
    rows = [list(r) for r in build_zeta(5).rows]
    rows[0][3] = -2
    t = TwistData(5, Matrix(rows), build_b(5))
    assert t.orbit.unit_triangular
    assert det(Matrix.from_columns(t.orbit.vectors[:4])) == 1
    assert any(map(sum, zip(*t.orbit.vectors)))
    assert minpoly(t.zeta) != cyclotomic_poly(5)
    assert t.zeta ** 5 != Matrix.identity(4)
    assert not _holds("zeta_minpoly_is_cyclotomic", t)
    assert not _holds("zeta_order_p", t)
    assert _holds("centralizer_rank", t)
    assert _holds("centralizer_equals_zeta_powers", t)
    with pytest.raises(AssertionError, match="zeta_minpoly_is_cyclotomic"):
        t.check()


def test_rosati_check_rejects_non_isometry():
    # rosati(zeta) zeta = I says zeta^t b zeta = b; a zeta that keeps Phi_p but
    # breaks the isometry (here zeta^t) must fail it
    p = 5
    t = TwistData(p, build_zeta(p).transpose(), build_b(p))
    assert not pol_descends(t)
    assert not _holds("rosati_inverts_zeta", t)
    # rosati(2 zeta) = 2 zeta^(-1) is integral but no inverse of 2 zeta
    doubled = TwistData(p, build_zeta(p).scale(2), build_b(p))
    assert rosati(doubled.zeta, doubled).is_integral()
    assert not _holds("rosati_inverts_zeta", doubled)


# ---------------------------------------------------------------------------
# descent


def test_endo_descends():
    t = TwistData.for_prime(3)
    assert endo_descends(t.zeta, t)
    assert endo_descends(Matrix.identity(2), t)
    assert endo_descends(t.zeta.scale(5) - Matrix.identity(2).scale(2), t)
    assert not endo_descends(Matrix([[0, 1], [0, 0]]), t)
    with pytest.raises(ValueError):
        endo_descends(Matrix.identity(3), t)


def test_pol_descends_and_mutation_detected():
    for p in PRIMES:
        t = TwistData.for_prime(p)
        assert pol_descends(t)
    bad = TwistData(5, build_zeta(5), Matrix.identity(4).scale(3))
    assert not pol_descends(bad)


def test_endo_degree_frozen():
    assert endo_degree(build_b(3)) == 9
    assert endo_degree(Matrix.identity(6)) == 1
    one_minus_zeta = regular_rep(CycElem.one(3) - CycElem.zeta(3))
    assert endo_degree(one_minus_zeta) == 9
    with pytest.raises(ValueError):
        endo_degree(Matrix([[1, 1], [1, 1]]))


def test_degree_is_squared_norm():
    rng = random.Random(43)
    for p in (3, 5, 7):
        for _ in range(10):
            a = CycElem(p, [rng.randint(-4, 4) for _ in range(p - 1)])
            if a.is_zero():
                continue
            n = norm_to_Q(a)
            if n == 0:
                continue
            assert endo_degree(regular_rep(a)) == central_degree(a) == n * n


# ---------------------------------------------------------------------------
# Rosati involution


def test_rosati_frozen():
    t = TwistData.for_prime(5)
    assert rosati(t.zeta, t) == t.zeta ** 4
    assert rosati(Matrix.identity(4), t) == Matrix.identity(4)
    assert rosati(t.b, t) == t.b
    # zeta's image is integral, so the closed form keeps it in plain ints
    for p in PRIMES_TO_61:
        t = TwistData.for_prime(p)
        r = rosati(t.zeta, t)
        assert r == t.zeta ** (p - 1)
        assert all(type(v) is int for row in r.rows for v in row)


def test_rosati_is_an_involution_and_antihomomorphism():
    rng = random.Random(47)
    for p in (3, 5, 7):
        t = TwistData.for_prime(p)
        for _ in range(5):
            x = _rand_int_matrix(rng, p - 1)
            y = _rand_int_matrix(rng, p - 1)
            assert rosati(rosati(x, t), t) == x
            assert rosati(x * y, t) == rosati(y, t) * rosati(x, t)


def test_rosati_closed_form_matches_exact_solve():
    rng = random.Random(59)
    for p in PRIMES:
        t = TwistData.for_prime(p)
        for x in [t.zeta, t.b, _rand_int_matrix(rng, p - 1), _rand_int_matrix(rng, p - 1)]:
            assert rosati(x, t) == solve_exact(t.b, x.transpose() * t.b)


def test_rosati_rejects_foreign_form():
    z = build_zeta(5)
    foreign = TwistData(5, z, Matrix.identity(4).scale(3))
    with pytest.raises(ValueError):
        rosati(z, foreign)


def test_rosati_preserves_commutant():
    t = TwistData.for_prime(7)
    for m in centralizer_basis(7):
        r = rosati(m, t)
        assert r.is_integral()
        assert endo_descends(r, t)


# ---------------------------------------------------------------------------
# the commutant lattice


def test_centralizer_rank_and_commutation():
    for p in PRIMES:
        basis = centralizer_basis(p)
        assert len(basis) == p - 1
        z = build_zeta(p)
        for m in basis:
            assert z * m == m * z


def test_centralizer_rejects_unknown_methods():
    # the kernel route is the only one; the structural route is gone
    for bad in ("magic", "auto", "structural"):
        with pytest.raises(ValueError, match="unknown method"):
            centralizer_basis(5, method=bad)


def test_cyclic_vector_certificate_matches_kernel_lattice():
    # the certificate: X in the commutant is sum c_k zeta^k with
    # c = T^(-1) X e1, and c is integral because T = [e1, zeta e1, ...]
    # is unimodular. Check that claim on the generic kernel route's basis.
    for p in PRIMES:
        t = TwistData.for_prime(p)
        assert _holds("centralizer_rank", t)
        assert _holds("centralizer_equals_zeta_powers", t)
        tr = power_basis_transform(p)
        powers = zeta_power_lattice(p)
        basis = centralizer_basis(p, method="kernel")
        assert len(basis) == p - 1
        for x in basis:
            c = solve_exact(tr, Matrix.from_columns([x.column(0)])).column(0)
            assert all(isinstance(ck, int) for ck in c)
            combo = Matrix.zero(p - 1, p - 1)
            for ck, zk in zip(c, powers):
                combo = combo + zk.scale(ck)
            assert combo == x


def test_centralizer_equals_power_span():
    for p in PRIMES:
        h_basis = col_hnf(flatten_matrices(centralizer_basis(p)))
        h_powers = col_hnf(flatten_matrices(zeta_power_lattice(p)))
        assert h_basis == h_powers


@pytest.mark.parametrize("p", [37, 43])
def test_kernel_route_matches_certificate_at_larger_primes(p):
    # the sweep prints centralizer_rank at these primes on the orbit
    # certificate alone; the generic kernel route confirms the lattice
    basis = centralizer_basis(p)
    assert len(basis) == p - 1
    assert col_hnf(flatten_matrices(basis)) == \
        col_hnf(flatten_matrices(zeta_power_lattice(p)))
    t = TwistData.for_prime(p)
    assert _holds("centralizer_rank", t)
    assert _holds("centralizer_equals_zeta_powers", t)


def test_noncommuting_matrix_outside_lattice():
    from polobstruct.intlinalg import col_lattice_contains

    p = 5
    lattice = col_hnf(flatten_matrices(centralizer_basis(p)))
    rng = random.Random(53)
    t = TwistData.for_prime(p)
    rejected = 0
    while rejected < 8:
        x = _rand_int_matrix(rng, p - 1)
        if endo_descends(x, t):
            continue
        flat = tuple(v for row in x.rows for v in row)
        assert not col_lattice_contains(lattice, flat)
        rejected += 1


def test_power_basis_transform():
    t3 = power_basis_transform(3)
    assert t3 == Matrix([[1, -1], [0, 1]])
    for p in PRIMES:
        tr = power_basis_transform(p)
        z = build_zeta(p)
        c = regular_rep(CycElem.zeta(p))
        assert z * tr == tr * c
        assert det(tr) in (1, -1)


def test_flatten_matrices_requires_input():
    with pytest.raises(ValueError):
        flatten_matrices([])


# ---------------------------------------------------------------------------
# products with zeta: the companion shift and the generic product


SHIFT_PRIMES = [3, 5, 7, 13, 43]


def _rand_entries(rng, m, n, fractions):
    def entry():
        if fractions and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-9, 9)
    return [[entry() for _ in range(n)] for _ in range(m)]


def _count_generic_products(monkeypatch):
    """Counts of _matmul and Matrix.mul_vector calls, which still run."""
    import polobstruct.intlinalg as il

    counts = {"matmul": 0, "mul_vector": 0}
    matmul, mul_vector = il._matmul, Matrix.mul_vector

    def counted_matmul(a, b):
        counts["matmul"] += 1
        return matmul(a, b)

    def counted_mul_vector(self, v):
        counts["mul_vector"] += 1
        return mul_vector(self, v)

    monkeypatch.setattr(il, "_matmul", counted_matmul)
    monkeypatch.setattr(Matrix, "mul_vector", counted_mul_vector)
    return counts


@pytest.mark.parametrize("p", SHIFT_PRIMES)
@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_zeta_shifts_are_the_generic_products(p, fractions):
    rng = random.Random(p + 100 * fractions)
    t = TwistData.for_prime(p)
    z, n = t.zeta, p - 1
    assert t.zeta_is_companion
    for k in (n, n, 1, 3):
        tall = Matrix(_rand_entries(rng, n, k, fractions))
        wide = Matrix(_rand_entries(rng, k, n, fractions))
        # the shifts give rows, compared by value with the product's rows
        assert tuple(t.zeta_times(tall)) == (z * tall).rows
        assert tuple(t.times_zeta(wide)) == (wide * z).rows
        v = _rand_entries(rng, 1, n, fractions)[0]
        assert t.zeta_times_vector(v) == z.mul_vector(v)
    # shapes that do not chain fail as the generic product does
    with pytest.raises(ValueError, match="cannot multiply"):
        t.zeta_times(Matrix.identity(n + 1))
    with pytest.raises(ValueError, match="cannot multiply"):
        t.times_zeta(Matrix.zero(2, n - 1))
    with pytest.raises(ValueError, match="length mismatch"):
        t.zeta_times_vector([1] * (n + 1))
    with pytest.raises(TypeError):
        t.zeta_times_vector([0.5] * n)


def test_zeta_shifts_keep_empty_shapes():
    t = TwistData.for_prime(5)
    assert tuple(t.zeta_times(Matrix.zero(4, 0))) == ((),) * 4
    assert tuple(t.times_zeta(Matrix.zero(0, 4))) == ()


def test_zeta_shifts_iterate_once_on_both_routes():
    # the companion shift and a foreign zeta's generic product give the
    # same kind of result: an iterator over the rows, read once
    x = Matrix(_rand_entries(random.Random(3), 4, 4, False))
    for t in (TwistData.for_prime(5), _foreign_zetas()[-1]):
        assert t.zeta_is_companion is (t.p == 5 and t.zeta == build_zeta(5))
        for rows in (t.zeta_times(x), t.times_zeta(x)):
            assert iter(rows) is rows
            assert len(tuple(rows)) == 4 and tuple(rows) == ()


def test_is_companion_is_the_shape_of_zeta():
    for p in PRIMES_TO_61:
        z = build_zeta(p)
        mod_p = Matrix([[x % p for x in r] for r in z.rows])
        # one integer shape: zeta mod p is no companion matrix
        assert is_companion(z) and not is_companion(mod_p)
        with pytest.raises(TypeError):
            is_companion(z, p)
    rng = random.Random(25)
    for p in (3, 5, 7, 13):
        n = p - 1
        for _ in range(20):
            rows = [list(r) for r in build_zeta(p).rows]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += rng.choice([-2, -1, 1, 2])
            assert not is_companion(Matrix(rows))
            rows[i][j] = build_zeta(p)[i, j] + p
            assert not is_companion(Matrix(rows))
    assert not is_companion(build_zeta(5).transpose())
    assert not is_companion(Matrix.zero(0, 0))
    assert not is_companion(Matrix([[-1, -1, -1], [1, 0, 0]]))


def test_companion_zeta_takes_no_generic_product(monkeypatch):
    counts = _count_generic_products(monkeypatch)
    rng = random.Random(43)
    for p in SHIFT_PRIMES:
        t = TwistData.for_prime(p)
        assert all(holds(t) for _, holds in CONSTRUCTION_CHECKS)
        assert endo_descends(t.zeta, t)
        assert not endo_descends(_rand_int_matrix(rng, p - 1), t)
    assert counts == {"matmul": 0, "mul_vector": 0}


def _poly_in_zeta(z, coeffs):
    """sum c_k zeta^k by generic products."""
    n = z.nrows
    out, power = Matrix.zero(n, n), Matrix.identity(n)
    for c in coeffs:
        out, power = out + power.scale(c), power * z
    return out


def _sparse_draw(rng, n):
    """One entry of {-2, -1, 1, 2} per row at a seeded column, as verify
    draws its non-commuting samples."""
    rows = [[0] * n for _ in range(n)]
    for r in rows:
        r[rng.randrange(n)] = rng.choice((-2, -1, 1, 2))
    return Matrix(rows)


@pytest.mark.parametrize("p", SHIFT_PRIMES)
def test_descent_rows_agree_with_the_generic_product(p, monkeypatch):
    rng = random.Random(p + 29)
    t = TwistData.for_prime(p)
    z, b, n = t.zeta, t.b, p - 1
    # polynomials in zeta: int, Fraction and integral Fraction coefficients
    commuting = [_poly_in_zeta(z, cs) for cs in (
        [rng.randint(-3, 3) for _ in range(n)],
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)],
        [Fraction(2 * rng.randint(-5, 5), 2) for _ in range(n)])]
    changed = []
    for m in commuting:
        rows = [list(r) for r in m.rows]
        rows[-1][rng.randrange(n)] += rng.choice((-1, Fraction(1, 2), 1))
        changed.append(Matrix(rows))
    samples = commuting + changed + [_sparse_draw(rng, n) for _ in range(3)]
    forms = [b, b.scale(2)]
    for i in (0, n // 2, n - 1):
        rows = [list(r) for r in b.rows]
        rows[i][rng.randrange(n)] += 1
        forms.append(Matrix(rows))
    generic = ([z * m == m * z for m in samples],
               [z.transpose() * f * z == f for f in forms])
    assert generic[0][:6] == [True] * 3 + [False] * 3
    assert generic[1] == [True, True, False, False, False]
    twists = [TwistData(p, z, f) for f in forms]
    counts = _count_generic_products(monkeypatch)
    assert ([endo_descends(m, t) for m in samples],
            [pol_descends(u) for u in twists]) == generic
    assert counts == {"matmul": 0, "mul_vector": 0}


def test_rosati_divides_column_sums_exactly():
    # an integral quotient is an int, any other a Fraction; x may hold
    # Fractions whose sums are integral
    rng = random.Random(61)
    for p in (3, 5, 7, 13):
        t = TwistData.for_prime(p)
        n = p - 1
        halves = Matrix([[Fraction(rng.choice((-1, 1)), 2) for _ in range(n)]
                         for _ in range(n)])
        for x in (halves, t.b.scale(p), _rand_int_matrix(rng, n)):
            r = rosati(x, t)
            assert r == solve_exact(t.b, x.transpose() * t.b)
            assert all(type(v) is int or v.denominator > 1 for row in r.rows for v in row)
        assert all(type(v) is int for row in rosati(t.b.scale(p), t).rows for v in row)


def _foreign_zetas():
    """TwistData whose zeta is not the companion shape: zeta^t and 2 zeta
    of _foreign_twists, and zeta with one first-row entry changed."""
    rows = [list(r) for r in build_zeta(5).rows]
    rows[0][3] = -2
    return ([t for p in (3, 5, 7) for t in _foreign_twists(p)[3:]]
            + [TwistData(5, Matrix(rows), build_b(5))])


def _generic_verdicts(t, samples):
    """The verdicts of the checks that multiply by zeta, by generic
    products the test spells out."""
    z, b, n = t.zeta, t.b, t.p - 1
    vecs = [tuple(int(i == 0) for i in range(n))]
    for _ in range(n):
        vecs.append(z.mul_vector(vecs[-1]))
    return (z.transpose() * b * z == b,
            t.b_is_i_plus_j and rosati(z, t) * z == Matrix.identity(n),
            tuple(vecs),
            [z * m == m * z for m in samples])


def _shift_verdicts(t, samples):
    return (_holds("polarization_descends", t), _holds("rosati_inverts_zeta", t),
            t.orbit.vectors, [endo_descends(m, t) for m in samples])


def test_foreign_zeta_takes_the_generic_product(monkeypatch):
    rng = random.Random(7)
    for t in _foreign_zetas():
        n = t.p - 1
        samples = [t.zeta, t.zeta.scale(3)] + [_rand_int_matrix(rng, n) for _ in range(3)]
        expected = _generic_verdicts(t, samples)
        assert not t.zeta_is_companion
        counts = _count_generic_products(monkeypatch)
        assert _shift_verdicts(t, samples) == expected
        # pol_descends two, the rosati check one, endo_descends two each,
        # and one matrix-vector product per orbit step
        assert counts == {"matmul": 2 + t.b_is_i_plus_j + 2 * len(samples),
                          "mul_vector": n}
        monkeypatch.undo()


def test_companion_zeta_with_a_foreign_form_matches_the_generic_product():
    rng = random.Random(8)
    for p in (3, 5, 7):
        for t in _foreign_twists(p)[:3]:
            assert t.zeta_is_companion
            samples = [t.zeta, t.b] + [_rand_int_matrix(rng, p - 1) for _ in range(3)]
            assert _shift_verdicts(t, samples) == _generic_verdicts(t, samples)
