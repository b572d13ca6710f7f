"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints a single pass/fail line with capture suspended so the
verdict is visible in any pytest run, then asserts. All comparisons are
exact; the two timed criteria assert their wall budgets.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from polobstruct.cyclotomic import (
    CycElem,
    complex_conj,
    cyclotomic_poly,
    from_eta,
    is_odd_prime,
    is_totally_positive,
    norm_to_Q,
    regular_rep,
)
from polobstruct.galmod import (
    build_ptorsion,
    composition_factors,
    filtration_dims,
    polarization_parity,
)
from polobstruct.intlinalg import Matrix, det, minpoly, snf
from polobstruct.kergroup import (
    AlgebraFactor,
    CenterField,
    KerClass,
    attainable,
    b1_group,
    b2_group,
    is_square_in_Qp,
    parity_hom,
    r_membership,
    twist_model,
)
from polobstruct.twist import (
    build_b,
    build_zeta,
    centralizer_basis,
    endo_degree,
    flatten_matrices,
    reduce_shift,
    zeta_power_lattice,
)
from polobstruct.intlinalg import col_lattice_eq


def _report(capsys, num, ok, desc):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num}: {verdict} - {desc}")


def _odd_primes(limit):
    return [p for p in range(3, limit + 1) if is_odd_prime(p)]


def test_criterion_1_construction_identities(capsys):
    start = time.monotonic()
    failures = []
    for p in _odd_primes(101):
        z = build_zeta(p)
        b = build_b(p)
        n = p - 1
        if minpoly(z) != cyclotomic_poly(p):
            failures.append((p, "minpoly"))
        if z ** p != Matrix.identity(n):
            failures.append((p, "order"))
        if det(b) != p:
            failures.append((p, "det"))
        if z.transpose() * b * z != b:
            failures.append((p, "pairing"))
        if reduce_shift(p) != z:
            failures.append((p, "shift"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(capsys, 1, ok, f"construction identities for all p <= 101 in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0, f"budget blown: {elapsed:.1f}s"


def test_criterion_2_centralizer_is_power_lattice(capsys):
    failures = []
    for p in _odd_primes(31):
        cent = centralizer_basis(p)
        if len(cent) != p - 1:
            failures.append((p, "rank"))
        if not col_lattice_eq(flatten_matrices(cent),
                              flatten_matrices(zeta_power_lattice(p))):
            failures.append((p, "lattice"))
    ok = not failures
    _report(capsys, 2, ok, "commutant of the cocycle equals the power lattice, p <= 31")
    assert not failures, failures


def test_criterion_3_degree_is_norm_squared(capsys):
    start = time.monotonic()
    rng = random.Random(1729)
    failures = []
    for p in (3, 5, 7, 11, 13):
        checked = 0
        while checked < 100:
            coords = tuple(rng.randint(-5, 5) for _ in range(p - 1))
            a = CycElem(p, coords)
            if a.is_zero():
                continue
            checked += 1
            nm = Fraction(norm_to_Q(a))
            if endo_degree(regular_rep(a)) != nm * nm:
                failures.append((p, coords))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report(capsys, 3, ok, f"endomorphism degree = norm^2, 100 samples x 5 primes in {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0, f"budget blown: {elapsed:.1f}s"


def test_criterion_4_torsion_filtration(capsys):
    failures = []
    for p in _odd_primes(31):
        mod = build_ptorsion(p)
        if filtration_dims(mod) != list(range(2 * (p - 1), -2, -2)):
            failures.append((p, "dims"))
        try:
            labels = composition_factors(mod)
        except AssertionError:
            failures.append((p, "action"))
            continue
        if labels != [f"E[{p}]"] * (p - 1):
            failures.append((p, "factors"))
    ok = not failures
    _report(capsys, 4, ok, "p-torsion filtration drops by 2 with trivial steps, p <= 31")
    assert not failures, failures


def test_criterion_5_parity_formula(capsys):
    failures = []
    for p in (3, 5, 7):
        for n in range(1, 1001):
            v = 0
            m = n
            while m % p == 0:
                m //= p
                v += 1
            r = polarization_parity(p, n)
            if r.value != 1 + 2 * v or r.parity != 1:
                failures.append((p, n))
    ok = not failures
    _report(capsys, 5, ok, "kernel rank of a pulled back polarization is 1 + 2v_p(n), odd")
    assert not failures, failures[:5]


def test_criterion_6_obstruction_groups(capsys):
    failures = []
    for p in (3, 5, 7, 11):
        model = twist_model(p, samples=6)
        b1 = b1_group(model)
        b2 = b2_group(model)
        if (b1.invariant_factors, b1.free_rank) != ((2,), 0):
            failures.append((p, "b1"))
        if (b2.invariant_factors, b2.free_rank) != ((2,), 0):
            failures.append((p, "b2"))
        ic = KerClass(model.labels, model.s_c[0])
        if parity_hom(ic, p) != 1:
            failures.append((p, "parity"))
        principal = attainable([0], model)
        if principal.ok or principal.reason != "b2_image_not_in_s_c":
            failures.append((p, "principal"))
        if not attainable([1], model).ok:
            failures.append((p, "known class"))
    ok = not failures
    _report(capsys, 6, ok, "obstruction group is Z/2 and the zero class is unattainable")
    assert not failures, failures


def _square_oracle(q, p, cache={}):
    q = Fraction(q)
    m = q.numerator * q.denominator
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    if v % 2:
        return False
    if p not in cache:
        mod = p ** 6
        cache[p] = {(x * x) % mod for x in range(1, mod) if x % p}
    return m % p ** 6 in cache[p]


def _real_embeddings(p, coords):
    """The real embeddings of sum coords[k] eta^k, at eta = 2 cos(2 pi j / p)."""
    mpmath.mp.dps = 60
    vals = []
    for j in range(1, (p - 1) // 2 + 1):
        e = 2 * mpmath.cos(2 * mpmath.pi * j / p)
        acc = mpmath.mpf(0)
        for k, c in enumerate(coords):
            acc += mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) * e ** k
        vals.append(acc)
    return vals


def test_criterion_7_membership_machinery(capsys):
    failures = []
    # local squares against the residue oracle
    for p in (2, 3, 5, 7, 11):
        for q in range(-100, 101):
            if q == 0:
                continue
            if is_square_in_Qp(q, p) != _square_oracle(q, p):
                failures.append(("square", p, q))
    # nesting of the graded membership sets
    rng = random.Random(1729)
    fI_q = AlgebraFactor("I", CenterField("Q"))
    fI_r = AlgebraFactor("I", CenterField("real_cyclotomic", 5))
    fII = AlgebraFactor("II", CenterField("Q"), 1, (2, 7))
    fIII = AlgebraFactor("III", CenterField("Q"))
    fIV = AlgebraFactor("IV", CenterField("cyclotomic", 5))

    def nested(x, f):
        r0, r1, r2 = (r_membership(x, lv, f) for lv in (0, 1, 2))
        return (not r2 or r1) and (not r1 or r0)

    for _ in range(200):
        q = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 30))
        if not nested(q, fI_q):
            failures.append(("nest-I", q))
        if not nested(q, fII):
            failures.append(("nest-II", q))
        if q > 0 and not nested(q, fIII):
            failures.append(("nest-III", q))
        rc = tuple(rng.randint(-3, 3) for _ in range(2))
        if any(rc) and not nested(from_eta(5, rc), fI_r):
            failures.append(("nest-I-real", rc))
        cc = tuple(rng.randint(-3, 3) for _ in range(4))
        x = CycElem(5, cc)
        if not x.is_zero():
            if not nested(x, fIV) or not nested(x * complex_conj(x), fIV):
                failures.append(("nest-IV", cc))
    # exact positivity against floating embeddings
    for p in (3, 5, 7, 11):
        checked = 0
        while checked < 200:
            coords = tuple(Fraction(rng.randint(-6, 6)) for _ in range((p - 1) // 2))
            if not any(coords):
                continue
            a = from_eta(p, coords)
            vals = _real_embeddings(p, coords)
            if min(abs(v) for v in vals) < mpmath.mpf("1e-30"):
                continue
            checked += 1
            if is_totally_positive(a) != all(v > 0 for v in vals):
                failures.append(("sturm", p, coords))
    ok = not failures
    _report(capsys, 7, ok, "local squares, membership nesting, and exact positivity agree")
    assert not failures, failures[:5]


def _minor_gcd(a: Matrix, k):
    import itertools

    g = 0
    rows = range(a.nrows)
    cols = range(a.ncols)
    for ri in itertools.combinations(rows, k):
        for ci in itertools.combinations(cols, k):
            sub = Matrix([[a[i, j] for j in ci] for i in ri])
            g = math.gcd(g, int(det(sub)))
            if g == 1:
                return 1
    return g


def test_criterion_8_snf_certificates(capsys):
    rng = random.Random(1729)
    failures = []
    for trial in range(50):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = Matrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)])
        res = snf(a)
        if res.U * a * res.V != res.D:
            failures.append((trial, "factorization"))
        if abs(det(res.U)) != 1 or abs(det(res.V)) != 1:
            failures.append((trial, "unimodular"))
        d = res.invariant_factors
        if any(x < 0 for x in d):
            failures.append((trial, "sign"))
        for i in range(len(d) - 1):
            if d[i + 1] % max(d[i], 1) and d[i] != 0:
                failures.append((trial, "chain"))
                break
        if any(d[i] == 0 and d[j] != 0 for i in range(len(d)) for j in range(i, len(d))
               if j > i):
            failures.append((trial, "zero order"))
        # product of the first k factors is the gcd of all k x k minors
        prod = 1
        for k in range(1, min(m, n, 4) + 1):
            prod *= d[k - 1]
            if prod != _minor_gcd(a, k):
                failures.append((trial, f"minor gcd {k}"))
                break
    ok = not failures
    _report(capsys, 8, ok, "Smith form certificates on 50 random matrices")
    assert not failures, failures[:5]
