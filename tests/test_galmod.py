import random
import signal
from fractions import Fraction

import pytest

from polobstruct.cyclotomic import CycElem, is_odd_prime
from polobstruct.galmod import (
    EpRank,
    build_ptorsion,
    composition_factors,
    e_rank_of_order,
    filtration_dims,
    polarization_parity,
    valuation,
)
from polobstruct.intlinalg import Matrix, snf
from polobstruct.kergroup import (
    AlgebraFactor,
    CenterField,
    SimpleLabel,
    r_membership,
    twist_model,
)
from polobstruct.twist import TwistData, build_b, build_zeta, is_companion


def _rank_mod_p_oracle(mat, p):
    # rank over F_p = number of invariant factors of the integer matrix
    # that are not divisible by p
    facs = snf(mat).invariant_factors
    return sum(1 for d in facs if d % p != 0)


def _mod(mat, p):
    return Matrix([[x % p for x in row] for row in mat.rows])


def _kron(a, b):
    """Kronecker product of two integer matrices, written out."""
    return Matrix([[x * y for x in ra for y in rb]
                   for ra in a.rows for rb in b.rows])


def _module(p, cocycle):
    """X[p] with the twist acting through a cocycle of the test's choice."""
    return TwistData(p, cocycle, build_b(p))


def _action(t):
    """The 2(p - 1) x 2(p - 1) action kron(zeta mod p, I_2) on X[p]."""
    return _kron(_mod(t.zeta, t.p), Matrix.identity(2))


def test_build_ptorsion_p3():
    t = build_ptorsion(3)
    assert t.p == 3
    assert t.zeta == Matrix([[-1, -1], [1, 0]])  # zeta itself, unreduced
    assert _action(t) == Matrix([[2, 0, 2, 0], [0, 2, 0, 2],
                                 [1, 0, 0, 0], [0, 1, 0, 0]])


def test_build_ptorsion_is_kron_of_zeta_mod_p():
    # the X[p] action has entry zeta_ij mod p at (2i + f, 2j + f) and zero
    # off the matching fiber coordinates
    for p in (3, 5, 7, 11):
        t = build_ptorsion(p)
        assert t == TwistData.for_prime(p) and t.zeta == build_zeta(p)
        action = _action(t)
        assert action.shape == (2 * (p - 1), 2 * (p - 1))
        assert all(action.rows[r][c]
                   == (t.zeta.rows[r // 2][c // 2] % p if r % 2 == c % 2 else 0)
                   for r in range(2 * (p - 1)) for c in range(2 * (p - 1)))


def test_build_ptorsion_rejects_bad_p():
    for bad in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            build_ptorsion(bad)


def test_action_has_order_p():
    for p in (3, 5, 7):
        action = _action(build_ptorsion(p))
        power = Matrix.identity(action.nrows)
        for _ in range(p):
            power = _mod(power * action, p)
        assert power == Matrix.identity(action.nrows)


def test_filtration_dims_frozen():
    assert filtration_dims(build_ptorsion(3)) == [4, 2, 0]
    assert filtration_dims(build_ptorsion(5)) == [8, 6, 4, 2, 0]


def test_filtration_dims_shape():
    for p in (3, 5, 7, 11, 13):
        dims = filtration_dims(build_ptorsion(p))
        assert dims == list(range(2 * (p - 1), -2, -2))


def _powers_mod(nil, p):
    """nil^0 .. nil^(p-1) mod p."""
    power = Matrix.identity(nil.nrows)
    for _ in range(p):
        yield power
        power = _mod(nil * power, p)


def _oracle_dims(t):
    """The SNF ranks mod p of (action - 1)^0 .. (action - 1)^(p-1)."""
    action = _action(t)
    nil = _mod(action - Matrix.identity(action.nrows), t.p)
    return [_rank_mod_p_oracle(pw, t.p) for pw in _powers_mod(nil, t.p)]


def _dual(t):
    # Cartier duality sends the action to its inverse transpose, which is
    # kron of the cocycle's inverse transpose with I_2; the inverse of an
    # order-p cocycle is its (p-1)-st power
    n = t.p - 1
    inv = Matrix.identity(n)
    for _ in range(t.p - 1):
        inv = _mod(inv * t.zeta, t.p)
    assert _mod(inv * t.zeta, t.p) == Matrix.identity(n)
    return _module(t.p, inv.transpose())


def test_filtration_matches_integer_snf_oracle():
    # the certificate against ranks of the actual powers, from the integer
    # SNF: on zeta - 1 itself (n x n), on the full 2n x 2n action, and on
    # the Cartier dual module
    for p in (3, 5, 7, 11, 13):
        z = build_zeta(p)
        nil = z - Matrix.identity(p - 1)
        power = Matrix.identity(p - 1)
        mod = build_ptorsion(p)
        dims = filtration_dims(mod)
        for i in range(p):
            facs = snf(power).invariant_factors
            rank = sum(1 for d in facs if d % p != 0)
            assert dims[i] == 2 * rank
            power = nil * power
        for m in (mod, _dual(mod)):
            assert filtration_dims(m) == _oracle_dims(m) == dims


def test_composition_factors():
    for p in (3, 5, 11):
        labels = composition_factors(build_ptorsion(p))
        assert labels == [f"E[{p}]"] * (p - 1)


def _chain(n, k):
    """1 + N for the nilpotent N with e_0 -> e_1 -> ... -> e_(k-1) -> 0 and
    N = 0 on e_k .. e_(n-1): N ~ J_k + 0."""
    rows = Matrix.identity(n).to_lists()
    for i in range(k - 1):
        rows[i + 1][i] = 1
    return rows


def _chain_too_short(p):
    # N_A = J_(n-1) + J_1, nilpotent of index n - 1 (zero at n = 2): the walk
    # from e_0 dies a step early, so v = N_A^(n-1) e_0 = 0
    return Matrix(_chain(p - 1, p - 2))


def _tail_not_killed(p):
    # N_A = J_n plus N_A e_(n-1) = e_(n-1): the walk reaches v = e_(n-1) != 0,
    # but N_A v = v, so the last step never vanishes
    rows = _chain(p - 1, p - 1)
    rows[-1][-1] = 2
    return Matrix(rows)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("broken", [
    lambda p: Matrix.identity(p - 1),  # first step is everything
    _chain_too_short,
    lambda p: Matrix.identity(p - 1).scale(2),  # not unipotent
    _tail_not_killed,
], ids=["identity", "chain_too_short", "scalar_two", "tail_not_killed"])
def test_certificate_rejects_wrong_structure(p, broken):
    mod = _module(p, broken(p))
    # the oracle agrees it is broken
    assert _oracle_dims(mod) != list(range(2 * (p - 1), -2, -2))
    assert not mod.two_jordan_blocks
    with pytest.raises(AssertionError):
        filtration_dims(mod)
    with pytest.raises(AssertionError):
        composition_factors(mod)


def _walk_2n(mod):
    """The reference certificate on the 2n x 2n action: N = action - 1
    mod p walks e_0 and e_1 p - 2 times; the two results must be
    independent mod p (a 2 x 2 minor test) and both killed by N."""
    p, action = mod.p, _action(mod)

    def apply(u):
        return [(y - x) % p for y, x in zip(action.mul_vector(u), u)]

    u, w = [0] * action.nrows, [0] * action.nrows
    u[0] = w[1] = 1
    for _ in range(p - 2):
        u, w = apply(u), apply(w)
    i = next((i for i, y in enumerate(u) if y), None)
    if i is None or not any((u[i] * wj - uj * w[i]) % p
                            for uj, wj in zip(u, w)):
        return False
    return not any(apply(u)) and not any(apply(w))


def _redrawn_zeta(rng, p):
    """zeta mod p with one entry redrawn."""
    rows = _mod(build_zeta(p), p).to_lists()
    rows[rng.randrange(p - 1)][rng.randrange(p - 1)] = rng.randrange(p)
    return Matrix(rows)


def _relabelled_unipotent(rng, p):
    """1 + N for a random strictly lower triangular N mod p, with the basis
    permuted: unipotent, and one Jordan block only for some draws."""
    n = p - 1
    perm = rng.sample(range(n), n)
    rows = Matrix.identity(n).to_lists()
    for i in range(n):
        for j in range(i):
            rows[perm[i]][perm[j]] = rng.randrange(p)
    return Matrix(rows)


def test_certificate_is_sound_on_foreign_cocycles():
    # 200 seeded cocycles with n <= 6, half of them zeta mod p with one
    # entry redrawn: wherever the certificate holds, the SNF ranks of the
    # powers of action - 1 are those of two Jordan blocks, and it agrees
    # with the 2n x 2n walk on every draw
    rng = random.Random(16)
    verdicts = []
    for k in range(200):
        p = (3, 5, 7)[k % 3]
        draw = _redrawn_zeta if k % 2 else _relabelled_unipotent
        mod = _module(p, draw(rng, p))
        holds = mod.two_jordan_blocks
        assert holds == _walk_2n(mod)
        if holds:
            assert _oracle_dims(mod) == list(range(2 * (p - 1), -2, -2))
        verdicts.append((draw, holds))
    # both verdicts occur in both halves, so neither branch goes unexercised
    for draw in (_redrawn_zeta, _relabelled_unipotent):
        assert {h for d, h in verdicts if d is draw} == {True, False}


def test_certificate_agrees_with_the_2n_walk_up_to_61():
    rng = random.Random(61)
    for p in filter(is_odd_prime, range(3, 62)):
        mod = build_ptorsion(p)
        assert mod.two_jordan_blocks and _walk_2n(mod)
        for draw in (_redrawn_zeta, _redrawn_zeta, _relabelled_unipotent):
            other = _module(p, draw(rng, p))
            assert other.two_jordan_blocks == _walk_2n(other)


def test_composition_factors_rejects_wrong_steps():
    # identity action: (A - 1) is zero, first step drops by the full dimension
    broken = _module(3, Matrix.identity(2))
    with pytest.raises(AssertionError):
        composition_factors(broken)


def test_torsion_module_needs_dimension_2_p_minus_1():
    # the cocycle has size p - 1, so X[p] has dimension 2(p - 1); the
    # 2(p - 1) x 2(p - 1) action itself is not a cocycle
    assert filtration_dims(_module(5, build_zeta(5)))[0] == 8
    for wrong in (Matrix.identity(3), Matrix.identity(8), Matrix.zero(4, 3)):
        with pytest.raises(ValueError, match="Matrix values of size p - 1 = 4"):
            _module(5, wrong)
    # p must be an odd prime: at p = 2 the certificate would read two
    # Jordan blocks of size 1, and 5.0 would give the dimension 8.0
    for p, cocycle in ((4, Matrix.identity(3)), (5.0, Matrix.identity(4)),
                       (2, Matrix.identity(1)), (True, Matrix.identity(0))):
        with pytest.raises(ValueError, match="odd prime"):
            TwistData(p, cocycle, cocycle)


class _ArrayLike:
    """Has the shape and rows of a 4 x 4 matrix, but is no Matrix."""

    shape = (4, 4)
    rows = Matrix.identity(4).rows


def _with_fraction_entry():
    # 1 + N for N: e_0 -> e_1 -> e_2 -> e_3 / 2 -> 0; read over the
    # rationals, the walk from e_0 ends nonzero and one more step kills it
    rows = _chain(4, 4)
    rows[3][2] = Fraction(1, 2)
    return Matrix(rows)


@pytest.mark.parametrize("cocycle", [
    Matrix.identity(4).to_lists(),
    _ArrayLike(),
    _with_fraction_entry(),
], ids=["list", "array_like", "fraction_entry"])
def test_torsion_module_needs_an_integer_matrix(cocycle):
    # a value that is no Matrix is refused, as zeta and as b; a Matrix
    # with a non-integral entry builds, and its certificate answers False
    if isinstance(cocycle, Matrix):
        mod = _module(5, cocycle)
        assert not mod.two_jordan_blocks
        with pytest.raises(AssertionError):
            filtration_dims(mod)
        return
    with pytest.raises(ValueError, match="Matrix values"):
        _module(5, cocycle)
    with pytest.raises(ValueError, match="Matrix values"):
        TwistData(5, build_zeta(5), cocycle)


def test_torsion_module_rejects_a_numpy_array():
    # a numpy array has a shape but no rows: refused at construction, not
    # by an AttributeError from check()
    np = pytest.importorskip("numpy")
    with pytest.raises(ValueError, match="Matrix values"):
        _module(5, np.eye(4, dtype=np.int64))
    with pytest.raises(ValueError, match="Matrix values"):
        TwistData(5, build_zeta(5), np.eye(4, dtype=np.int64))


def test_dual_module_has_same_filtration():
    for p in (3, 5, 7):
        mod = build_ptorsion(p)
        assert filtration_dims(_dual(mod)) == filtration_dims(mod)


def test_e_rank_of_order_frozen():
    assert e_rank_of_order(9, 3) == EpRank(1)
    assert e_rank_of_order(3 ** 6, 3) == EpRank(3)
    assert e_rank_of_order(25 * 7, 5) == EpRank(1)
    assert e_rank_of_order(1, 7) == EpRank(0)
    assert e_rank_of_order(49, 3) == EpRank(0)


def test_e_rank_of_order_rejects():
    with pytest.raises(ValueError):
        e_rank_of_order(3, 3)
    with pytest.raises(ValueError):
        e_rank_of_order(3 ** 5, 3)
    with pytest.raises(ValueError):
        e_rank_of_order(0, 3)
    with pytest.raises(ValueError):
        e_rank_of_order(12, 4)


def test_valuation_rejects_zero_and_small_bases():
    # 0 % p == 0 and q % 1 == 0 hold forever, so these calls once never
    # returned; the alarm turns such a regression into a failure
    def hang(signum, frame):
        raise TimeoutError("valuation did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        for q, p in ((0, 5), (Fraction(0), 3), (7, 1), (7, 0), (7, -3)):
            with pytest.raises(ValueError):
                valuation(q, p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert valuation(Fraction(50, 3), 5) == 2
    assert valuation(Fraction(-2, 27), 3) == -3
    assert valuation(1, 2) == 0


def test_e_rank_additivity():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(20):
            a = p ** (2 * rng.randint(0, 3)) * rng.choice([1, 2, 7, 14])
            b = p ** (2 * rng.randint(0, 3)) * rng.choice([1, 4, 11])
            total = e_rank_of_order(a * b, p).value
            assert total == e_rank_of_order(a, p).value + e_rank_of_order(b, p).value


def test_polarization_parity_frozen():
    assert polarization_parity(3, 1) == EpRank(1)
    assert polarization_parity(3, 3) == EpRank(3)
    assert polarization_parity(3, 9) == EpRank(5)
    assert polarization_parity(5, 6) == EpRank(1)
    assert polarization_parity(7, 1000) == EpRank(1)


def test_polarization_parity_always_odd():
    for p in (3, 5, 7):
        for n in range(1, 201):
            assert polarization_parity(p, n).parity == 1


def test_polarization_parity_rejects():
    with pytest.raises(ValueError):
        polarization_parity(3, 0)
    with pytest.raises(ValueError):
        polarization_parity(3, -2)
    with pytest.raises(ValueError):
        polarization_parity(4, 1)


def test_ep_rank_validation():
    with pytest.raises(ValueError):
        EpRank(-1)
    assert EpRank(2).parity == 0
    assert EpRank(3).parity == 1


_Q_FACTOR = AlgebraFactor("I", CenterField("Q"))

# every site that takes a count: (name, call, least allowed value, what)
_COUNT_SITES = [
    ("Matrix.ncols", lambda k: Matrix([], ncols=k), 0, "ncols"),
    ("Matrix.zero.m", lambda k: Matrix.zero(k, 2), 0, "nrows"),
    ("Matrix.zero.n", lambda k: Matrix.zero(2, k), 0, "ncols"),
    ("Matrix.identity", Matrix.identity, 0, "size"),
    ("Matrix.from_columns", lambda k: Matrix.from_columns([()], nrows=k), 0, "nrows"),
    ("Matrix.pow", lambda k: Matrix.identity(2) ** k, 0, "exponent"),
    ("CycElem.pow", lambda k: CycElem.zeta(5) ** k, 0, "exponent"),
    ("EpRank", EpRank, 0, "rank"),
    ("e_rank_of_order", lambda k: e_rank_of_order(k, 3), 1, "order"),
    ("polarization_parity", lambda k: polarization_parity(5, k), 1, "n"),
    ("valuation", lambda k: valuation(5, k), 2, "a valuation base"),
    ("SimpleLabel", lambda k: SimpleLabel("G", k, "G"), 2, "rank"),
    ("AlgebraFactor", lambda k: AlgebraFactor("I", CenterField("Q"), k), 1, "n"),
    ("r_membership", lambda k: r_membership(1, k, _Q_FACTOR), 0, "level"),
    ("twist_model", lambda k: twist_model(3, samples=k), 0, "samples"),
]
_NO_COUNTS = [("float", float), ("half", lambda least: least + 0.5),
              ("bool", lambda least: True), ("str", str),
              ("fraction", Fraction), ("below", lambda least: least - 1)]


@pytest.mark.parametrize("bad", _NO_COUNTS, ids=[b[0] for b in _NO_COUNTS])
@pytest.mark.parametrize("site", _COUNT_SITES, ids=[s[0] for s in _COUNT_SITES])
def test_a_count_site_refuses_what_is_no_count(site, bad):
    # a count is an int, not a bool, of at least its site's least value;
    # int() would read 2.7 as 2 and '3' as 3, and True would pass as 1
    _, call, least, what = site
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        least, f"an integer >= {least}")
    with pytest.raises(ValueError, match=f"^{what} must be {kind}$"):
        call(bad[1](least))
    call(least)


def test_a_level_is_at_most_2():
    assert r_membership(1, 2, _Q_FACTOR)
    with pytest.raises(ValueError, match="level must be 0, 1 or 2"):
        r_membership(1, 3, _Q_FACTOR)


def test_companion_step_matches_the_generic_step_up_to_61(monkeypatch):
    # (zeta - 1) u mod p by the shift equals the cocycle's listed product,
    # and the certificate reads the same on either route
    import polobstruct.twist as twist

    rng = random.Random(25)
    for p in filter(is_odd_prime, range(3, 62)):
        t = build_ptorsion(p)
        assert is_companion(t.zeta) and t.zeta_is_companion
        for _ in range(5):
            u = [rng.randrange(p) for _ in range(p - 1)]
            assert [(y - x) % p for y, x in zip(t.zeta_times_vector(u), u)] \
                == [(y - x) % p for y, x in zip(t.zeta.mul_vector(u), u)]
    calls = []
    mul_vector = Matrix.mul_vector
    monkeypatch.setattr(Matrix, "mul_vector",
                        lambda self, v: calls.append(1) or mul_vector(self, v))
    for p in filter(is_odd_prime, range(3, 62)):
        assert build_ptorsion(p).two_jordan_blocks
    assert calls == []
    monkeypatch.setattr(twist, "is_companion", lambda m: False)
    for p in filter(is_odd_prime, range(3, 62)):
        calls.clear()
        assert build_ptorsion(p).two_jordan_blocks
        assert len(calls) == p - 1


def _walk_from_e0(cocycle, p):
    """(cocycle - 1)^(p - 2) e_0 mod p, by the generic product."""
    v = [int(i == 0) for i in range(p - 1)]
    for _ in range(p - 2):
        v = [(y - x) % p for y, x in zip(cocycle.mul_vector(v), v)]
    return v


def test_foreign_cocycles_take_the_generic_step(monkeypatch):
    rng = random.Random(26)
    calls = []
    mul_vector = Matrix.mul_vector
    monkeypatch.setattr(Matrix, "mul_vector",
                        lambda self, v: calls.append(1) or mul_vector(self, v))
    for p in (5, 7, 13):
        rows = build_zeta(p).to_lists()
        rows[0][rng.randrange(p - 1)] = 0
        for other in (Matrix(rows), _relabelled_unipotent(rng, p)):
            mod = _module(p, other)
            assert not is_companion(other)
            # p - 2 steps, and one more when the walk ends nonzero
            steps = p - 2 + any(_walk_from_e0(other, p))
            calls.clear()
            verdict = mod.two_jordan_blocks
            assert len(calls) == steps
            assert verdict == _walk_2n(mod)
