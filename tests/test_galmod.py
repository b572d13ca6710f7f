import random
from fractions import Fraction

import pytest

from polobstruct.galmod import (
    EpRank,
    TorsionModule,
    build_ptorsion,
    composition_factors,
    e_rank_of_order,
    filtration_dims,
    polarization_parity,
)
from polobstruct.intlinalg import Matrix, snf
from polobstruct.twist import build_zeta


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


def test_build_ptorsion_p3():
    mod = build_ptorsion(3)
    assert mod.p == 3 and mod.dim == 4
    assert mod.action == Matrix([[2, 0, 2, 0], [0, 2, 0, 2],
                                 [1, 0, 0, 0], [0, 1, 0, 0]])


def test_build_ptorsion_is_kron_of_zeta_mod_p():
    for p in (3, 5, 7, 11):
        zp = _mod(build_zeta(p), p)
        assert build_ptorsion(p).action == _kron(zp, Matrix.identity(2))


def test_build_ptorsion_rejects_bad_p():
    for bad in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            build_ptorsion(bad)


def test_action_has_order_p():
    for p in (3, 5, 7):
        mod = build_ptorsion(p)
        power = Matrix.identity(mod.dim)
        for _ in range(p):
            power = _mod(power * mod.action, p)
        assert power == Matrix.identity(mod.dim)


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


def _dual(mod):
    # Cartier duality sends the action to its inverse transpose; the
    # inverse of an order-p action is its (p-1)-st power
    inv = Matrix.identity(mod.dim)
    for _ in range(mod.p - 1):
        inv = _mod(inv * mod.action, mod.p)
    assert _mod(inv * mod.action, mod.p) == Matrix.identity(mod.dim)
    return TorsionModule(mod.p, mod.dim, inv.transpose())


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
            eye = Matrix.identity(m.dim)
            ranks = [_rank_mod_p_oracle(pw, p)
                     for pw in _powers_mod(_mod(m.action - eye, p), p)]
            assert filtration_dims(m) == ranks == dims


def test_composition_factors():
    for p in (3, 5, 11):
        labels = composition_factors(build_ptorsion(p))
        assert labels == [f"E[{p}]"] * (p - 1)


def _one_dimensional_steps(p):
    # zeta - 1 on the first fiber coordinate, zero on the second: unipotent,
    # but every filtration step has dimension 1
    zp = _mod(build_zeta(p), p)
    eye = Matrix.identity(p - 1)
    return (_kron(zp, Matrix.diagonal([1, 0]))
            + _kron(eye, Matrix.diagonal([0, 1])))


def _parallel_tails(p):
    # e_0 -> e_2 -> ... -> e_(2n-2) -> 0 is one Jordan block and e_1 -> e_2
    # joins it, so N^(n-1) e_0 = N^(n-1) e_1 is killed by N: the certificate's
    # last product vanishes, and only the minor test sees the dependency
    dim = 2 * (p - 1)
    rows = Matrix.identity(dim).to_lists()
    for k in range(0, dim - 2, 2):
        rows[k + 2][k] = 1
    rows[2][1] = 1
    return Matrix(rows)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("broken", [
    lambda p: Matrix.identity(2 * (p - 1)),  # first step is everything
    _one_dimensional_steps,
    lambda p: 2 * Matrix.identity(2 * (p - 1)),  # not unipotent
    _parallel_tails,
], ids=["identity", "one_dimensional_steps", "scalar_two", "parallel_tails"])
def test_certificate_rejects_wrong_structure(p, broken):
    mod = TorsionModule(p, 2 * (p - 1), broken(p))
    eye = Matrix.identity(mod.dim)
    ranks = [_rank_mod_p_oracle(pw, p)
             for pw in _powers_mod(_mod(mod.action - eye, p), p)]
    assert ranks != list(range(mod.dim, -2, -2))  # the oracle agrees it is broken
    assert not mod.two_jordan_blocks
    with pytest.raises(AssertionError):
        filtration_dims(mod)
    with pytest.raises(AssertionError):
        composition_factors(mod)


def test_composition_factors_rejects_wrong_steps():
    # identity action: (A - 1) is zero, first step drops by the full dimension
    broken = TorsionModule(3, 4, Matrix.identity(4))
    with pytest.raises(AssertionError):
        composition_factors(broken)


def test_torsion_module_needs_dimension_2_p_minus_1():
    with pytest.raises(ValueError):
        TorsionModule(5, 6, Matrix.identity(6))
    with pytest.raises(ValueError):
        TorsionModule(5, 8, Matrix.identity(6))


class _ArrayLike:
    """Has the shape and rows of an 8 x 8 matrix, but is no Matrix."""

    shape = (8, 8)
    rows = Matrix.identity(8).rows


def _with_fraction_entry():
    rows = Matrix.identity(8).to_lists()
    rows[0][1] = Fraction(1, 2)
    return Matrix(rows)


@pytest.mark.parametrize("action", [
    Matrix.identity(8).to_lists(),
    _ArrayLike(),
    _with_fraction_entry(),
], ids=["list", "array_like", "fraction_entry"])
def test_torsion_module_needs_an_integer_matrix(action):
    with pytest.raises(ValueError):
        TorsionModule(5, 8, action)


def test_torsion_module_rejects_a_numpy_array():
    np = pytest.importorskip("numpy")
    with pytest.raises(ValueError):
        TorsionModule(5, 8, np.eye(8, dtype=np.int64))


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
