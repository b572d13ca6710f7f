"""Property tests at the int64 guard boundaries.

The package has two int64 paths. intlinalg._matmul takes numpy's int64
product only when max|A| * max|B| * inner_dim < 2^62, and
galmod._check_modp_bounds admits the mod-p certificate only when
dim * (p-1)^2 < 2^62. Near those bounds both must agree exactly with plain
Python bigint arithmetic.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polobstruct.galmod import _check_modp_bounds
from polobstruct.intlinalg import Matrix, _matmul

# derandomized and without an example database, so every run draws the
# same examples and leaves nothing behind
_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)


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


@_SETTINGS
@given(_factor_pair())
@example(([[2 ** 31]], [[2 ** 31 - 1]]))  # bound just met: int64 path
@example(([[2 ** 31, 2 ** 31]], [[2 ** 31 - 1], [2 ** 31 - 1]]))  # bigint path
@example(([[-(2 ** 31), 2 ** 31 - 1]], [[-(2 ** 30)], [-(2 ** 30)]]))
def test_matmul_matches_bigint_at_the_guard(pair):
    a, b = pair
    assert _matmul(Matrix(a), Matrix(b)).rows == _bigint_product(a, b)


@st.composite
def _modp_shape(draw):
    # p - 1 near a power of two up to 2^31, and dim putting the worst-case
    # accumulator dim * (p-1)^2 within a factor 4 of 2^62 on both sides
    q = max(1, draw(_near(2 ** draw(st.integers(0, 31)))))
    dim = 2 ** draw(st.integers(60, 64)) // (q * q) + draw(st.integers(-2, 2))
    assume(dim >= 1 and 2 ** 60 <= dim * q * q <= 2 ** 64)
    return dim, q + 1


def _admitted(dim, p):
    try:
        _check_modp_bounds(dim, p)
    except ValueError:
        return False
    return True


@_SETTINGS
@given(_modp_shape())
@example((1, 2 ** 31))  # (2^31 - 1)^2 < 2^62: admitted
@example((1, 2 ** 31 + 1))  # (p - 1)^2 = 2^62: refused
@example((4, 2 ** 30 + 1))  # 4 * 2^60 = 2^62: refused
@example((3, 2 ** 30 + 1))
def test_modp_guard_admits_exactly_the_safe_accumulators(shape):
    # the certificate multiplies dim x dim by dim x 2 with entries in
    # [0, p), so one product entry sums dim terms of at most (p-1)^2
    dim, p = shape
    assert _admitted(dim, p) == (dim * (p - 1) ** 2 < 2 ** 62)


@_SETTINGS
@given(st.integers(1, 8), _near(2 ** 31) | _near(2 ** 30) | _near(2 ** 29))
@example(1, 2 ** 31)
@example(3, 2 ** 30 + 1)
def test_modp_product_matches_bigint_when_admitted(dim, p):
    assume(p >= 2 and _admitted(dim, p))
    a = np.full((dim, dim), p - 1, dtype=np.int64)
    b = np.full((dim, 2), p - 1, dtype=np.int64)
    assert ((a @ b) % p).tolist() == [[dim * (p - 1) ** 2 % p] * 2] * dim
