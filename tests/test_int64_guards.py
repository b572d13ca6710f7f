"""Property test at the former int64 guard of intlinalg._matmul.

_matmul once took numpy's int64 product when max|A| * max|B| * inner_dim
< 2^62. It now has one exact loop on Python ints, so products whose entries
and accumulators straddle that bound, and 2^63, must still agree exactly
with plain Python bigint arithmetic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
@example(([[2 ** 31]], [[2 ** 31 - 1]]))  # just under the old bound
@example(([[2 ** 31, 2 ** 31]], [[2 ** 31 - 1], [2 ** 31 - 1]]))  # past it
@example(([[-(2 ** 31), 2 ** 31 - 1]], [[-(2 ** 30)], [-(2 ** 30)]]))
def test_matmul_matches_bigint_at_the_guard(pair):
    a, b = pair
    assert _matmul(Matrix(a), Matrix(b)).rows == _bigint_product(a, b)
