"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or exact-rational; no floating point is used
anywhere. Matrices are immutable, entries are Python ints or Fractions
(Fractions with denominator 1 are normalized to int on construction, so
integer matrices stay integer through arithmetic).

The main operations:

  * det            Bareiss fraction-free elimination (rational input handled
                   by clearing denominators); the reference route the tests
                   compare the certificates and the resultant against.
  * resultant      Res(f, g) of integer polynomials by the sub-resultant
                   remainder sequence; for a monic f it is det g(M) for a
                   matrix M with characteristic polynomial f, with no
                   elimination.
  * snf            Smith normal form with unimodular transforms U, V such
                   that U*A*V = D.  Pivot rule: smallest absolute nonzero
                   value, ties broken by lowest row then lowest column.
  * hnf_row        canonical row Hermite normal form (positive pivots,
                   entries above a pivot reduced into [0, pivot)), by one
                   bigint row elimination.
  * col_hnf        column HNF, the canonical form used for column lattices.
  * int_kernel     basis of the integer kernel {x : A x = 0}, saturated,
                   canonicalized by column HNF. One sparse column
                   elimination serves it and the commutant of zeta.
  * charpoly       characteristic polynomial via Hessenberg reduction and
                   the standard Hessenberg recurrence.
  * minpoly        minimal polynomial: the lcm of the Krylov annihilators
                   of the unit vectors; nothing is factored.

A Matrix lists its nonzero entries by row once (row_nonzeros), and every
sparse loop reads that listing: _matmul adds multiples of the listed rows
of its right factor, mul_vector sums each listed row in a plain loop (a
generator per row cost more than the sum at the torsion certificate's
sizes), int_kernel reads the transpose's. The construction's products all
have the sparse cocycle matrix zeta or its transpose as a factor, so this
beats a dense product.
Int and Fraction entries share one exact loop: Python ints are exact at
every size, so there is no fixed-width path and no overflow guard. A row
(or vector) whose entries are all of type exactly int is taken as it is;
any other is coerced entry by entry, which rejects floats and bools.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def _norm_scalar(x):
    """Coerce an exact scalar; reject floats so no precision loss can sneak in."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not an exact scalar")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"exact scalars are int or Fraction, got {type(x).__name__}")


def _norm_int(x):
    """An exact scalar that is an integer, as an int: an integral Fraction
    is accepted, while a float, bool, str or non-integral Fraction raises
    TypeError instead of being truncated."""
    x = _norm_scalar(x)
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x}")
    return x


def parse_int(text) -> int:
    """An integer written in plain ASCII digits with an optional sign, the
    one grammar for every integer read from outside text. int() alone also
    reads underscores, surrounding whitespace and other scripts' digits;
    a text past int()'s digit limit raises ValueError as well."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"expected an integer in plain digits, got {text!r}")
    return int(text)


def _norm_row(r):
    """A sequence of exact scalars as a tuple; a row whose entries are all
    of type exactly int is already normal and is kept as it is."""
    r = tuple(r)
    return r if set(map(type, r)) <= {int} else tuple(map(_norm_scalar, r))


def _power(base, k, one):
    """base^k by repeated squaring for an int k >= 0, one the identity."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


class Matrix:
    """Immutable exact matrix. Entries are int or Fraction."""

    __slots__ = ("_rows", "_m", "_n", "_nonzeros")

    def __init__(self, rows, ncols=None):
        rows = [_norm_row(r) for r in rows]
        self._m = len(rows)
        if rows:
            self._n = len(rows[0])
            if any(len(r) != self._n for r in rows):
                raise ValueError("ragged rows")
        else:
            self._n = 0 if ncols is None else int(ncols)
        if ncols is not None and self._m and int(ncols) != self._n:
            raise ValueError("ncols disagrees with row length")
        self._rows = tuple(rows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m, n):
        mat = cls.__new__(cls)
        mat._m, mat._n = int(m), int(n)
        mat._rows = tuple((0,) * mat._n for _ in range(mat._m))
        return mat

    @classmethod
    def identity(cls, n):
        mat = cls.__new__(cls)
        mat._m = mat._n = int(n)
        mat._rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return mat

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = list(cols)
        if not cols:
            return cls.zero(0 if nrows is None else nrows, 0)
        m = len(cols[0]) if nrows is None else nrows
        if any(len(c) != m for c in cols):
            raise ValueError("ragged columns" if nrows is None
                             else "nrows disagrees with column length")
        return cls([[c[i] for c in cols] for i in range(m)])

    @classmethod
    def diagonal(cls, diag, m=None, n=None):
        diag = [_norm_scalar(d) for d in diag]
        m = len(diag) if m is None else m
        n = len(diag) if n is None else n
        rows = [[diag[i] if (i == j and i < len(diag)) else 0 for j in range(n)]
                for i in range(m)]
        return cls(rows)

    # -- basic access ------------------------------------------------------

    @property
    def nrows(self):
        return self._m

    @property
    def ncols(self):
        return self._n

    @property
    def shape(self):
        return (self._m, self._n)

    @property
    def rows(self):
        return self._rows

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self._rows)

    def columns(self):
        return [self.column(j) for j in range(self._n)]

    def to_lists(self):
        return [list(r) for r in self._rows]

    def row_nonzeros(self):
        """Each row's nonzero entries as (column, entry) pairs, listed on
        the first call and kept; equality, hash and repr ignore it."""
        try:
            return self._nonzeros
        except AttributeError:
            self._nonzeros = tuple(tuple((j, x) for j, x in enumerate(r) if x)
                                   for r in self._rows)
            return self._nonzeros

    def is_square(self):
        return self._m == self._n

    def is_integral(self):
        return all(isinstance(x, int) for r in self._rows for x in r)

    def is_symmetric(self):
        return self.is_square() and all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self._m) for j in range(i))

    # -- arithmetic --------------------------------------------------------

    def transpose(self):
        return Matrix([[self._rows[i][j] for i in range(self._m)]
                       for j in range(self._n)], ncols=self._m)

    def __neg__(self):
        return Matrix([[-x for x in r] for r in self._rows], ncols=self._n)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Matrix([[a + b for a, b in zip(r, s)]
                       for r, s in zip(self._rows, other._rows)], ncols=self._n)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return Matrix([[a - b for a, b in zip(r, s)]
                       for r, s in zip(self._rows, other._rows)], ncols=self._n)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return _matmul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            return _matmul(self, other)
        return NotImplemented

    def scale(self, c):
        c = _norm_scalar(c)
        return Matrix([[c * x for x in r] for r in self._rows], ncols=self._n)

    def __pow__(self, k):
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, k, Matrix.identity(self._m))

    def mul_vector(self, v):
        v = _norm_row(v)
        if len(v) != self._n:
            raise ValueError("vector length mismatch")
        out = []
        for r in self.row_nonzeros():
            s = 0
            for j, x in r:
                s += x * v[j]
            out.append(s)
        return tuple(out)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self._m, self._n, self._rows))

    def __repr__(self):
        if self._m == 0 or self._n == 0:
            return f"Matrix.zero({self._m}, {self._n})"
        body = "\n ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self._rows)
        return f"Matrix(\n {body}\n)"


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    n = b.ncols
    out = []
    for row in a.rows:
        acc = [0] * n
        for x, nonzeros in zip(row, b.row_nonzeros()):
            if x:
                for j, y in nonzeros:
                    acc[j] += x * y
        out.append(acc)
    return Matrix(out, ncols=n)


# ---------------------------------------------------------------------------
# determinant


def det(a: Matrix):
    """Determinant by Bareiss elimination. Exact for integer and rational input."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return 1
    if a.is_integral():
        dens, rows = 1, [list(r) for r in a.rows]
    else:
        dens = lcm(*(x.denominator if isinstance(x, Fraction) else 1
                     for r in a.rows for x in r))
        rows = [[int(x * dens) for x in r] for r in a.rows]
    swaps, pivots = _bareiss_det(rows)
    if len(pivots) < n:
        return 0
    return _norm_scalar(Fraction((-1) ** len(swaps) * pivots[-1], dens ** n))


def _bareiss_det(m):
    """Bareiss elimination in place on a list-of-lists of ints; all
    divisions are exact. Returns the steps at which a row swap came in and
    the pivots, stopping early when a column has no pivot (then det = 0).
    The last of n pivots is +-det, and each pivot before the first swap is
    the leading principal minor of its size."""
    n = len(m)
    swaps, pivots, prev = [], [], 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if r is None:
                return swaps, pivots
            m[k], m[r] = m[r], m[k]
            swaps.append(k)
        pivot = m[k][k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return swaps, pivots


def leading_principal_minors(a: Matrix):
    """det of the k-by-k top left blocks, k = 1..n.

    For an integer matrix the Bareiss pivots without row swaps are exactly
    the minors, up to the first one that vanishes; only the minors after it
    take a determinant each. A rational matrix takes one per minor.
    """
    if not a.is_square():
        raise ValueError("principal minors of a non-square matrix")
    n = a.nrows
    minors = []
    if a.is_integral():
        swaps, pivots = _bareiss_det([list(r) for r in a.rows])
        # the first swap or stop met a zero at (z, z): minor z + 1 vanishes
        z = swaps[0] if swaps else len(pivots)
        minors = pivots[:z] if z == n else pivots[:z] + [0]
    return minors + [det(Matrix([r[:k] for r in a.rows[:k]]))
                     for k in range(len(minors) + 1, n + 1)]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    """U*A*V = D with U, V unimodular and D diagonal, d_i | d_{i+1}, d_i >= 0."""

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def invariant_factors(self):
        k = min(self.D.nrows, self.D.ncols)
        return [self.D[i, i] for i in range(k)]


def snf(a: Matrix) -> SnfResult:
    """Smith normal form with transforms.

    Pivot selection: smallest absolute nonzero entry of the working
    submatrix, ties broken by lowest row index then lowest column index.
    """
    if not a.is_integral():
        raise TypeError("snf requires an integer matrix")
    m, n = a.shape
    M = [list(r) for r in a.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        Md, Ms = M[dst], M[src]
        for j in range(n):
            Md[j] += q * Ms[j]
        Ud, Us = U[dst], U[src]
        for j in range(m):
            Ud[j] += q * Us[j]

    def add_col(dst, src, q):
        for row in M:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(M[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # clear column t with row operations
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    add_row(i, t, -(M[i][t] // M[t][t]))
            dirty_rows = [i for i in range(t + 1, m) if M[i][t] != 0]
            if dirty_rows:
                # a remainder survived; it is smaller than the pivot, promote it
                swap_rows(t, dirty_rows[0])
                continue
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    add_col(j, t, -(M[t][j] // M[t][t]))
            dirty_cols = [j for j in range(t + 1, n) if M[t][j] != 0]
            if dirty_cols:
                swap_cols(t, dirty_cols[0])
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if M[i][j] % M[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # fold the offending row in so the pivot can shrink to a divisor
            add_row(t, bad, 1)
        if M[t][t] < 0:
            for j in range(n):
                M[t][j] = -M[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1

    D = Matrix.zero(m, n).to_lists()
    for i in range(min(m, n)):
        D[i][i] = M[i][i]
    return SnfResult(Matrix(U, ncols=m), Matrix(D, ncols=n), Matrix(V, ncols=n))


# ---------------------------------------------------------------------------
# Hermite normal form and lattice predicates


def hnf_row(a: Matrix) -> Matrix:
    """Canonical row HNF of the row lattice of a. Zero rows are dropped.

    Pivots are positive, entries below a pivot are zero, entries above are
    reduced into [0, pivot). Two integer matrices span the same row lattice
    iff their hnf_row agree.
    """
    if not a.is_integral():
        raise TypeError("hnf_row requires an integer matrix")
    m, n = a.shape
    rows = [list(r) for r in a.rows]
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            live = [i for i in range(r, m) if rows[i][j] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(rows[i][j]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            done = True
            for i in range(r + 1, m):
                if rows[i][j] != 0:
                    q = rows[i][j] // rows[r][j]
                    if q:
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][j] != 0:
                        done = False
            if done:
                break
        if r < m and rows[r][j] != 0:
            if rows[r][j] < 0:
                rows[r] = [-x for x in rows[r]]
            p = rows[r][j]
            for i in range(r):
                q = rows[i][j] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
    return Matrix(rows[:r], ncols=n) if r else Matrix.zero(0, n)


def col_hnf(a: Matrix) -> Matrix:
    """Canonical column HNF; the canonical form for column lattices."""
    return hnf_row(a.transpose()).transpose()


def col_lattice_eq(a: Matrix, b: Matrix) -> bool:
    """Do a and b span the same column lattice in Z^m?"""
    if a.nrows != b.nrows:
        return False
    return col_hnf(a) == col_hnf(b)


def col_lattice_contains(a: Matrix, v) -> bool:
    """Is the integer vector v in the column lattice spanned by a?"""
    return _hnf_coords(col_hnf(a), v) is not None


def _hnf_coords(h: Matrix, v):
    """Integer coordinates of v in the columns of the column HNF h, or None
    if v is outside their lattice. Each later column is zero on an earlier
    column's pivot row, so reducing v pivot by pivot reads the coordinates."""
    v = [_norm_int(x) for x in v]
    if len(v) != h.nrows:
        raise ValueError("vector length mismatch")
    coords = []
    for c in h.columns():
        i = next(i for i, x in enumerate(c) if x != 0)
        q, r = divmod(v[i], c[i])
        if r:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, c)]
        coords.append(q)
    return None if any(v) else coords


# ---------------------------------------------------------------------------
# integer kernel


def int_kernel(a: Matrix) -> Matrix:
    """Saturated basis for {x in Z^n : A x = 0} as matrix columns,
    canonicalized by column HNF. Kernel of an injective map is the n-by-0
    matrix."""
    if not a.is_integral():
        raise TypeError("int_kernel requires an integer matrix")
    return _sparse_kernel(a.transpose().row_nonzeros(), a.nrows)


def _sparse_kernel(cols, m) -> Matrix:
    """Column-HNF basis of the integer kernel of the columns cols, each a
    dict {row: nonzero int}, or its (row, entry) pairs, on rows 0..m-1.

    Column elimination tracks the unimodular transform alongside, so the
    columns it leaves zero span the saturated kernel (the full kernel, not
    a finite index sublattice): any integer kernel vector has integer
    coordinates in the returned basis. Each row's pivot is its smallest
    nonzero |entry|, ties going to the column that is sparsest together
    with its transform (Markowitz-style), which keeps fill-in down.
    """
    n = len(cols)
    work = [dict(c) for c in cols]
    v = [{j: 1} for j in range(n)]
    rowmap = {}
    for c, col in enumerate(work):
        for r in col:
            rowmap.setdefault(r, set()).add(c)
    active = set(range(n))

    def axpy(dst, src, q):
        # column_dst += q * column_src, maintaining rowmap
        wd, ws = work[dst], work[src]
        for r, val in list(ws.items()):
            nv = wd.get(r, 0) + q * val
            if nv:
                if r not in wd:
                    rowmap.setdefault(r, set()).add(dst)
                wd[r] = nv
            elif r in wd:
                del wd[r]
                rowmap[r].discard(dst)
        vd, vs = v[dst], v[src]
        for r, val in vs.items():
            nv = vd.get(r, 0) + q * val
            if nv:
                vd[r] = nv
            else:
                vd.pop(r, None)

    for i in range(m):
        while True:
            here = rowmap.get(i)
            if not here:
                break
            live = sorted(c for c in here if c in active)
            if len(live) <= 1:
                break
            cp = min(live, key=lambda c: (abs(work[c][i]), len(work[c]) + len(v[c]), c))
            p = work[cp][i]
            for c in live:
                if c == cp:
                    continue
                q = work[c][i] // p
                if q:
                    axpy(c, cp, -q)
        here = rowmap.get(i)
        if here:
            live = sorted(c for c in here if c in active)
            if live:
                active.discard(live[0])
    kernel = [tuple(v[c].get(j, 0) for j in range(n)) for c in sorted(active)]
    return col_hnf(Matrix.from_columns(kernel)) if kernel else Matrix.zero(n, 0)


def solve_exact(a: Matrix, b: Matrix):
    """Solve a X = b exactly over the rationals.

    Returns the unique solution matrix, or None if the system is
    inconsistent. Requires the columns of a to be linearly independent
    (raises otherwise), which is the only case the callers need.
    """
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve_exact")
    m, n = a.shape
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(a.rows, b.rows)]
    width = n + b.ncols
    r = 0
    pivots = []
    for j in range(n):
        pr = next((i for i in range(r, m) if aug[i][j] != 0), None)
        if pr is None:
            raise ValueError("solve_exact requires independent columns")
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][j]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(j)
        r += 1
    for i in range(r, m):
        if any(aug[i][j] != 0 for j in range(n, width)):
            return None
    sol = [[aug[i][n + k] for k in range(b.ncols)] for i in range(n)]
    return Matrix(sol, ncols=b.ncols)


def invert(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix over the rationals."""
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    inv = solve_exact(a, Matrix.identity(a.nrows))
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


# ---------------------------------------------------------------------------
# polynomials


class IntPoly:
    """Polynomial with integer coefficients, stored low-degree first."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = []
        for x in coeffs:
            x = _norm_scalar(x)
            if not isinstance(x, int):
                raise TypeError("IntPoly coefficients must be integers")
            c.append(x)
        self._c = tuple(_q_strip(c))

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self):
        return len(self._c) - 1  # zero polynomial has degree -1

    def is_zero(self):
        return not self._c

    def is_monic(self):
        return bool(self._c) and self._c[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __add__(self, other):
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly(out)

    def __sub__(self, other):
        return self + IntPoly([-x for x in other._c])

    def __neg__(self):
        return IntPoly([-x for x in self._c])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * x for x in self._c])
        a, b = self._c, other._c
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, k, IntPoly([1]))

    def eval_matrix(self, a: Matrix) -> Matrix:
        if not a.is_square():
            raise ValueError("polynomial of a non-square matrix")
        n = a.nrows
        acc = Matrix.zero(n, n)
        for c in reversed(self._c):
            acc = acc * a
            if c:
                acc = acc + Matrix.identity(n).scale(c)
        return acc

    def divides(self, other) -> bool:
        """Exact divisibility test over Q (hence over Z for primitive self)."""
        if self.is_zero():
            return other.is_zero()
        _, rem = _q_divmod([Fraction(x) for x in other._c],
                           [Fraction(x) for x in self._c])
        return not rem

    def __repr__(self):
        if not self._c:
            return "IntPoly(0)"
        terms = []
        for i in range(len(self._c) - 1, -1, -1):
            c = self._c[i]
            if c == 0:
                continue
            if i == 0:
                mono = str(abs(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                mono = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not terms:
                terms.append(mono if c > 0 else f"-{mono}")
            else:
                terms.append(("+ " if c > 0 else "- ") + mono)
        return "IntPoly(" + " ".join(terms) + ")"


def resultant(f, g):
    """Res(f, g) of two integer polynomials given as coefficient sequences,
    low degree first: lc(f)^deg(g) times the product of g over the roots of
    f, and 0 when either is zero. For a monic f this is det g(M) for every
    matrix M with characteristic polynomial f.

    The sub-resultant remainder sequence (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7): each division in it is exact, so
    it runs in the integers with coefficients polynomially bounded, and it
    takes no determinant.
    """
    a, b = IntPoly(f).coeffs, IntPoly(g).coeffs
    if not a or not b:
        return 0
    ca, cb = gcd(*a), gcd(*b)
    a, b = [x // ca for x in a], [x // cb for x in b]
    da, db = len(a) - 1, len(b) - 1
    t = ca ** db * cb ** da
    s = 1
    if da < db:
        # Res(g, f) = (-1)^(deg f deg g) Res(f, g)
        a, b, da, db = b, a, db, da
        if da & db & 1:
            s = -1
    lg = h = 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            s = -s
        r = _q_strip(_pseudo_rem(a, b))
        if not r:
            return 0
        div = lg * h ** delta
        a, da = b, db
        b, db = [x // div for x in r], len(r) - 1
        lg = a[-1]
        if delta:
            h = lg ** delta // h ** (delta - 1)
    return s * t * (b[0] ** da // h ** (da - 1) if da else h)


def _pseudo_rem(a, b):
    """The remainder of lc(b)^(deg a - deg b + 1) a by b, for int
    coefficient lists with deg a >= deg b >= 1: one step per quotient
    term, each multiplying by lc(b) and cancelling the top coefficient."""
    r, lb, low = list(a), b[-1], b[:-1]
    for k in range(len(a) - len(b), -1, -1):
        q = r.pop()
        if lb != 1:
            r = [x * lb for x in r]
        if q:
            for i, y in enumerate(low, k):
                r[i] -= q * y
    return r


# rational coefficient lists (low-degree first) back the charpoly and
# division machinery; IntPoly reuses _q_strip, cyclotomic's inverse both


def _q_strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _q_divmod(num, den):
    num = _q_strip(num)
    den = _q_strip(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = [Fraction(x) for x in num]
    dlead = Fraction(den[-1])
    while len(rem) >= len(den):
        f = rem[-1] / dlead
        k = len(rem) - len(den)
        quo[k] = f
        for i, d in enumerate(den):
            rem[k + i] -= f * d
        rem = _q_strip(rem[:-1])
        if not rem:
            break
    return quo, rem


def _hessenberg(rows):
    """Similarity-reduce a rational square matrix to upper Hessenberg form."""
    n = len(rows)
    h = [[Fraction(x) for x in r] for r in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for r in h:
                r[j + 1], r[piv] = r[piv], r[j + 1]
        for i in range(j + 2, n):
            if h[i][j] == 0:
                continue
            f = h[i][j] / h[j + 1][j]
            h[i] = [x - f * y for x, y in zip(h[i], h[j + 1])]
            for r in h:
                r[j + 1] += f * r[i]
    return h


def _charpoly_coeffs(rows):
    """charpoly det(xI - A) of a square rational matrix, low-degree first.

    Hessenberg reduction followed by the leading-minor recurrence; the
    recurrence keeps every intermediate a polynomial of the leading block.
    """
    n = len(rows)
    if n == 0:
        return [Fraction(1)]
    h = _hessenberg(rows)
    polys = [[Fraction(1)]]  # p_0 = 1
    for k in range(1, n + 1):
        # p_k = (x - h[k-1][k-1]) p_{k-1} - sum_i h[i][k-1] (prod subdiag) p_i
        prev = polys[k - 1]
        cur = [Fraction(0)] + prev
        d = h[k - 1][k - 1]
        if d:
            cur = [a - d * b for a, b in zip(cur, prev + [Fraction(0)])]
        run = Fraction(1)
        for i in range(k - 2, -1, -1):
            run *= h[i + 1][i]
            if run == 0:
                break
            coef = h[i][k - 1] * run
            if coef:
                pi = polys[i]
                for idx, val in enumerate(pi):
                    cur[idx] -= coef * val
        polys.append(cur)
    return polys[n]


def charpoly(a: Matrix) -> IntPoly:
    """Characteristic polynomial det(xI - A) of an integer matrix, monic."""
    if not a.is_square():
        raise ValueError("charpoly of a non-square matrix")
    if not a.is_integral():
        raise TypeError("charpoly requires an integer matrix")
    coeffs = _charpoly_coeffs(a.to_lists())
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError("integer matrix produced a fractional charpoly")
        out.append(int(c))
    return IntPoly(out)


def _vector_minpoly(a: Matrix, w):
    """Monic generator of {f : f(a) w = 0}, as rational coefficients.

    Reduces w, a w, a^2 w, ... against the earlier Krylov vectors, carrying
    each reduced vector's polynomial along; the first vector that reduces
    to zero gives the first Q-linear dependence.
    """
    basis = []  # (pivot, reduced vector v, polynomial f with v = f(a) w)
    krylov = w
    while True:
        v = [Fraction(x) for x in krylov]
        f = [Fraction(0)] * len(basis) + [Fraction(1)]
        for piv, bv, bf in basis:
            if v[piv]:
                c = v[piv] / bv[piv]
                v = [x - c * y for x, y in zip(v, bv)]
                for i, y in enumerate(bf):
                    f[i] -= c * y
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return f
        basis.append((piv, v, f))
        krylov = a.mul_vector(krylov)


def minpoly(a: Matrix) -> IntPoly:
    """Minimal polynomial of an integer matrix, monic.

    Strategy: the Krylov lcm over the unit vectors. q starts at 1 and, for
    each e_i with w = q(a) e_i nonzero, q <- q * mu_w, where mu_w generates
    the annihilator of w; q * mu_w = lcm(q, mu_(e_i)). It stops once
    deg q = n, so a cyclic e_1 (a companion matrix) takes one pass. Every
    mu_w divides the charpoly, a monic integer polynomial, so by Gauss's
    lemma its coefficients are integers. No factoring is needed.
    """
    if not a.is_square():
        raise ValueError("minpoly of a non-square matrix")
    if not a.is_integral():
        raise TypeError("minpoly requires an integer matrix")
    n = a.nrows
    q = IntPoly([1])
    for i in range(n):
        if q.degree == n:
            break
        w = [0] * n  # q(a) e_i by Horner's rule
        for c in reversed(q.coeffs):
            w = list(a.mul_vector(w))
            w[i] += c
        if any(w):
            mu = _vector_minpoly(a, w)
            if any(c.denominator != 1 for c in mu):
                raise AssertionError("integer matrix produced a fractional minpoly")
            q = q * IntPoly([int(c) for c in mu])
    return q


# ---------------------------------------------------------------------------
# serialization

# Entries with magnitude below 2^63 are stored as JSON numbers; anything
# larger goes through a decimal string so no consumer is forced into bigints.
_JSON_INT_LIMIT = 2 ** 63


def matrix_to_json(a: Matrix) -> dict:
    """Plain-dict encoding: {"rows", "cols", "entries"} with row-major entries."""
    if not a.is_integral():
        raise TypeError("matrix serialization is defined for integer matrices")
    entries = [[x if abs(x) < _JSON_INT_LIMIT else str(x) for x in r]
               for r in a.rows]
    return {"rows": a.nrows, "cols": a.ncols, "entries": entries}


def matrix_from_json(obj: dict) -> Matrix:
    m, n = _norm_int(obj["rows"]), _norm_int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != m or any(len(r) != n for r in entries):
        raise ValueError("entry grid does not match declared dimensions")
    rows = []
    for r in entries:
        row = []
        for x in r:
            if isinstance(x, str):
                row.append(parse_int(x))
            elif isinstance(x, int) and not isinstance(x, bool):
                row.append(x)
            else:
                raise ValueError(f"bad matrix entry {x!r}")
        rows.append(row)
    return Matrix(rows, ncols=n)
