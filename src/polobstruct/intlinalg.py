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

Matrix arithmetic has one spelling for each operation: a * b is the
product, a.scale(c) a scalar multiple, and an inverse is
solve_exact(a, Matrix.identity(n)). IntPoly is a Record with the one
field coeffs; it multiplies only by another IntPoly and evaluates at a
matrix, and nothing divides polynomials.

A Matrix lists its nonzero entries by row once (row_nonzeros), and every
sparse loop reads that listing: _matmul adds multiples of the listed rows
of its right factor, mul_vector sums each listed row in a plain loop (a
generator per row cost more than the sum at the torsion certificate's
sizes), int_kernel reads the transpose's. The products left with the
cocycle matrix zeta (a foreign zeta, and the commutant's reference route;
the constructed zeta multiplies by a shift, see twist) have the sparse
zeta or its transpose as a factor, so this beats a dense product.
Int and Fraction entries share one exact loop: Python ints are exact at
every size, so there is no fixed-width path and no overflow guard. A
matrix (or vector) whose entries are all of type exactly int, which one
C-level pass over the entries' types decides, is taken as it is; any
other is coerced entry by entry, which rejects floats and bools.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter


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


_INT = re.compile(r"[+-]?[0-9]+")


def parse_int(text) -> int:
    """An integer written in plain ASCII digits with an optional sign, the
    one grammar for every integer read from outside text. int() alone also
    reads underscores, surrounding whitespace and other scripts' digits;
    a text past int()'s digit limit raises ValueError as well."""
    if _INT.fullmatch(text) is None:
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


class Record:
    """An immutable value whose fields are the parameters of its class's
    __init__, in order; that __init__ validates its arguments and stores
    them with one _set call.

    == holds only between instances of one class whose fields are equal,
    the hash agrees with it, the repr reads Name(field=value, ...), and
    assigning or deleting any attribute raises AttributeError. An
    attribute that is not a field (a cache, say) takes no part in any of it.

    Every class of the package is a Record but cli.BadInput and cached.
    A class may print its own repr (Matrix's is multi-line, CycElem's is
    its element text). The one widening of == is cyclotomic's _FieldElem:
    a rational element equals its int or Fraction, and hashes as it.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._values = attrgetter(*cls._fields)  # reads every field in one C call

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            return cls._values(self) == cls._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._values(self))

    def __repr__(self):
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _set(self, *fields, **extras):
        """Store the fields, given in __init__'s order (all of them or
        none; a wrong count raises ValueError), and the attributes that are
        not fields, given by keyword. object.__setattr__ stores each: on
        CPython 3.11 reading self.__dict__ turns an instance's inline
        attribute values into a dict, and every later read of the instance
        took two to three times as long."""
        for name, value in zip(self._fields, fields, strict=True) if fields else ():
            object.__setattr__(self, name, value)
        for name, value in extras.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class cached:
    """A Record method read as an attribute, computed on the first read and
    stored through Record._set, so later reads find the value on the
    instance and never call the method again. functools.cached_property
    would store it through the instance's __dict__ (see _set)."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        obj._set(**{self.name: value})
        return value


class Matrix(Record):
    """Immutable exact matrix. Entries are int or Fraction. The fields are
    the rows and the column count, which an empty matrix needs; nrows is
    kept beside them."""

    def __init__(self, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            rows = tuple(tuple(map(_norm_scalar, r)) for r in rows)
        m = len(rows)
        n = len(rows[0]) if m else 0 if ncols is None else int(ncols)
        if m and set(map(len, rows)) != {n}:
            raise ValueError("ragged rows")
        if ncols is not None and m and int(ncols) != n:
            raise ValueError("ncols disagrees with row length")
        self._set(rows, n, nrows=m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m, n):
        m, n = int(m), int(n)
        mat = cls.__new__(cls)
        mat._set(tuple((0,) * n for _ in range(m)), n, nrows=m)
        return mat

    @classmethod
    def identity(cls, n):
        n = int(n)
        mat = cls.__new__(cls)
        mat._set(tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), n, nrows=n)
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
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def to_lists(self):
        return [list(r) for r in self.rows]

    @cached
    def _nonzeros(self):
        return tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in self.rows)

    def row_nonzeros(self):
        """Each row's nonzero entries as (column, entry) pairs, listed on
        the first call and kept; equality, hash and repr ignore it."""
        return self._nonzeros

    def is_square(self):
        return self.nrows == self.ncols

    def is_integral(self):
        return set(map(type, chain.from_iterable(self.rows))) <= {int}

    def is_symmetric(self):
        return self.is_square() and self.rows == tuple(zip(*self.rows))

    # -- arithmetic --------------------------------------------------------

    def transpose(self):
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], ncols=self.nrows)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Matrix([[a + b for a, b in zip(r, s)]
                       for r, s in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return Matrix([[a - b for a, b in zip(r, s)]
                       for r, s in zip(self.rows, other.rows)], ncols=self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return _matmul(self, other)
        return NotImplemented

    def scale(self, c):
        c = _norm_scalar(c)
        return Matrix([[c * x for x in r] for r in self.rows], ncols=self.ncols)

    def __pow__(self, k):
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, k, Matrix.identity(self.nrows))

    def mul_vector(self, v):
        v = _norm_row(v)
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for r in self.row_nonzeros():
            s = 0
            for j, x in r:
                s += x * v[j]
            out.append(s)
        return tuple(out)

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix.zero({self.nrows}, {self.ncols})"
        body = "\n ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
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
    # an int's denominator is 1, so integer input keeps dens = 1
    dens = lcm(*(x.denominator for r in a.rows for x in r))
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


class SnfResult(Record):
    """U*A*V = D with U, V unimodular and D diagonal, d_i | d_{i+1}, d_i >= 0."""

    def __init__(self, U: Matrix, D: Matrix, V: Matrix):
        self._set(U, D, V)

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


# ---------------------------------------------------------------------------
# polynomials


class IntPoly(Record):
    """Polynomial with integer coefficients, stored low-degree first."""

    def __init__(self, coeffs):
        c = []
        for x in coeffs:
            x = _norm_scalar(x)
            if not isinstance(x, int):
                raise TypeError("IntPoly coefficients must be integers")
            c.append(x)
        self._set(tuple(_q_strip(c)))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    def eval_matrix(self, a: Matrix) -> Matrix:
        if not a.is_square():
            raise ValueError("polynomial of a non-square matrix")
        n = a.nrows
        acc = Matrix.zero(n, n)
        for c in reversed(self.coeffs):
            acc = acc * a
            if c:
                acc = acc + Matrix.identity(n).scale(c)
        return acc


def resultant(f, g):
    """Res(f, g) of two integer polynomials given as coefficient sequences,
    low degree first: lc(f)^deg(g) times the product of g over the roots of
    f, and 0 when either is zero. For a monic f this is det g(M) for every
    matrix M with characteristic polynomial f.

    The sub-resultant remainder sequence (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7): each division in it is exact, so
    it runs in the integers with coefficients polynomially bounded, and it
    takes no determinant. A normal step (deg a = deg b + 1, as every step
    of Res(Phi_p, a) for a generic a) is one pass: with lb = lc(b),
    q1 = lc(a) and q2 = lb a[-2] - q1 b[-2], the pseudo-remainder is
    lb^2 a - lb q1 x b - q2 b, divided by lg h as it is made.
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
        div = lg * h ** delta
        if delta == 1:
            u, w, q2 = b[-1] ** 2, b[-1] * a[-1], b[-1] * a[-2] - a[-1] * b[-2]
            r = _q_strip([(u * x - w * y - q2 * z) // div
                          for x, y, z in zip(a, [0, *b], b[:-1])])
        else:
            r = [x // div for x in _q_strip(_pseudo_rem(a, b))]
        if not r:
            return 0
        a, da, b, db = b, db, r, len(r) - 1
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


# coefficient lists are low-degree first; _q_strip drops the zero top
# coefficients, for IntPoly and the sub-resultant sequence


def _q_strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


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


def matrix_to_json(a: Matrix) -> dict:
    """Plain-dict encoding: {"rows", "cols", "entries"} with row-major
    entries, each written as a JSON number."""
    if not a.is_integral():
        raise TypeError("matrix serialization is defined for integer matrices")
    return {"rows": a.nrows, "cols": a.ncols, "entries": a.to_lists()}
