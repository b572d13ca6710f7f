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
                   that U*A*V = D, as alternating row and column passes of
                   the HNF elimination, with U and V carried beside A.
  * hnf_row        canonical row Hermite normal form (positive pivots,
                   entries above a pivot reduced into [0, pivot)), by one
                   bigint row elimination, the one that snf alternates.
  * col_hnf        column HNF, the canonical form used for column lattices,
                   by the same elimination run on the columns.
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
every size, so there is no fixed-width path and no overflow guard.

This module alone decides what may enter a value, for the whole package. An
exact scalar is an int or a Fraction: _norm_scalar makes an integral one a
plain int and raises TypeError for a float, a bool, a str or anything else.
An exact integer is an integral exact scalar. A plain-int row has entries
all of type exactly int, which _plain_ints decides in one C-level pass over
their types; _norm_row (exact scalars) and _int_row (exact integers, so a
non-integral Fraction raises TypeError too) keep such a row as it is, and
_cleared turns any row into d and the ints d * row, d the lcm of the
denominators, with d = 1 and no lcm for a plain-int row.

It alone decides what may be a count too (a size, an exponent, a rank, an
order, a valuation base or a level): an int, not a bool, a float, a str or
a Fraction, of at least its site's least value, which _count checks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import attrgetter


def _norm_scalar(x):
    """Coerce an exact scalar; reject floats so no precision loss can sneak in."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not an exact scalar")
    if isinstance(x, (int, Fraction)):
        return x.numerator if x.denominator == 1 else x  # an int subclass's is an int
    raise TypeError(f"exact scalars are int or Fraction, got {type(x).__name__}")


def _count(x, least, what):
    """x if it is a count no smaller than least, else ValueError naming what."""
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        raise ValueError(f"{what} must be {kind}")
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


def _plain_ints(xs) -> bool:
    """Is every entry of xs of type exactly int? The package's one spelling."""
    return set(map(type, xs)) <= {int}


def _norm_row(r):
    """A sequence of exact scalars as a tuple; a plain-int row is already
    normal and is kept as it is."""
    r = tuple(r)
    return r if _plain_ints(r) else tuple(map(_norm_scalar, r))


def _int_row(r):
    """A sequence of exact integers as a tuple of ints, never truncated."""
    r = tuple(r)
    if not _plain_ints(r):
        r = tuple(map(_norm_scalar, r))
        bad = [x for x in r if type(x) is not int]
        if bad:
            raise TypeError(f"expected an integer, got {bad[0]}")
    return r


def _cleared(r):
    """(d, [d x for x in r]) for a sequence r of exact scalars, d the lcm of
    their denominators: ints, with d = 1 and no lcm for a plain-int row."""
    if _plain_ints(r):
        return 1, list(r)
    d = lcm(*(x.denominator for x in r))
    return d, [x.numerator * (d // x.denominator) for x in r]


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
    its element text). The one widening of == is cyclotomic's CycElem:
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

    _store = object.__setattr__  # the one writer of attributes, see _set

    def _set(self, *fields, _store=_store, **extras):
        """Store the fields, given in __init__'s order (all of them or
        none; a wrong count raises ValueError), and the attributes that are
        not fields, given by keyword. Record._store, bound once as the
        default, stores each: on CPython 3.11 reading self.__dict__ turns an
        instance's inline attribute values into a dict, and every later
        read of the instance took two to three times as long."""
        if fields:
            names = self._fields
            if len(fields) != len(names):
                raise ValueError(f"{type(self).__name__} takes {len(names)} fields, "
                                 f"got {len(fields)}")
            for name, value in zip(names, fields):
                _store(self, name, value)
        for name, value in extras.items():
            _store(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class cached:
    """A Record method read as an attribute, computed on the first read and
    stored through Record._store, so later reads find the value on the
    instance and never call the method again. functools.cached_property
    would store it through the instance's __dict__ (see Record._set)."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        Record._store(obj, self.name, value)
        return value


class Matrix(Record):
    """Immutable exact matrix. Entries are int or Fraction. The fields are
    the rows and the column count, which an empty matrix needs; nrows and
    whether every entry is a plain int, which is_integral reads, are kept
    beside them."""

    def __init__(self, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        integral = _plain_ints(chain.from_iterable(rows))
        if not integral:
            # normalizing can make a row plain: Fraction(4, 2) becomes 2
            rows = tuple(tuple(map(_norm_scalar, r)) for r in rows)
            integral = _plain_ints(chain.from_iterable(rows))
        m = len(rows)
        n = len(rows[0]) if m else 0 if ncols is None else ncols
        if m and set(map(len, rows)) != {n}:
            raise ValueError("ragged rows")
        if ncols is not None and _count(ncols, 0, "ncols") != n:
            raise ValueError("ncols disagrees with row length")
        self._set(rows, n, nrows=m, _integral=integral)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m, n):
        m, n = _count(m, 0, "nrows"), _count(n, 0, "ncols")
        mat = cls.__new__(cls)
        mat._set(tuple((0,) * n for _ in range(m)), n, nrows=m, _integral=True)
        return mat

    @classmethod
    def identity(cls, n):
        n = _count(n, 0, "size")
        mat = cls.__new__(cls)
        mat._set(tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), n,
                 nrows=n, _integral=True)
        return mat

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = list(cols)
        if not cols:
            return cls.zero(0 if nrows is None else nrows, 0)
        m = len(cols[0]) if nrows is None else _count(nrows, 0, "nrows")
        if set(map(len, cols)) != {m}:
            raise ValueError("ragged columns" if nrows is None
                             else "nrows disagrees with column length")
        return cls(zip(*cols), ncols=len(cols))

    @classmethod
    def diagonal(cls, diag):
        diag = _norm_row(diag)
        n = len(diag)
        return cls([(0,) * i + (d,) + (0,) * (n - 1 - i) for i, d in enumerate(diag)],
                   ncols=n)

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
        cols = range(self.ncols)  # compress and filter list a row in C
        return tuple([tuple(zip(compress(cols, r), filter(None, r))) for r in self.rows])

    def row_nonzeros(self):
        """Each row's nonzero entries as (column, entry) pairs, listed on
        the first call and kept; equality, hash and repr ignore it."""
        return self._nonzeros

    def is_square(self):
        return self.nrows == self.ncols

    def is_integral(self):
        """Is every entry a plain int? Decided once, when the matrix is built."""
        return self._integral

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
        return _power(self, _count(k, 0, "exponent"), Matrix.identity(self.nrows))

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
    dens, flat = _cleared(tuple(chain.from_iterable(a.rows)))
    rows = [flat[k * n:k * n + n] for k in range(n)]
    return _norm_scalar(Fraction(_bareiss_det(rows), dens ** n))


def _bareiss_det(m):
    """The determinant of a list-of-lists of ints by Bareiss elimination in
    place; all divisions are exact, and the last pivot is +-det."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if r is None:
                return 0
            m[k], m[r] = m[r], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * prev


def leading_principal_minors(a: Matrix):
    """det of the k-by-k top left blocks, k = 1..n, one det each."""
    if not a.is_square():
        raise ValueError("principal minors of a non-square matrix")
    return [det(Matrix([r[:k] for r in a.rows[:k]])) for k in range(1, a.nrows + 1)]


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
    """Smith normal form with transforms, the limit of alternating Hermite
    forms (Cohen, A Course in Computational Algebraic Number Theory, 2.4):
    row HNFs of A with U's rows beside it and column HNFs of A with V^t's
    rows beside it, until A is diagonal. Each pass eliminates A's columns
    alone and keeps A's zero rows with their rows of U or V^t, so none is
    dropped, and the HNF's positive pivots and zeros-last order give D's
    signs and zero order.
    Where d_i does not divide d_(i+1), column i + 1 is added into column i
    and the passes resume."""
    if not a.is_integral():
        raise TypeError("snf requires an integer matrix")
    m, n = a.shape
    A = [list(r) for r in a.rows]
    U, Vt = ([[int(i == j) for j in range(k)] for i in range(k)] for k in (m, n))
    while True:
        A, U = _hnf_beside(A, U, n)
        if not _is_diagonal(A):
            At, Vt = _hnf_beside([list(c) for c in zip(*A)], Vt, m)
            A = [list(r) for r in zip(*At)]
            if not _is_diagonal(A):
                continue
        i = next((i for i in range(min(m, n) - 1)
                  if A[i][i] and A[i + 1][i + 1] % A[i][i]), None)
        if i is None:
            return SnfResult(Matrix(U, ncols=m), Matrix(A, ncols=n),
                             Matrix(zip(*Vt), ncols=n))
        for r in A:
            r[i] += r[i + 1]
        Vt[i] = [x + y for x, y in zip(Vt[i], Vt[i + 1])]


def _hnf_beside(a, t, n):
    """The row HNF of a, for int rows a of length n, with the rows of t
    carried beside it through the same row operations; split back into a's
    n columns and the rest. Only a's columns are eliminated, and every row
    is read back from the list _hnf_vectors overwrote, so a's zero rows
    keep their rows of t, which stay independent for an invertible t."""
    rows = [r + s for r, s in zip(a, t)]
    _hnf_vectors(rows, n)
    return [r[:n] for r in rows], [r[n:] for r in rows]


def _is_diagonal(a):
    return all(x == 0 for i, r in enumerate(a) for j, x in enumerate(r) if i != j)


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
    rows = _hnf_vectors([list(r) for r in a.rows], a.ncols)
    return Matrix(rows, ncols=a.ncols) if rows else Matrix.zero(0, a.ncols)


def col_hnf(a: Matrix) -> Matrix:
    """Canonical column HNF, the transpose of hnf_row of the transpose; the
    canonical form for column lattices. The elimination runs on the
    columns themselves, so only the result is built as a Matrix."""
    if not a.is_integral():
        raise TypeError("col_hnf requires an integer matrix")
    cols = _hnf_vectors([list(c) for c in zip(*a.rows)], a.nrows)
    return Matrix(zip(*cols), ncols=len(cols)) if cols else Matrix.zero(a.nrows, 0)


def _hnf_vectors(vecs, n):
    """The elimination behind hnf_row and col_hnf: the canonical row HNF of
    the int vectors vecs, lists of length n that it overwrites, as the list
    of its nonzero vectors. Each position j takes as pivot the vector of
    smallest nonzero |entry| at j (lowest index on ties) and reduces the
    others by it until they are zero there."""
    m = len(vecs)
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            live = [i for i in range(r, m) if vecs[i][j] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(vecs[i][j]))  # the first on ties
            vecs[r], vecs[i0] = vecs[i0], vecs[r]
            pivot = vecs[r]
            done = True
            for i in range(r + 1, m):
                if vecs[i][j] != 0:
                    q = vecs[i][j] // pivot[j]
                    if q:
                        vecs[i] = [x - q * y for x, y in zip(vecs[i], pivot)]
                    if vecs[i][j] != 0:
                        done = False
            if done:
                break
        if r < m and vecs[r][j] != 0:
            if vecs[r][j] < 0:
                vecs[r] = [-x for x in vecs[r]]
            pivot = vecs[r]
            for i in range(r):
                q = vecs[i][j] // pivot[j]
                if q:
                    vecs[i] = [x - q * y for x, y in zip(vecs[i], pivot)]
            r += 1
    return vecs[:r]


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
    v = _int_row(v)
    if len(v) != h.nrows:
        raise ValueError("vector length mismatch")
    coords = []
    for c in zip(*h.rows):
        i = next(i for i, x in enumerate(c) if x)
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
            live = sorted(c for c in rowmap.get(i, ()) if c in active)
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
        active.difference_update(live)  # the pivot column of row i, if any
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
        self._set(tuple(_q_strip(_int_row(coeffs))))

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
    of twist.central_degree's Res(psi_p, g) for a generic g) is one pass:
    with lb = lc(b), q1 = lc(a) and q2 = lb a[-2] - q1 b[-2], the
    pseudo-remainder is lb^2 a - lb q1 x b - q2 b, divided by lg h as it
    is made.
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
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("integer matrix produced a fractional charpoly")
    return IntPoly([int(c) for c in coeffs])


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
