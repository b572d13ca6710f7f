"""The p-torsion of the twisted product as a Galois module over F_p.

The twist acts on the p-torsion X[p], a 2(p-1)-dimensional F_p vector space,
through the cocycle matrix tensored with a 2-dimensional identity fiber (the
torsion of a single elliptic curve factor). The filtration by images of
(zeta - 1)^i drops by 2 each step and exhibits p - 1 composition factors,
each a copy of E[p] with trivial induced action.

Kernel sizes of isogenies between powers of E are measured by their
E[p]-rank: an order with p-adic valuation 2r contributes r copies of E[p].
All arithmetic is exact: numpy int64 matrices with entries reduced mod p,
with accumulation bounds asserted before any product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import _require_odd_prime
from .twist import build_zeta


def _check_modp_bounds(dim, p):
    # int64 accumulator: dim * (p-1)^2 must stay below 2^63
    if dim * (p - 1) ** 2 >= 2 ** 62:
        raise ValueError(f"p = {p} too large for the int64 mod-p fast path")


def _matmul_mod(a, b, p):
    return (a @ b) % p


def _rank_mod_p(mat, p):
    """Row rank over F_p by Gaussian elimination on an int64 copy."""
    m = np.array(mat % p, dtype=np.int64)
    rows, cols = m.shape
    rank = 0
    for j in range(cols):
        if rank == rows:
            break
        piv = None
        for i in range(rank, rows):
            if m[i, j] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, j]), -1, p)
        m[rank] = (m[rank] * inv) % p
        below = m[rank + 1:, j].copy()
        if below.any():
            m[rank + 1:] = (m[rank + 1:] - np.outer(below, m[rank])) % p
        rank += 1
    return rank


@dataclass(frozen=True)
class TorsionModule:
    """X[p] with its twist action; dim = 2(p-1)."""

    p: int
    dim: int
    action: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.action.shape != (self.dim, self.dim):
            raise ValueError("action has the wrong shape")


def build_ptorsion(p) -> TorsionModule:
    """The twist action on X[p]: cocycle matrix mod p on a 2-dimensional fiber."""
    _require_odd_prime(p)
    n = p - 1
    dim = 2 * n
    _check_modp_bounds(dim, p)
    zp = np.array(build_zeta(p).to_lists(), dtype=np.int64) % p
    action = np.kron(zp, np.eye(2, dtype=np.int64)) % p
    # (action - 1)^(p-1) = 0: the action is unipotent of the right depth
    nil = (action - np.eye(dim, dtype=np.int64)) % p
    power = np.eye(dim, dtype=np.int64)
    for _ in range(n):
        power = _matmul_mod(power, nil, p)
    if power.any():
        raise AssertionError("twist action on the p-torsion is not unipotent")
    return TorsionModule(p, dim, action)


def filtration_dims(m: TorsionModule):
    """Dimensions of (zeta - 1)^i X[p] for i = 0 .. p-1.

    Starts at 2(p-1), ends at 0, and drops by exactly 2 at each step.
    """
    p = m.p
    nil = (m.action - np.eye(m.dim, dtype=np.int64)) % p
    dims = []
    cur = np.eye(m.dim, dtype=np.int64)
    for _ in range(p):
        dims.append(_rank_mod_p(cur, p))
        cur = _matmul_mod(nil, cur, p)
    return dims


def composition_factors(m: TorsionModule):
    """Labels of the filtration factors, validating the structure on the way.

    zeta - 1 maps (zeta - 1)^i X[p] onto (zeta - 1)^(i+1) X[p], so the twist
    acts trivially on every graded piece by construction; what can go wrong
    is a piece's dimension. Each must be 2, and the label "E[p]" records one
    elliptic-curve torsion factor per step. Raises if any step has the wrong
    dimension (a construction bug).
    """
    dims = filtration_dims(m)
    labels = []
    for i, (cur, nxt) in enumerate(zip(dims, dims[1:])):
        if cur - nxt != 2:
            raise AssertionError(
                f"filtration step {i} has dimension {cur - nxt}, expected 2")
        labels.append(f"E[{m.p}]")
    return labels


@dataclass(frozen=True)
class EpRank:
    """Number of E[p] factors in the p-primary part of a finite kernel."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or self.value < 0:
            raise ValueError("rank must be a nonnegative integer")

    @property
    def parity(self):
        return self.value % 2


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def e_rank_of_order(order, p) -> EpRank:
    """E[p]-rank of a kernel of the given order.

    The p-primary part of any kernel arising here is a sum of copies of
    E[p], each of order p^2, so the valuation must be even.
    """
    _require_odd_prime(p)
    if not isinstance(order, int) or order < 1:
        raise ValueError("order must be a positive integer")
    v = _valuation(order, p)
    if v % 2:
        raise ValueError(
            f"order has odd p-adic valuation {v}; not a sum of E[{p}] factors")
    return EpRank(v // 2)


def polarization_parity(p, n) -> EpRank:
    """E[p]-rank of the kernel of the pulled-back polarization of degree
    p^2 n^4: the rank is 1 + 2 v_p(n), which is odd for every n.

    The twist's own polarization has degree p^2 (n = 1); composing with an
    isogeny of degree n^2 multiplies the degree by n^4 and shifts the rank
    by twice the p-part of n, so the parity can never leave 1.
    """
    _require_odd_prime(p)
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return EpRank(1 + 2 * _valuation(n, p))
