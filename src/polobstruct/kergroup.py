"""Kernel classes of polarizations and the obstruction calculus.

Finite subgroup schemes sitting inside the twisted product decompose into
simple constituents. Kernel classes of isogenies and polarizations live in
the free abelian group on the constituent labels, and three nested
conditions govern whether a class is the kernel of an actual polarization:

 * effectivity: multiplicities are nonnegative;
 * the realizable span: kernels of isogenies generate a specific sublattice;
 * a congruence: modulo dual pairs [G] + [G^] and the kernel classes of
   central endomorphisms x -> x conj(x), every polarization kernel lands in
   a single coset. When that coset is detected by an odd parity invariant,
   the zero class (a principal polarization) is unreachable.

The scalar side asks which degree values arise from symmetric totally
positive elements of the endomorphism algebra. Membership is graded into
nested sets R0 >= R1 >= R2 per simple algebra factor, split by involution
type: totally real field, indefinite quaternion, definite quaternion, and
a field with complex multiplication acting through its positive cone.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from .cyclotomic import (
    CycElem,
    _cap,
    is_odd_prime,
    is_prime,
    is_totally_positive,
    norm_to_Q,
    parse_rational,
)
from .galmod import e_rank_of_order, ep_label, valuation
from .intlinalg import (
    Matrix,
    Record,
    _hnf_coords,
    _count,
    _int_row,
    _norm_scalar,
    col_hnf,
    parse_int,
    snf,
)
from .twist import TwistData, central_degree


DEFAULT_SEED = 1729  # of twist_model's samples, and of every seeded CLI check


def _is_perfect_square(n) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# labels and kernel classes


class SimpleLabel(Record):
    """One simple constituent type: its order and its Cartier dual.

    alt_pairing marks a self-dual constituent carrying a nondegenerate
    alternating pairing; such a group has square order.
    """

    def __init__(self, name: str, rank: int, dual: str, alt_pairing: bool = False):
        for what, text in (("name", name), ("dual", dual)):
            if not isinstance(text, str) or not text:
                raise ValueError(f"label {what} must be a nonempty string, got {text!r}")
        _count(rank, 2, "rank")
        if not isinstance(alt_pairing, bool):
            raise ValueError(f"alt_pairing must be a bool, got {alt_pairing!r}")
        if alt_pairing:
            if dual != name:
                raise ValueError("alternating self-pairing needs a self-dual label")
            if not _is_perfect_square(rank):
                raise ValueError("alternating self-pairing needs square order")
        self._set(name, rank, dual, alt_pairing)


class LabelSet(Record):
    """Ordered collection of labels, closed under the duality involution."""

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("need at least one label")
        names = [l.name for l in labels]
        if len(set(names)) != len(names):
            raise ValueError("duplicate label names")
        by_name = {l.name: l for l in labels}
        for l in labels:
            other = by_name.get(l.dual)
            if other is None:
                raise ValueError(f"dual of {l.name} is missing from the set")
            if other.dual != l.name:
                raise ValueError("duality must be an involution")
            if other.rank != l.rank:
                raise ValueError("duality preserves the order of a group")
        self._set(labels, _index={l.name: i for i, l in enumerate(labels)})

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, i):
        return self.labels[i]

    def index(self, name) -> int:
        if name not in self._index:
            raise KeyError(f"no label named {name}")
        return self._index[name]

    def dual_perm(self):
        return tuple(self._index[l.dual] for l in self.labels)


class KerClass(Record):
    """Element of the free group on constituent labels."""

    def __init__(self, labels: LabelSet, coeffs: tuple):
        cs = _int_row(coeffs)
        if len(cs) != len(labels.labels):
            raise ValueError("coefficient count must match the label count")
        self._set(labels, cs)

    @classmethod
    def zero(cls, labels):
        return cls(labels, (0,) * len(labels))

    @classmethod
    def single(cls, labels, name, mult=1):
        cs = [0] * len(labels.labels)
        cs[labels.index(name)] = mult
        return cls(labels, cs)

    def _same(self, other):
        if not isinstance(other, KerClass) or other.labels != self.labels:
            raise ValueError("classes live over different label sets")

    def __add__(self, other):
        self._same(other)
        return KerClass(self.labels, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._same(other)
        return KerClass(self.labels, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return KerClass(self.labels, tuple(-a for a in self.coeffs))

    def coeff(self, name) -> int:
        return self.coeffs[self.labels.index(name)]

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __str__(self):
        parts = [f"{c}*[{l.name}]" for c, l in zip(self.coeffs, self.labels) if c]
        return " + ".join(parts) if parts else "0"


def cartier_dual(c: KerClass) -> KerClass:
    """Class of the Cartier dual: permute multiplicities by the involution."""
    perm = c.labels.dual_perm()
    return KerClass(c.labels, tuple(c.coeffs[perm[i]] for i in range(len(perm))))


def b_subgroup_gens(labels: LabelSet):
    """Generators of the dual-pair subgroup: [G] + [G^] for every label.

    A self-dual label contributes 2[G]. These classes are kernel classes of
    pulled-back polarizations, so any two polarization kernels agree modulo
    this subgroup and the central norm classes.
    """
    perm = labels.dual_perm()
    gens = []
    for i in range(len(labels)):
        d = perm[i]
        if i > d:
            continue
        cs = [0] * len(labels)
        cs[i] += 1
        cs[d] += 1
        gens.append(KerClass(labels, tuple(cs)))
    return gens


# ---------------------------------------------------------------------------
# finitely generated abelian quotients


class AbGroupPresentation(Record):
    """Invariant factor form of a finitely generated abelian group."""

    def __init__(self, invariant_factors: tuple, free_rank: int):
        self._set(invariant_factors, free_rank)

    @property
    def order(self):
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "trivial"


def quotient_group(gens, rels) -> AbGroupPresentation:
    """The quotient of the lattice spanned by gens by the one spanned by rels.

    Both arguments are sequences of integer vectors of a common length.
    Every relation must lie in the span of the generators.
    """
    gens = [list(g) for g in gens]
    rels = [list(r) for r in rels]
    if not gens:
        return _quotient_of_basis(Matrix.zero(0, 0), rels)
    n = len(gens[0])
    if any(len(g) != n for g in gens) or any(len(r) != n for r in rels):
        raise ValueError("vectors must share one length")
    return _quotient_of_basis(col_hnf(Matrix.from_columns(gens, nrows=n)), rels)


def _quotient_of_basis(basis: Matrix, rels) -> AbGroupPresentation:
    """quotient_group for generators already in column HNF, the basis."""
    r = basis.ncols
    if r == 0:
        if any(any(x != 0 for x in rel) for rel in rels):
            raise ValueError("relations outside the trivial subgroup")
        return AbGroupPresentation((), 0)
    cols = []
    for rel in rels:
        coords = _hnf_coords(basis, rel)
        if coords is None:
            raise ValueError("relation outside the generated subgroup")
        cols.append(coords)
    if not cols:
        return AbGroupPresentation((), r)
    facs = snf(Matrix.from_columns(cols, nrows=r)).invariant_factors
    nonzero = [d for d in facs if d != 0]
    return AbGroupPresentation(tuple(d for d in nonzero if d > 1), r - len(nonzero))


# ---------------------------------------------------------------------------
# local squares and the graded membership sets


def is_square_in_Qp(q, p) -> bool:
    """Is the nonzero exact scalar q (see _norm_scalar) a square in the
    p-adic field?

    Even valuation plus a unit condition: a quadratic residue mod p for odd
    p, congruent to 1 mod 8 for p = 2. Signs are folded into the unit part,
    so negative inputs are handled correctly.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    q = _norm_scalar(q)
    if q == 0:
        raise ValueError("zero is not in the unit-times-power-of-p group")
    v = valuation(q, p)
    if v % 2:
        return False
    u = q / Fraction(p) ** v
    if p == 2:
        return u.numerator * pow(u.denominator, -1, 8) % 8 == 1
    um = u.numerator * pow(u.denominator, -1, p) % p
    return pow(um, (p - 1) // 2, p) == 1


class CenterField(Record):
    """Center of a simple algebra factor: Q, a cyclotomic field, or its
    maximal real subfield."""

    _KINDS = ("Q", "cyclotomic", "real_cyclotomic")

    def __init__(self, kind: str, p: int = 0):
        if kind not in self._KINDS:
            raise ValueError(f"unknown center kind {kind!r}")
        if kind == "Q":
            if _count(p, 0, "p"):
                raise ValueError("the rational center takes no prime")
        elif not is_odd_prime(p):
            raise ValueError("cyclotomic centers need an odd prime")
        self._set(kind, p)

    @classmethod
    def parse(cls, text: str) -> "CenterField":
        """Read "Q", "Q(zeta_p)" or "Q(zeta_p)+". A p above MAX_P raises
        ValueError before it is tested for primality."""
        text = text.strip()
        if text == "Q":
            return cls("Q")
        plus = text.endswith("+")
        if plus:
            text = text[:-1]
        if text.startswith("Q(zeta_") and text.endswith(")"):
            p = _cap(parse_int(text[len("Q(zeta_"):-1]), "center prime")
            return cls("real_cyclotomic" if plus else "cyclotomic", p)
        raise ValueError(f"cannot parse center {text!r}")

    def __str__(self):
        if self.kind == "Q":
            return "Q"
        suffix = "+" if self.kind == "real_cyclotomic" else ""
        return f"Q(zeta_{self.p}){suffix}"

    @property
    def is_totally_real(self) -> bool:
        return self.kind != "cyclotomic"


class AlgebraFactor(Record):
    """One simple factor: involution type, center, matrix size, and the
    finite primes where the underlying quaternion algebra ramifies."""

    def __init__(self, type: str, center: CenterField, n: int = 1, ramified: tuple = ()):
        if type not in ("I", "II", "III", "IV"):
            raise ValueError(f"unknown factor type {type!r}")
        _count(n, 1, "n")
        ram = tuple(sorted(set(ramified)))
        for ell in ram:
            if not is_prime(ell):
                raise ValueError(f"ramified entry {ell} is not prime")
        if type in ("I", "II", "III") and not center.is_totally_real:
            raise ValueError(f"type {type} needs a totally real center")
        if type == "IV" and center.is_totally_real:
            raise ValueError("type IV needs a complex multiplication center")
        if type in ("I", "IV") and ram:
            raise ValueError(f"type {type} carries no ramified primes")
        self._set(type, center, n, ram)


class AlgebraDescriptor(Record):
    def __init__(self, factors: tuple):
        fs = tuple(factors)
        if not fs:
            raise ValueError("need at least one factor")
        for f in fs:
            if not isinstance(f, AlgebraFactor):
                raise TypeError("factors must be AlgebraFactor instances")
        self._set(fs)

    def cyclotomic_factor(self):
        """The unique factor with a full cyclotomic center, if any."""
        found = [f for f in self.factors if f.center.kind == "cyclotomic"]
        if len(found) > 1:
            raise ValueError("more than one cyclotomic factor")
        return found[0] if found else None


def _coerce_center_element(x, center: CenterField):
    """x as an element of the center: an exact rational for Q, else a
    CycElem of the center's p, which a Q(zeta_p)+ center asks to be fixed
    by conjugation."""
    if center.kind == "Q":
        if isinstance(x, CycElem):
            raise TypeError("rational center takes exact rational elements")
        return _norm_scalar(x)
    if (not isinstance(x, CycElem) or x.p != center.p
            or center.is_totally_real and not x.is_conj_fixed()):
        raise TypeError(f"expected an element of {center}")
    return x


def r_membership(x, level: int, factor: AlgebraFactor) -> bool:
    """Graded membership for degree values attached to one algebra factor.

    Level 0 is the ambient group, level 1 the values of symmetric totally
    positive elements, level 2 the values known to come from polarizations.
    The sets are nested: level 2 implies level 1 implies level 0.
    """
    if _count(level, 0, "level") > 2:
        raise ValueError("level must be 0, 1 or 2")
    c = factor.center
    x = _coerce_center_element(x, c)
    if factor.type == "I":
        if level == 0:
            return x != 0
        # totally positive in the totally real center
        return x > 0 if c.kind == "Q" else x != 0 and is_totally_positive(x)
    if factor.type == "II":
        if c.kind != "Q":
            raise ValueError("indefinite quaternion membership needs a rational center here")
        if level == 0:
            return x != 0
        if level == 1:
            return x > 0
        return x > 0 and all(is_square_in_Qp(x, ell) for ell in factor.ramified)
    if factor.type == "III":
        if c.kind != "Q":
            raise ValueError("definite quaternion membership needs a rational center here")
        if level == 0:
            return x > 0
        return (x > 0 and _is_perfect_square(x.numerator)
                and _is_perfect_square(x.denominator))
    # type IV: the symmetric elements are the conjugation-fixed ones
    if level == 0:
        return not x.is_zero()
    return not x.is_zero() and x.is_conj_fixed() and is_totally_positive(x)


def nrd_dagger_status(x, factor: AlgebraFactor) -> str:
    """One-sided answer to "is x the degree value of a polarization?".

    "yes" when x lies in the level-2 set, "no" when it already fails the
    level-1 set, "unknown" in the gap between the two bounds.
    """
    if r_membership(x, 2, factor):
        return "yes"
    if not r_membership(x, 1, factor):
        return "no"
    return "unknown"


# ---------------------------------------------------------------------------
# the central norm classes


def twist_labels(p) -> LabelSet:
    """Label set for the twisted product: one self-dual constituent E[p]
    with its alternating pairing."""
    name = ep_label(p)
    return LabelSet([SimpleLabel(name, p * p, name, True)])


def phi_p_part(a, alpha: CycElem, p, labels=None) -> KerClass:
    """Kernel class of the central isogeny alpha, whose norm must be the
    degree value a: the isogeny has degree a^2, and its kernel holds one
    copy of E[p] per factor of p in a, away from prime-to-p parts. A
    negative p-valuation gives a virtual (noneffective) class. The class
    depends on a alone, so two valid certificates give the same answer.
    a is an exact scalar (an int, or a Fraction, kept as an int when it is
    integral); a float, a bool or a string raises TypeError."""
    a = _norm_scalar(a)
    if a == 0:
        raise ValueError("zero has no class")
    if not isinstance(alpha, CycElem) or alpha.p != p:
        raise TypeError(f"expected an element of Q(zeta_{p})")
    if norm_to_Q(alpha) != a:
        raise ValueError("certificate does not have the claimed norm")
    labels = twist_labels(p) if labels is None else labels
    return KerClass.single(labels, ep_label(p), valuation(a, p))


def parity_hom(c: KerClass, p) -> int:
    """Multiplicity of E[p] mod 2.

    Constant on cosets of the dual-pair subgroup because the E[p] label is
    self-dual, so this is a homomorphism on the quotient by dual pairs. It
    kills the central norm classes exactly when their degrees have even
    p-valuation, which is what the obstruction exploits.
    """
    name = ep_label(p)
    lbl = c.labels[c.labels.index(name)]
    if lbl.dual != name:
        raise ValueError("parity needs the E[p] label to be self-dual")
    return c.coeff(name) % 2


# ---------------------------------------------------------------------------
# quaternion witnesses


class QuaternionAlgebra(Record):
    """(a, b) quaternions over Q: i^2 = a, j^2 = b, ij = -ji = k.

    Elements are 4-tuples of exact scalars (t, x, y, z) for t + xi + yj + zk,
    and a and b are exact scalars too (see _norm_scalar).
    """

    def __init__(self, a, b):
        a, b = _norm_scalar(a), _norm_scalar(b)
        if a == 0 or b == 0:
            raise ValueError("structure constants must be nonzero")
        self._set(a, b)

    def element(self, t, x=0, y=0, z=0):
        return tuple(map(_norm_scalar, (t, x, y, z)))

    def scalar(self, t):
        return self.element(t)

    def add(self, u, v):
        return tuple(p + q for p, q in zip(u, v))

    def mul(self, u, v):
        a, b = self.a, self.b
        t1, x1, y1, z1 = u
        t2, x2, y2, z2 = v
        return (
            t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
            t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
            t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
        )

    def conj(self, u):
        t, x, y, z = u
        return (t, -x, -y, -z)

    def trd(self, u):
        return 2 * u[0]

    def nrd(self, u):
        t, x, y, z = u
        return t * t - self.a * x * x - self.b * y * y + self.a * self.b * z * z

    def inverse(self, u):
        n = Fraction(self.nrd(u))  # so that c / n is a Fraction for an int c
        if n == 0:
            raise ValueError("element is not invertible")
        return tuple(c / n for c in self.conj(u))


def quaternion_positive(D: QuaternionAlgebra, u) -> bool:
    """Totally positive: the reduced characteristic roots are positive
    reals, i.e. trd > 0, nrd > 0 and trd^2 >= 4 nrd."""
    t = D.trd(u)
    n = D.nrd(u)
    return t > 0 and n > 0 and t * t >= 4 * n


def quaternion_witness_check(D: QuaternionAlgebra, beta, alpha1, b, c1) -> dict:
    """Check a skew witness that the value -b*c1 is a reduced norm in the
    right positive direction.

    Three conditions: beta is skew (beta + conj = 0), beta conj(beta) is
    the scalar -b*c1, and beta/alpha1 is totally positive relative to the
    reference element alpha1.
    """
    beta = D.element(*beta)
    alpha1 = D.element(*alpha1)
    b, c1 = _norm_scalar(b), _norm_scalar(c1)
    zero = D.scalar(0)
    skew = D.add(beta, D.conj(beta)) == zero
    norm_matches = D.mul(beta, D.conj(beta)) == D.scalar(-b * c1)
    ratio_positive = quaternion_positive(D, D.mul(beta, D.inverse(alpha1)))
    ok = skew and norm_matches and ratio_positive
    return {"skew": skew, "norm_matches": norm_matches,
            "ratio_positive": ratio_positive, "ok": ok}


# ---------------------------------------------------------------------------
# models and attainability


class PhiSample(Record):
    """A degree value with a verified certificate element. The norm is an
    exact scalar, an int when it is integral (see _norm_scalar), so a
    float, a bool or a string raises TypeError."""

    def __init__(self, norm, alpha: CycElem):
        self._set(_norm_scalar(norm), alpha)


class AttainabilityResult(Record):
    def __init__(self, ok: bool, reason: str):
        self._set(ok, reason)


class ModelDescriptor(Record):
    """Everything attainability needs about one isogeny class.

    z_gens span the lattice of realizable kernel classes, phi_samples are
    verified degree values of central endomorphisms, and s_c lists the
    known polarization kernel classes (at least one, all congruent modulo
    relations). The algebra has a cyclotomic factor Q(zeta_p), and the
    labels hold a self-dual E[p], which the parity of a class reads.

    Construction validates the model, checking every certificate once, and
    keeps what queries read: p, the prime of the cyclotomic factor; span, the
    column HNF of z_gens; relation_hnf, the column HNF of the relations (the
    dual pairs and the level-2 samples' classes); and samples_used, how many
    samples are level 2. No query takes another HNF, and none of these takes
    part in ==, hash, repr, to_json.
    """

    def __init__(self, labels: LabelSet, z_gens: tuple, algebra: AlgebraDescriptor,
                 phi_samples: tuple, s_c: tuple):
        z_gens, s_c = tuple(map(_int_row, z_gens)), tuple(map(_int_row, s_c))
        self._set(labels, z_gens, algebra, tuple(phi_samples), s_c)
        self.validate()

    def validate(self):
        """Raise ValueError unless the model is consistent; otherwise set
        p, span, relation_hnf and samples_used. One pass over phi_samples
        verifies each certificate and tests each for level-2 membership once."""
        n = len(self.labels)
        for g in self.z_gens:
            if len(g) != n:
                raise ValueError("z generator has the wrong length")
        for s in self.s_c:
            if len(s) != n:
                raise ValueError("s_c entry has the wrong length")
        if not self.z_gens:
            raise ValueError("need at least one z generator")
        if not self.s_c:
            raise ValueError("need at least one s_c entry")
        factor = self.algebra.cyclotomic_factor()
        if factor is None:
            raise ValueError("model has no cyclotomic factor")
        p = factor.center.p
        e_p = ep_label(p)
        if e_p not in [l.name for l in self.labels]:
            raise ValueError(f"model has no {e_p} label")
        if self.labels[self.labels.index(e_p)].dual != e_p:
            raise ValueError(f"the {e_p} label is not self-dual")
        span = col_hnf(Matrix.from_columns(self.z_gens, nrows=n))
        # the realizable span must be stable under Cartier duality
        perm = self.labels.dual_perm()
        for g in self.z_gens:
            dual = [g[perm[i]] for i in range(n)]
            if _hnf_coords(span, dual) is None:
                raise ValueError("realizable span is not duality stable")
        # self-dual constituents in the span need a pairing to sit inside
        # a polarization kernel; order 2 is the one exception
        for i, lbl in enumerate(self.labels):
            if perm[i] == i and not lbl.alt_pairing and lbl.rank != 2:
                if any(g[i] for g in self.z_gens):
                    raise ValueError(
                        f"self-dual label {lbl.name} without a pairing in the span")
        pairs = [g.coeffs for g in b_subgroup_gens(self.labels)]
        level2 = []
        for s in self.phi_samples:
            cls = phi_p_part(s.norm, s.alpha, p, self.labels)
            if r_membership(s.alpha, 2, factor):
                level2.append(cls.coeffs)
        for s in self.s_c:
            if _hnf_coords(span, s) is None:
                raise ValueError("s_c entry outside the realizable span")
        # the obstruction groups are quotients of the span by the relations,
        # whose HNF each distinct column enters once
        relation_hnf = col_hnf(Matrix.from_columns(dict.fromkeys(pairs + level2), nrows=n))
        for rel in relation_hnf.columns():
            if _hnf_coords(span, rel) is None:
                raise ValueError("relation outside the realizable span")
        for s in self.s_c[1:]:
            diff = [a - b for a, b in zip(s, self.s_c[0])]
            if _hnf_coords(relation_hnf, diff) is None:
                raise ValueError("s_c entries disagree modulo the relations")
        self._set(p=p, span=span, relation_hnf=relation_hnf, samples_used=len(level2))

    def to_json(self) -> str:
        data = {
            "labels": [
                {"name": l.name, "rank": l.rank, "dual": l.dual,
                 "alt_pairing": l.alt_pairing}
                for l in self.labels
            ],
            "z_gens": [list(g) for g in self.z_gens],
            "algebra": {
                "factors": [
                    {"type": f.type, "center": str(f.center), "n": f.n,
                     "ramified": list(f.ramified)}
                    for f in self.algebra.factors
                ]
            },
            "phi_samples": [
                {"norm": _json_rational(s.norm),
                 "alpha_coords": [_json_rational(c) for c in s.alpha.coords]}
                for s in self.phi_samples
            ],
            "s_c": [list(s) for s in self.s_c],
        }
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelDescriptor":
        """Parse a model, which its construction validates. A norm or a
        coordinate is a JSON integer or a string "n" or "a/b". A value of the
        wrong JSON type (a float for an integer, an array for an object) or
        a missing field raises ValueError naming the field. A center prime or
        a ramified entry above MAX_P raises ValueError before any primality
        test, so an absurd prime cannot stall trial division."""
        data = _json_value(json.loads(text), "the model", dict)

        labels = LabelSet(
            SimpleLabel(_json_field(d, "name", str), _json_field(d, "rank", int),
                        _json_field(d, "dual", str),
                        _json_field(d, "alt_pairing", bool, default=False))
            for d in _json_array(data, "labels", dict)
        )
        algebra = AlgebraDescriptor(tuple(
            AlgebraFactor(_json_field(d, "type", str),
                          CenterField.parse(_json_field(d, "center", str)),
                          _json_field(d, "n", int, default=1),
                          tuple(_cap(ell, "ramified entry")
                                for ell in _json_array(d, "ramified", int, default=[])))
            for d in _json_array(_json_field(data, "algebra", dict), "factors", dict)
        ))
        factor = algebra.cyclotomic_factor()
        samples = []
        for d in _json_array(data, "phi_samples", dict, default=[]):
            if factor is None:
                raise ValueError("phi samples need a cyclotomic factor")
            coords = _json_array(d, "alpha_coords", int, str)
            if str in map(type, coords):
                coords = [c if type(c) is int else parse_rational(c) for c in coords]
            norm = _json_field(d, "norm", int, str)
            if type(norm) is str:
                norm = parse_rational(norm)
            samples.append(PhiSample(norm, CycElem(factor.center.p, coords)))
        z_gens, s_c = ([_json_entries(row, key, int)
                        for row in _json_array(data, key, list)]
                       for key in ("z_gens", "s_c"))
        return cls(labels, z_gens, algebra, tuple(samples), s_c)


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _json_value(value, what, *kinds):
    """value if its JSON type is one of kinds, else ValueError naming what.
    json.loads gives bool and float (Infinity among them) types apart from int."""
    if type(value) not in kinds:
        expected = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise ValueError(f"{what}: expected a JSON {expected}, got {_JSON_TYPES[type(value)]}")
    return value


def _json_field(obj, key, *kinds, default=None):
    """obj[key] checked as _json_value checks it; a missing key reads as
    default."""
    value = obj.get(key, default)
    return value if type(value) in kinds else _json_value(value, key, *kinds)


def _json_rational(q):
    """q as to_json writes it: a JSON integer when integral, else "a/b"."""
    return q.numerator if q.denominator == 1 else str(q)


def _json_array(obj, key, *kinds, default=None):
    """The JSON array obj[key], its entries checked by _json_entries."""
    return _json_entries(_json_field(obj, key, list, default=default), key, *kinds)


def _json_entries(arr, key, *kinds):
    """arr, the JSON array at key, if each entry's JSON type is one of kinds,
    which one C-level pass over the entries' types decides; only an array
    that fails it is walked with _json_value, to name its first bad entry."""
    if not set(map(type, arr)).issubset(kinds):
        for x in arr:
            _json_value(x, f"an entry of {key}", *kinds)
    return arr


def b1_group(model: ModelDescriptor) -> AbGroupPresentation:
    """Realizable span modulo dual pairs, read off the kept span."""
    rels = [g.coeffs for g in b_subgroup_gens(model.labels)]
    return _quotient_of_basis(model.span, rels)


def b2_group(model: ModelDescriptor) -> AbGroupPresentation:
    """Realizable span modulo dual pairs and central norm classes.

    From sampled relations alone the true B2 is a quotient of this group.
    For a type IV factor with center K = Q(zeta_p) it is exact. Lemma:
    N_(K/Q)(gamma) = N_(K+/Q)(gamma)^2 for gamma in K+, since conjugation
    generates Gal(K/K+) and fixes gamma. A level-2 relation's E[p]
    coefficient is v_p(N_(K/Q)(gamma)) for a gamma in K+ (phi_p_part), so
    it is even, and the relation lies in the dual pair's span 2 [E[p]].
    """
    return _quotient_of_basis(model.span, model.relation_hnf.columns())


def attainable(P, model: ModelDescriptor) -> AttainabilityResult:
    """Decide whether the class P is the kernel class of a polarization.

    P must be effective, must lie in the realizable span, and must agree
    with a known polarization class modulo the congruence relations. The
    span and the relations' HNF are the ones the model kept when it was
    built, and validation proved every s_c entry congruent to s_c[0], so P
    is compared with s_c[0] alone and nothing is checked again.
    """
    n = len(model.labels)
    if isinstance(P, KerClass):
        if P.labels != model.labels:
            raise ValueError("class lives over different labels")
        vec = list(P.coeffs)
    else:
        vec = _int_row(P)
        if len(vec) != n:
            raise ValueError("class vector has the wrong length")
    if any(x < 0 for x in vec):
        return AttainabilityResult(False, "not_effective")
    if _hnf_coords(model.span, vec) is None:
        return AttainabilityResult(False, "not_in_z_span")
    diff = [a - b for a, b in zip(vec, model.s_c[0])]
    if _hnf_coords(model.relation_hnf, diff) is None:
        return AttainabilityResult(False, "b2_image_not_in_s_c")
    return AttainabilityResult(True, "ok")


def twist_model(p, seed=DEFAULT_SEED, samples=8) -> ModelDescriptor:
    """Model of the twisted product's isogeny class.

    One self-dual constituent E[p]; the full lattice is realizable; the
    degree values are norms of elements x conj(x), sampled with the given
    seed plus the distinguished value norm((1-zeta)(1-conj zeta)); the
    known polarization class comes from the constructed pairing matrix,
    whose degree pins its E[p] multiplicity.

    Each claimed norm N(x conj(x)) = N(x)^2 is taken as the degree
    central_degree(x) = Res(psi_p, g)^2, g = x conj(x) formed without
    CycElem.__mul__, and N(1 - zeta) = Phi_p(1) = p, so the model's
    validation, which computes each norm by power sums, checks it against
    an independent computation.
    """
    samples = _count(samples, 0, "samples")
    labels = twist_labels(p)
    rng = random.Random(seed)
    one = CycElem.one(p)
    zeta = CycElem.zeta(p)
    base = (one - zeta) * (one - zeta).conj()
    pairs = [PhiSample(p * p, base)]
    while len(pairs) < samples + 1:
        x = CycElem(p, [rng.randint(-3, 3) for _ in range(p - 1)])
        if x.is_zero():
            continue
        pairs.append(PhiSample(central_degree(x), x * x.conj()))
    # the constructed polarization has degree det(b)^2; convert the degree
    # to an E[p] multiplicity honestly rather than hard-coding 1
    mult = e_rank_of_order(TwistData.for_prime(p).polarization_degree, p).value
    algebra = AlgebraDescriptor((
        AlgebraFactor("IV", CenterField("cyclotomic", p), 1, ()),
    ))
    return ModelDescriptor(labels, ((1,),), algebra, tuple(pairs), ((mult,),))
