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
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import (
    MAX_P,
    CycElem,
    RealElem,
    is_odd_prime,
    is_prime,
    is_totally_positive,
    norm_to_Q,
    parse_rational,
)
from .galmod import e_rank_of_order, valuation
from .intlinalg import (
    Matrix,
    _hnf_coords,
    _norm_int,
    col_hnf,
    col_lattice_contains,
    parse_int,
    snf,
)
from .twist import TwistData, central_degree


def _is_perfect_square(n) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# labels and kernel classes


@dataclass(frozen=True)
class SimpleLabel:
    """One simple constituent type: its order and its Cartier dual.

    alt_pairing marks a self-dual constituent carrying a nondegenerate
    alternating pairing; such a group has square order.
    """

    name: str
    rank: int
    dual: str
    alt_pairing: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("label needs a name")
        if not isinstance(self.rank, int) or self.rank < 2:
            raise ValueError("rank must be an integer >= 2")
        if self.alt_pairing:
            if self.dual != self.name:
                raise ValueError("alternating self-pairing needs a self-dual label")
            if not _is_perfect_square(self.rank):
                raise ValueError("alternating self-pairing needs square order")


class LabelSet:
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
        self.labels = labels
        self._index = {l.name: i for i, l in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, i):
        return self.labels[i]

    def __eq__(self, other):
        return isinstance(other, LabelSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def index(self, name) -> int:
        if name not in self._index:
            raise KeyError(f"no label named {name}")
        return self._index[name]

    def dual_perm(self):
        return tuple(self._index[l.dual] for l in self.labels)


@dataclass(frozen=True)
class KerClass:
    """Element of the free group on constituent labels."""

    labels: LabelSet
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(map(_norm_int, self.coeffs))
        if len(cs) != len(self.labels):
            raise ValueError("coefficient count must match the label count")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, labels):
        return cls(labels, (0,) * len(labels))

    @classmethod
    def single(cls, labels, name, mult=1):
        cs = [0] * len(labels)
        cs[labels.index(name)] = mult
        return cls(labels, tuple(cs))

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


@dataclass(frozen=True)
class AbGroupPresentation:
    """Invariant factor form of a finitely generated abelian group."""

    invariant_factors: tuple
    free_rank: int

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
        if any(any(x != 0 for x in r) for r in rels):
            raise ValueError("relations outside the trivial subgroup")
        return AbGroupPresentation((), 0)
    n = len(gens[0])
    if any(len(g) != n for g in gens) or any(len(r) != n for r in rels):
        raise ValueError("vectors must share one length")
    basis = col_hnf(Matrix.from_columns(gens, nrows=n))
    r = basis.ncols
    if r == 0:
        return quotient_group([], rels)
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
    """Is the nonzero rational q a square in the p-adic field?

    Even valuation plus a unit condition: a quadratic residue mod p for odd
    p, congruent to 1 mod 8 for p = 2. Signs are folded into the unit part,
    so negative inputs are handled correctly.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    q = Fraction(q)
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


@dataclass(frozen=True)
class CenterField:
    """Center of a simple algebra factor: Q, a cyclotomic field, or its
    maximal real subfield."""

    kind: str
    p: int = 0

    _KINDS = ("Q", "cyclotomic", "real_cyclotomic")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown center kind {self.kind!r}")
        if self.kind == "Q":
            if self.p:
                raise ValueError("the rational center takes no prime")
        elif not is_odd_prime(self.p):
            raise ValueError("cyclotomic centers need an odd prime")

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
            p = parse_int(text[len("Q(zeta_"):-1])
            if p > MAX_P:
                raise ValueError(f"center prime {p} exceeds {MAX_P}")
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


@dataclass(frozen=True)
class AlgebraFactor:
    """One simple factor: involution type, center, matrix size, and the
    finite primes where the underlying quaternion algebra ramifies."""

    type: str
    center: CenterField
    n: int = 1
    ramified: tuple = ()

    def __post_init__(self):
        if self.type not in ("I", "II", "III", "IV"):
            raise ValueError(f"unknown factor type {self.type!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        ram = tuple(sorted(set(self.ramified)))
        for ell in ram:
            if not is_prime(ell):
                raise ValueError(f"ramified entry {ell} is not prime")
        object.__setattr__(self, "ramified", ram)
        if self.type in ("I", "II", "III") and not self.center.is_totally_real:
            raise ValueError(f"type {self.type} needs a totally real center")
        if self.type == "IV" and self.center.is_totally_real:
            raise ValueError("type IV needs a complex multiplication center")
        if self.type in ("I", "IV") and ram:
            raise ValueError(f"type {self.type} carries no ramified primes")


@dataclass(frozen=True)
class AlgebraDescriptor:
    factors: tuple

    def __post_init__(self):
        fs = tuple(self.factors)
        if not fs:
            raise ValueError("need at least one factor")
        for f in fs:
            if not isinstance(f, AlgebraFactor):
                raise TypeError("factors must be AlgebraFactor instances")
        object.__setattr__(self, "factors", fs)

    def cyclotomic_factor(self):
        """The unique factor with a full cyclotomic center, if any."""
        found = [f for f in self.factors if f.center.kind == "cyclotomic"]
        if len(found) > 1:
            raise ValueError("more than one cyclotomic factor")
        return found[0] if found else None


def _coerce_center_element(x, center: CenterField):
    if center.kind == "Q":
        if isinstance(x, float) or isinstance(x, (CycElem, RealElem)):
            raise TypeError("rational center takes exact rational elements")
        return Fraction(x)
    if center.kind == "cyclotomic":
        if not isinstance(x, CycElem) or x.p != center.p:
            raise TypeError(f"expected an element of Q(zeta_{center.p})")
        return x
    if not isinstance(x, RealElem) or x.p != center.p:
        raise TypeError(f"expected an element of Q(zeta_{center.p})+")
    return x


def r_membership(x, level: int, factor: AlgebraFactor) -> bool:
    """Graded membership for degree values attached to one algebra factor.

    Level 0 is the ambient group, level 1 the values of symmetric totally
    positive elements, level 2 the values known to come from polarizations.
    The sets are nested: level 2 implies level 1 implies level 0.
    """
    if level not in (0, 1, 2):
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
    name = f"E[{p}]"
    return LabelSet([SimpleLabel(name, p * p, name, True)])


def _e_p_class(alpha, p, labels, claimed=None) -> KerClass:
    """One copy of E[p] per factor of p in the norm of alpha, which must
    equal the claimed value when one is given."""
    if not isinstance(alpha, CycElem) or alpha.p != p:
        raise TypeError(f"expected an element of Q(zeta_{p})")
    a = norm_to_Q(alpha)
    if claimed is not None and a != claimed:
        raise ValueError("certificate does not have the claimed norm")
    if a == 0:
        raise ValueError("zero is not an isogeny")
    labels = twist_labels(p) if labels is None else labels
    return KerClass.single(labels, f"E[{p}]", valuation(a, p))


def prin_p_part(alpha: CycElem, p, labels=None) -> KerClass:
    """Kernel class of the central isogeny alpha on the twisted product.

    The isogeny has degree norm(alpha)^2 and its kernel is a sum of copies
    of E[p] away from prime-to-p parts, one copy per factor of p in the
    norm. Nonintegral alpha gives a virtual (noneffective) class.
    """
    return _e_p_class(alpha, p, labels)


def phi_p_part(a, alpha: CycElem, p, labels=None) -> KerClass:
    """Class attached to a degree value a with certificate alpha.

    The certificate must actually have norm a; the class depends on a
    alone, so any two valid certificates give the same answer.
    """
    a = Fraction(a)
    if a == 0:
        raise ValueError("zero has no class")
    return _e_p_class(alpha, p, labels, a)


def parity_hom(c: KerClass, p) -> int:
    """Multiplicity of E[p] mod 2.

    Constant on cosets of the dual-pair subgroup because the E[p] label is
    self-dual, so this is a homomorphism on the quotient by dual pairs. It
    kills the central norm classes exactly when their degrees have even
    p-valuation, which is what the obstruction exploits.
    """
    name = f"E[{p}]"
    lbl = c.labels[c.labels.index(name)]
    if lbl.dual != name:
        raise ValueError("parity needs the E[p] label to be self-dual")
    return c.coeff(name) % 2


# ---------------------------------------------------------------------------
# quaternion witnesses


class QuaternionAlgebra:
    """(a, b) quaternions over Q: i^2 = a, j^2 = b, ij = -ji = k.

    Elements are 4-tuples of rationals (t, x, y, z) for t + xi + yj + zk.
    """

    def __init__(self, a, b):
        self.a = Fraction(a)
        self.b = Fraction(b)
        if self.a == 0 or self.b == 0:
            raise ValueError("structure constants must be nonzero")

    def element(self, t, x=0, y=0, z=0):
        return (Fraction(t), Fraction(x), Fraction(y), Fraction(z))

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
        n = self.nrd(u)
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
    b = Fraction(b)
    c1 = Fraction(c1)
    zero = D.scalar(0)
    skew = D.add(beta, D.conj(beta)) == zero
    norm_matches = D.mul(beta, D.conj(beta)) == D.scalar(-b * c1)
    ratio_positive = quaternion_positive(D, D.mul(beta, D.inverse(alpha1)))
    ok = skew and norm_matches and ratio_positive
    return {"skew": skew, "norm_matches": norm_matches,
            "ratio_positive": ratio_positive, "ok": ok}


# ---------------------------------------------------------------------------
# models and attainability


@dataclass(frozen=True)
class PhiSample:
    """A degree value with a verified certificate element."""

    norm: Fraction
    alpha: CycElem

    def __post_init__(self):
        object.__setattr__(self, "norm", Fraction(self.norm))


@dataclass(frozen=True)
class AttainabilityResult:
    ok: bool
    reason: str


@dataclass(frozen=True)
class ModelDescriptor:
    """Everything attainability needs about one isogeny class.

    z_gens span the lattice of realizable kernel classes, phi_samples are
    verified degree values of central endomorphisms, and s_c lists the
    known polarization kernel classes (at least one, all congruent modulo
    relations). The algebra has a cyclotomic factor Q(zeta_p), and the
    labels hold a self-dual E[p], which the parity of a class reads.

    Construction validates the model, checking every certificate once, and
    keeps what the queries read: span, the column HNF of z_gens, and
    relations, the dual-pair columns followed by the classes of the level-2
    samples. Neither takes part in ==, hash or to_json.
    """

    labels: LabelSet
    z_gens: tuple
    algebra: AlgebraDescriptor
    phi_samples: tuple
    s_c: tuple
    span: Matrix = field(init=False, repr=False, compare=False)
    relations: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "z_gens", tuple(tuple(map(_norm_int, g)) for g in self.z_gens))
        object.__setattr__(self, "s_c", tuple(tuple(map(_norm_int, s)) for s in self.s_c))
        object.__setattr__(self, "phi_samples", tuple(self.phi_samples))
        self.validate()

    @property
    def p(self):
        f = self.algebra.cyclotomic_factor()
        if f is None:
            raise ValueError("model has no cyclotomic factor")
        return f.center.p

    def validate(self):
        """Raise ValueError unless the model is consistent; otherwise set
        span and relations. One pass over phi_samples verifies each
        certificate and tests each for level-2 membership once."""
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
        pp = factor.center.p
        e_p = f"E[{pp}]"
        if e_p not in [l.name for l in self.labels]:
            raise ValueError(f"model has no {e_p} label")
        if self.labels[self.labels.index(e_p)].dual != e_p:
            raise ValueError(f"the {e_p} label is not self-dual")
        span = col_hnf(Matrix.from_columns([list(g) for g in self.z_gens], nrows=n))
        # the realizable span must be stable under Cartier duality
        perm = self.labels.dual_perm()
        for g in self.z_gens:
            dual = [g[perm[i]] for i in range(n)]
            if not col_lattice_contains(span, dual):
                raise ValueError("realizable span is not duality stable")
        # self-dual constituents in the span need a pairing to sit inside
        # a polarization kernel; order 2 is the one exception
        for i, lbl in enumerate(self.labels):
            if perm[i] == i and not lbl.alt_pairing and lbl.rank != 2:
                if any(g[i] for g in self.z_gens):
                    raise ValueError(
                        f"self-dual label {lbl.name} without a pairing in the span")
        rels = [list(g.coeffs) for g in b_subgroup_gens(self.labels)]
        for s in self.phi_samples:
            cls = phi_p_part(s.norm, s.alpha, pp, self.labels)
            if r_membership(s.alpha, 2, factor):
                rels.append(list(cls.coeffs))
        for s in self.s_c:
            if not col_lattice_contains(span, list(s)):
                raise ValueError("s_c entry outside the realizable span")
        relations = Matrix.from_columns(rels, nrows=n)
        for s in self.s_c[1:]:
            diff = [a - b for a, b in zip(s, self.s_c[0])]
            if not col_lattice_contains(relations, diff):
                raise ValueError("s_c entries disagree modulo the relations")
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "relations", relations)

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
                {"norm": str(s.norm), "alpha_coords": [str(c) for c in s.alpha.coords]}
                for s in self.phi_samples
            ],
            "s_c": [list(s) for s in self.s_c],
        }
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelDescriptor":
        """Parse a model, which its construction validates. A value of the
        wrong JSON type (a float for an integer, an array for an object) or
        a missing field raises ValueError naming the field. A center prime or
        a ramified entry above MAX_P raises ValueError before any primality
        test, so an absurd prime cannot stall trial division."""
        data = _json_value(json.loads(text), "the model", dict)

        def ramified(d):
            ram = tuple(_json_array(d, "ramified", int, default=[]))
            if any(ell > MAX_P for ell in ram):
                raise ValueError(f"ramified entries must be at most {MAX_P}")
            return ram

        labels = LabelSet(
            SimpleLabel(_json_field(d, "name", str), _json_field(d, "rank", int),
                        _json_field(d, "dual", str),
                        _json_field(d, "alt_pairing", bool, default=False))
            for d in _json_array(data, "labels", dict)
        )
        algebra = AlgebraDescriptor(tuple(
            AlgebraFactor(_json_field(d, "type", str),
                          CenterField.parse(_json_field(d, "center", str)),
                          _json_field(d, "n", int, default=1), ramified(d))
            for d in _json_array(_json_field(data, "algebra", dict), "factors", dict)
        ))
        factor = algebra.cyclotomic_factor()
        samples = []
        for d in _json_array(data, "phi_samples", dict, default=[]):
            if factor is None:
                raise ValueError("phi samples need a cyclotomic factor")
            # str() writes a JSON int in the plain digits parse_rational reads
            coords = tuple(parse_rational(str(c))
                           for c in _json_array(d, "alpha_coords", int, str))
            norm = parse_rational(str(_json_field(d, "norm", int, str)))
            samples.append(PhiSample(norm, CycElem(factor.center.p, coords)))
        z_gens, s_c = ([[_json_value(x, f"an entry of {key}", int) for x in row]
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
    """obj[key] checked by _json_value; a missing key reads as default."""
    return _json_value(obj.get(key, default), key, *kinds)


def _json_array(obj, key, *kinds, default=None):
    """The JSON array obj[key] with each entry checked by _json_value."""
    return [_json_value(x, f"an entry of {key}", *kinds)
            for x in _json_field(obj, key, list, default=default)]


def b1_group(model: ModelDescriptor) -> AbGroupPresentation:
    """Realizable span modulo dual pairs."""
    rels = [list(g.coeffs) for g in b_subgroup_gens(model.labels)]
    return quotient_group([list(g) for g in model.z_gens], rels)


def b2_group(model: ModelDescriptor) -> AbGroupPresentation:
    """Realizable span modulo dual pairs and central norm classes."""
    return quotient_group([list(g) for g in model.z_gens], model.relations.columns())


def attainable(P, model: ModelDescriptor) -> AttainabilityResult:
    """Decide whether the class P is the kernel class of a polarization.

    P must be effective, must lie in the realizable span, and must agree
    with a known polarization class modulo the congruence relations. The
    span and the relations are the ones the model kept when it was built,
    so no certificate is checked again.
    """
    n = len(model.labels)
    if isinstance(P, KerClass):
        if P.labels != model.labels:
            raise ValueError("class lives over different labels")
        vec = list(P.coeffs)
    else:
        vec = [_norm_int(x) for x in P]
        if len(vec) != n:
            raise ValueError("class vector has the wrong length")
    if any(x < 0 for x in vec):
        return AttainabilityResult(False, "not_effective")
    if not col_lattice_contains(model.span, vec):
        return AttainabilityResult(False, "not_in_z_span")
    for s in model.s_c:
        diff = [a - b for a, b in zip(vec, s)]
        if col_lattice_contains(model.relations, diff):
            return AttainabilityResult(True, "ok")
    return AttainabilityResult(False, "b2_image_not_in_s_c")


def twist_model(p, seed=1729, samples=8) -> ModelDescriptor:
    """Model of the twisted product's isogeny class.

    One self-dual constituent E[p]; the full lattice is realizable; the
    degree values are norms of elements x conj(x), sampled with the given
    seed plus the distinguished value norm((1-zeta)(1-conj zeta)); the
    known polarization class comes from the constructed pairing matrix,
    whose degree pins its E[p] multiplicity.

    Each claimed norm N(x conj(x)) = N(x)^2 is taken as the degree
    central_degree(x) = Res(Phi_p, x)^2, and N(1 - zeta) = Phi_p(1) = p, so
    the model's validation, which computes each norm by power sums, checks
    it against an independent computation.
    """
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
