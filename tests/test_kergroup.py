import copy
import functools
import hashlib
import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
import sympy

from polobstruct.cyclotomic import (
    CycElem,
    _crt_norm,
    complex_conj,
    from_eta,
    is_odd_prime,
    is_totally_positive,
    norm_to_Q,
)
from polobstruct.intlinalg import Matrix
from polobstruct.kergroup import (
    AbGroupPresentation,
    AlgebraDescriptor,
    AlgebraFactor,
    AttainabilityResult,
    CenterField,
    KerClass,
    LabelSet,
    ModelDescriptor,
    PhiSample,
    QuaternionAlgebra,
    SimpleLabel,
    attainable,
    b1_group,
    b2_group,
    b_subgroup_gens,
    cartier_dual,
    is_square_in_Qp,
    nrd_dagger_status,
    parity_hom,
    phi_p_part,
    quaternion_positive,
    quaternion_witness_check,
    quotient_group,
    twist_labels,
    twist_model,
)


def _square_classes_mod_p6(p):
    mod = p ** 6
    return {(x * x) % mod for x in range(1, mod) if x % p}


def _is_square_oracle(q, p, cache={}):
    # q = p^v u is a square iff v is even and u is a square unit; testing
    # u against the set of unit squares mod p^6 settles the unit part
    q = Fraction(q)
    m = q.numerator * q.denominator
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    if v % 2:
        return False
    if p not in cache:
        cache[p] = _square_classes_mod_p6(p)
    return m % p ** 6 in cache[p]


# ---------------------------------------------------------------------------
# local and rational squares


def test_is_square_in_qp_frozen():
    assert is_square_in_Qp(2, 7) is True
    assert is_square_in_Qp(2, 5) is False
    assert is_square_in_Qp(12, 3) is False
    assert is_square_in_Qp(9, 3) is True
    assert is_square_in_Qp(-7, 2) is True
    assert is_square_in_Qp(-1, 2) is False
    assert is_square_in_Qp(4, 2) is True
    assert is_square_in_Qp(2, 2) is False
    assert is_square_in_Qp(Fraction(1, 4), 2) is True
    assert is_square_in_Qp(Fraction(1, 3), 3) is False


def test_is_square_in_qp_rejects():
    with pytest.raises(ValueError):
        is_square_in_Qp(0, 3)
    with pytest.raises(ValueError):
        is_square_in_Qp(5, 4)
    with pytest.raises(ValueError):
        is_square_in_Qp(5, 1)


def test_is_square_in_qp_against_mod_p6_oracle():
    for p in (2, 3, 5, 7):
        for q in range(-60, 61):
            if q == 0:
                continue
            assert is_square_in_Qp(q, p) == _is_square_oracle(q, p), (q, p)
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            q = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            assert is_square_in_Qp(q, p) == _is_square_oracle(q, p), (q, p)


# ---------------------------------------------------------------------------
# labels, classes, duality


def test_simple_label_validation():
    with pytest.raises(ValueError):
        SimpleLabel("", 4, "")
    # a label is looked up by name, so name and dual are nonempty strings
    for name, dual, what in (("", "G", "name"), (5, "G", "name"), (None, "G", "name"),
                             ("G", "", "dual"), ("G", 5, "dual"), ("G", b"G", "dual")):
        with pytest.raises(ValueError, match=f"^label {what} must be a nonempty string, got "):
            SimpleLabel(name, 4, dual)
    with pytest.raises(ValueError, match="^label name must be"):
        SimpleLabel(5, 4, 5, True)
    with pytest.raises(ValueError):
        SimpleLabel("G", 1, "G")
    with pytest.raises(ValueError):
        SimpleLabel("G", 4, "H", alt_pairing=True)
    with pytest.raises(ValueError):
        SimpleLabel("G", 8, "G", alt_pairing=True)  # 8 is not a square
    SimpleLabel("G", 9, "G", alt_pairing=True)


def test_label_set_validation():
    a = SimpleLabel("A", 5, "B")
    b = SimpleLabel("B", 5, "A")
    ls = LabelSet([a, b])
    assert ls.dual_perm() == (1, 0)
    with pytest.raises(ValueError):
        LabelSet([a])  # dual missing
    with pytest.raises(ValueError):
        LabelSet([a, SimpleLabel("B", 5, "B")])  # not an involution
    with pytest.raises(ValueError):
        LabelSet([SimpleLabel("A", 5, "B"), SimpleLabel("B", 25, "A")])
    with pytest.raises(ValueError):
        LabelSet([a, b, a])
    with pytest.raises(ValueError):
        LabelSet([])


def test_ker_class_ops():
    ls = twist_labels(3)
    c = KerClass(ls, (2,))
    d = KerClass(ls, (-1,))
    assert (c + d).coeffs == (1,)
    assert (c - d).coeffs == (3,)
    assert (-c).coeffs == (-2,)
    assert c.is_effective() and not d.is_effective()
    assert c.coeff("E[3]") == 2
    assert str(c) == "2*[E[3]]"
    assert str(KerClass.zero(ls)) == "0"
    with pytest.raises(ValueError):
        c + KerClass(twist_labels(5), (1,))
    with pytest.raises(ValueError):
        KerClass(ls, (1, 2))


def test_cartier_dual_and_b_gens():
    a = SimpleLabel("A", 5, "B")
    b = SimpleLabel("B", 5, "A")
    g = SimpleLabel("G", 9, "G", alt_pairing=True)
    ls = LabelSet([a, b, g])
    c = KerClass(ls, (2, 0, 3))
    assert cartier_dual(c).coeffs == (0, 2, 3)
    assert cartier_dual(cartier_dual(c)) == c
    gens = b_subgroup_gens(ls)
    assert [g.coeffs for g in gens] == [(1, 1, 0), (0, 0, 2)]
    # the dual-pair subgroup is fixed pointwise by duality
    for gen in gens:
        assert cartier_dual(gen) == gen


# ---------------------------------------------------------------------------
# abelian quotients


def test_quotient_group_frozen():
    q = quotient_group([[1, 0], [0, 1]], [[1, 1], [2, 0]])
    assert q.invariant_factors == (2,)
    assert q.free_rank == 0
    assert q.order == 2
    assert str(q) == "Z/2"


def test_quotient_group_shapes():
    assert str(quotient_group([[1]], [[1]])) == "trivial"
    free = quotient_group([[1, 0], [0, 1]], [])
    assert free.free_rank == 2 and free.order is None
    assert str(free) == "Z^2"
    mixed = quotient_group([[2, 0], [0, 1]], [[2, 0]])
    assert mixed.invariant_factors == () and mixed.free_rank == 1
    assert str(quotient_group([[0]], [[0]])) == "trivial"
    q8 = quotient_group([[1, 0], [0, 1]], [[2, 0], [0, 4]])
    assert q8.invariant_factors == (2, 4) and q8.order == 8


def test_quotient_group_rejects_outside_relations():
    with pytest.raises(ValueError):
        quotient_group([[2]], [[1]])
    with pytest.raises(ValueError):
        quotient_group([], [[1]])
    with pytest.raises(ValueError):
        quotient_group([[1, 0]], [[1]])


# ---------------------------------------------------------------------------
# membership grading


def _factors():
    fI_q = AlgebraFactor("I", CenterField("Q"))
    fI_r = AlgebraFactor("I", CenterField("real_cyclotomic", 5))
    fII = AlgebraFactor("II", CenterField("Q"), 1, (2, 7))
    fIII = AlgebraFactor("III", CenterField("Q"))
    fIV = AlgebraFactor("IV", CenterField("cyclotomic", 5))
    return fI_q, fI_r, fII, fIII, fIV


def test_algebra_factor_validation():
    with pytest.raises(ValueError):
        AlgebraFactor("V", CenterField("Q"))
    with pytest.raises(ValueError):
        AlgebraFactor("II", CenterField("cyclotomic", 5))
    with pytest.raises(ValueError):
        AlgebraFactor("IV", CenterField("Q"))
    with pytest.raises(ValueError):
        AlgebraFactor("IV", CenterField("real_cyclotomic", 5))
    with pytest.raises(ValueError):
        AlgebraFactor("I", CenterField("Q"), 1, (2,))
    with pytest.raises(ValueError):
        AlgebraFactor("II", CenterField("Q"), 1, (6,))
    with pytest.raises(ValueError):
        AlgebraFactor("I", CenterField("Q"), 0)
    f = AlgebraFactor("II", CenterField("Q"), 2, (7, 2, 7))
    assert f.ramified == (2, 7)


def test_center_field_parse_roundtrip():
    for text in ("Q", "Q(zeta_5)", "Q(zeta_7)+"):
        assert str(CenterField.parse(text)) == text
    assert CenterField.parse("Q(zeta_5)").is_totally_real is False
    assert CenterField.parse("Q(zeta_5)+").is_totally_real is True
    with pytest.raises(ValueError):
        CenterField.parse("Q(zeta_4)")
    with pytest.raises(ValueError):
        CenterField.parse("F_5")
    for bad in ("Q(zeta_1_3)", "Q(zeta_\u0661\u0663)", "Q(zeta_ 13)"):
        with pytest.raises(ValueError, match="plain digits"):
            CenterField.parse(bad)
    with pytest.raises(ValueError):
        CenterField("cyclotomic", 0)


def test_the_rational_center_has_p_0():
    # p is the int 0, so every spelling of the rational center is one value
    assert CenterField("Q", 0) == CenterField("Q") == CenterField.parse("Q")
    assert repr(CenterField("Q")) == "CenterField(kind='Q', p=0)"
    for bad in (0.0, False, None, "", -1, Fraction(0)):
        with pytest.raises(ValueError, match="^p must be a nonnegative integer$"):
            CenterField("Q", bad)
    with pytest.raises(ValueError, match="^the rational center takes no prime$"):
        CenterField("Q", 5)
    for bad in (5.0, True, "5", 9):
        with pytest.raises(ValueError, match="^cyclotomic centers need an odd prime$"):
            CenterField("real_cyclotomic", bad)


def test_every_p_cap_reads_one_message():
    # a field tag, a center prime and a ramified entry are capped alike
    from polobstruct.cyclotomic import parse_element

    with pytest.raises(ValueError, match="^the field tag p must be at most 1000, got 1009$"):
        parse_element("1009; " + ", ".join(["1"] * 1008))
    with pytest.raises(ValueError, match="^center prime must be at most 1000, got 1009$"):
        CenterField.parse("Q(zeta_1009)+")
    data = json.loads(twist_model(5, samples=3).to_json())
    data["algebra"]["factors"][0]["ramified"] = [3, 1009]
    with pytest.raises(ValueError, match="^ramified entry must be at most 1000, got 1009$"):
        ModelDescriptor.from_json(json.dumps(data))


def test_membership_type_I():
    fI_q, fI_r, *_ = _factors()
    from polobstruct.kergroup import r_membership
    assert r_membership(5, 0, fI_q) and r_membership(5, 1, fI_q)
    assert r_membership(-5, 0, fI_q) and not r_membership(-5, 1, fI_q)
    assert not r_membership(0, 0, fI_q)
    eta = from_eta(5, (0, 1))
    assert r_membership(eta + 2, 2, fI_r)
    assert r_membership(eta, 0, fI_r)
    assert not r_membership(eta, 1, fI_r)  # eta has a negative conjugate


def test_a_real_cyclotomic_center_takes_a_fixed_cyc_elem():
    # Q(zeta_5)+ is the conjugation-fixed CycElem of p = 5, and no other value
    fI_r = _factors()[1]
    from polobstruct.kergroup import r_membership
    z = CycElem.zeta(5)
    for fixed in (z + complex_conj(z) + 2, CycElem.from_rational(3, 5)):
        assert all(r_membership(fixed, level, fI_r) for level in (0, 1, 2))
    assert not r_membership(CycElem.zero(5), 0, fI_r)
    moved = (z, z * 2 + 1, CycElem.zeta(5) ** 4 * Fraction(3, 2))
    other = (CycElem.from_rational(3, 7), from_eta(7, (3, 0, 0)), 3, Fraction(1, 2),
             (3, 0), 0.5)
    for x in moved + other:
        for level in (0, 1, 2):
            with pytest.raises(TypeError, match=r"^expected an element of Q\(zeta_5\)\+$"):
                r_membership(x, level, fI_r)


def test_membership_type_II():
    *_, fII, _, _ = _factors()
    from polobstruct.kergroup import r_membership
    assert r_membership(2, 0, fII) and r_membership(2, 1, fII)
    assert not r_membership(2, 2, fII)  # 2 is not a square in Q_2
    assert r_membership(9, 2, fII)  # square at both 2 and 7
    assert not r_membership(-1, 1, fII)
    with pytest.raises(ValueError):
        r_membership(CycElem.from_rational(2, 5), 1,
                     AlgebraFactor("II", CenterField("real_cyclotomic", 5)))


def test_membership_type_III():
    from polobstruct.kergroup import r_membership
    fIII = AlgebraFactor("III", CenterField("Q"))
    assert r_membership(4, 2, fIII)
    assert r_membership(Fraction(9, 4), 1, fIII)
    assert r_membership(2, 0, fIII) and not r_membership(2, 1, fIII)
    assert not r_membership(-4, 0, fIII)
    with pytest.raises(ValueError):
        r_membership(CycElem.from_rational(2, 5), 1,
                     AlgebraFactor("III", CenterField("real_cyclotomic", 5)))


def test_membership_type_III_against_sympy_oracle():
    from polobstruct.kergroup import r_membership
    fIII = AlgebraFactor("III", CenterField("Q"))
    rng = random.Random(13)
    for _ in range(80):
        x = Fraction(rng.randint(1, 400), rng.randint(1, 60))
        expect = bool(sympy.sqrt(sympy.Rational(x.numerator, x.denominator)).is_rational)
        assert r_membership(x, 2, fIII) == expect, x


def test_membership_type_IV():
    from polobstruct.kergroup import r_membership
    *_, fIV = _factors()
    one = CycElem.one(5)
    z = CycElem.zeta(5)
    good = (one - z) * complex_conj(one - z)
    assert r_membership(good, 2, fIV)
    assert r_membership(z, 0, fIV) and not r_membership(z, 1, fIV)
    assert not r_membership(z + complex_conj(z), 1, fIV)  # conj-fixed, not positive
    assert not r_membership(CycElem.zero(5), 0, fIV)
    with pytest.raises(TypeError):
        r_membership(CycElem.one(7), 0, fIV)
    with pytest.raises(TypeError):
        r_membership(Fraction(1), 0, fIV)
    with pytest.raises(TypeError):
        r_membership(0.5, 0, _factors()[0])


def test_membership_levels_nest():
    from polobstruct.kergroup import r_membership
    fI_q, fI_r, fII, fIII, fIV = _factors()
    rng = random.Random(99)

    def check(x, f):
        r0, r1, r2 = (r_membership(x, lv, f) for lv in (0, 1, 2))
        assert (not r2 or r1) and (not r1 or r0)

    for _ in range(60):
        q = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 20))
        check(q, fI_q)
        check(q, fII)
        if q > 0:
            check(q, fIII)
        coords = tuple(rng.randint(-2, 2) for _ in range(2))
        if any(coords):
            check(from_eta(5, coords), fI_r)
        ccoords = tuple(rng.randint(-2, 2) for _ in range(4))
        x = CycElem(5, ccoords)
        if not x.is_zero():
            check(x, fIV)
            check(x * complex_conj(x), fIV)
            check(x + complex_conj(x), fIV)


def test_nrd_dagger_status():
    *_, fII, _, fIV = _factors()
    assert nrd_dagger_status(9, fII) == "yes"
    assert nrd_dagger_status(2, fII) == "unknown"
    assert nrd_dagger_status(-1, fII) == "no"
    one = CycElem.one(5)
    z = CycElem.zeta(5)
    assert nrd_dagger_status((one - z) * complex_conj(one - z), fIV) == "yes"
    assert nrd_dagger_status(z, fIV) == "no"


def test_rational_center_takes_exact_scalars_only():
    # a Q center reads ints and Fractions; a bool, a float or a string is
    # not read as the number it stands for
    from polobstruct.kergroup import r_membership
    fI_q, _, fII, fIII, _ = _factors()
    for f in (fI_q, fII, fIII):
        assert r_membership(1, 1, f) and r_membership(Fraction(9, 4), 1, f)
        for bad in (True, 1.0, "1e2", " 9 ", "1"):
            with pytest.raises(TypeError):
                r_membership(bad, 1, f)
            with pytest.raises(TypeError):
                nrd_dagger_status(bad, f)
    with pytest.raises(TypeError):
        r_membership(CycElem.one(5), 0, fI_q)


# ---------------------------------------------------------------------------
# central norm classes and parity


def test_phi_p_part_frozen():
    one3 = CycElem.one(3)
    z3 = CycElem.zeta(3)
    assert phi_p_part(3, one3 - z3, 3).coeffs == (1,)
    for p in (3, 5, 7):
        full = phi_p_part(p ** (p - 1), CycElem.from_rational(p, p), p)
        assert full.coeffs == (p - 1,)
    one5 = CycElem.one(5)
    assert phi_p_part(1, one5 + CycElem.zeta(5), 5).coeffs == (0,)
    inv = CycElem(3, (Fraction(2, 3), Fraction(1, 3)))
    assert inv * (one3 - z3) == one3
    assert phi_p_part(Fraction(1, 3), inv, 3).coeffs == (-1,)
    with pytest.raises(ValueError):
        phi_p_part(0, CycElem.zero(3), 3)
    with pytest.raises(TypeError):
        phi_p_part(1, one3, 5)


def test_phi_p_part_additive_on_products():
    def part(z):
        return phi_p_part(norm_to_Q(z), z, z.p)

    rng = random.Random(3)
    for p in (3, 5):
        for _ in range(15):
            x = CycElem(p, tuple(rng.randint(-3, 3) for _ in range(p - 1)))
            y = CycElem(p, tuple(rng.randint(-3, 3) for _ in range(p - 1)))
            if x.is_zero() or y.is_zero():
                continue
            assert part(x * y) == part(x) + part(y)


def test_phi_p_part_certificates():
    one = CycElem.one(5)
    z = CycElem.zeta(5)
    alpha = (one - z) * complex_conj(one - z)
    a = Fraction(norm_to_Q(alpha))
    got = phi_p_part(a, alpha, 5)
    assert got.coeffs == (2,)
    # a second certificate for the same value gives the same class
    assert phi_p_part(a, z * alpha, 5) == got
    with pytest.raises(ValueError):
        phi_p_part(a + 1, alpha, 5)
    with pytest.raises(ValueError):
        phi_p_part(0, alpha, 5)
    with pytest.raises(TypeError):
        phi_p_part(a, "alpha", 5)
    # one class builder: the norm as an int or a Fraction gives one class
    assert got == phi_p_part(norm_to_Q(alpha), alpha, 5)


def test_norms_are_exact_scalars():
    # Fraction() once read 0.1 as 3602879701896397/36028797018963968 and
    # True as 1; a norm is now an exact scalar, an int when integral
    one = CycElem.one(5)
    for bad in (0.1, 1.0, True, "1"):
        with pytest.raises(TypeError):
            PhiSample(bad, one)
        with pytest.raises(TypeError):
            phi_p_part(bad, one, 5)
    three = PhiSample(Fraction(3), one)
    assert type(three.norm) is int
    assert PhiSample(3, one) == three and hash(PhiSample(3, one)) == hash(three)
    assert PhiSample(Fraction(1, 3), one).norm == Fraction(1, 3)
    assert phi_p_part(Fraction(1), one, 5) == phi_p_part(1, one, 5)


def test_model_validation_takes_one_norm_per_sample(monkeypatch):
    import polobstruct.kergroup as kg

    m = twist_model(5, samples=3)
    calls = []
    norm = kg.norm_to_Q
    monkeypatch.setattr(kg, "norm_to_Q", lambda a: calls.append(a) or norm(a))
    assert ModelDescriptor.from_json(m.to_json()) == m
    assert calls == [s.alpha for s in m.phi_samples]


def test_parity_hom():
    ls = twist_labels(3)
    assert parity_hom(KerClass(ls, (3,)), 3) == 1
    assert parity_hom(KerClass(ls, (2,)), 3) == 0
    # constant on cosets of the dual-pair subgroup
    for g in b_subgroup_gens(ls):
        c = KerClass(ls, (5,))
        assert parity_hom(c + g, 3) == parity_hom(c, 3)
    bad = LabelSet([SimpleLabel("E[3]", 9, "X"), SimpleLabel("X", 9, "E[3]")])
    with pytest.raises(ValueError):
        parity_hom(KerClass(bad, (1, 0)), 3)


# ---------------------------------------------------------------------------
# quaternion witnesses


def test_quaternion_arithmetic():
    D = QuaternionAlgebra(-1, -1)
    one = D.scalar(1)
    i = D.element(0, 1)
    j = D.element(0, 0, 1)
    k = D.element(0, 0, 0, 1)
    assert D.mul(i, j) == k
    assert D.mul(j, i) == D.element(0, 0, 0, -1)
    assert D.mul(i, i) == D.scalar(-1)
    assert D.mul(k, k) == D.scalar(-1)
    u = D.element(1, 1, 1, 1)
    assert D.nrd(u) == 4
    assert D.trd(u) == 2
    assert D.mul(u, D.conj(u)) == D.scalar(4)
    assert D.mul(u, D.inverse(u)) == one
    with pytest.raises(ValueError):
        QuaternionAlgebra(0, 1)


def test_quaternion_nrd_multiplicative():
    rng = random.Random(21)
    for a, b in ((-1, -1), (-1, -3), (2, 5)):
        D = QuaternionAlgebra(a, b)
        for _ in range(20):
            u = D.element(*(rng.randint(-4, 4) for _ in range(4)))
            v = D.element(*(rng.randint(-4, 4) for _ in range(4)))
            assert D.nrd(D.mul(u, v)) == D.nrd(u) * D.nrd(v)
            assert D.conj(D.mul(u, v)) == D.mul(D.conj(v), D.conj(u))


def test_quaternion_positive():
    D = QuaternionAlgebra(-1, -1)
    assert quaternion_positive(D, D.scalar(2))
    assert not quaternion_positive(D, D.scalar(-2))
    assert not quaternion_positive(D, D.element(1, 1))  # complex eigenvalues


def test_quaternion_witness_check():
    D = QuaternionAlgebra(-1, -1)
    beta = (0, 1, 1, 0)
    alpha1 = (0, Fraction(1, 2), Fraction(1, 2), 0)
    res = quaternion_witness_check(D, beta, alpha1, -1, 2)
    assert res == {"skew": True, "norm_matches": True,
                   "ratio_positive": True, "ok": True}
    assert quaternion_witness_check(D, (1, 1, 1, 0), alpha1, -1, 2)["skew"] is False
    assert quaternion_witness_check(D, beta, alpha1, -1, 3)["norm_matches"] is False
    neg = tuple(-c for c in alpha1)
    assert quaternion_witness_check(D, beta, neg, -1, 2)["ratio_positive"] is False
    split = QuaternionAlgebra(1, 1)
    with pytest.raises(ValueError):
        quaternion_witness_check(split, (0, 1, 1, 0), (1, 1, 0, 0), 1, 2)


# ---------------------------------------------------------------------------
# models and attainability


def test_twist_model_shape():
    m = twist_model(3, seed=1729, samples=5)
    assert len(m.phi_samples) == 6
    assert m.p == 3
    assert m.z_gens == ((1,),)
    assert m.s_c == ((1,),)
    # every sampled degree value has even p-valuation: they are x conj(x)
    for s in m.phi_samples:
        assert phi_p_part(s.norm, s.alpha, 3).coeffs[0] % 2 == 0


def test_twist_model_deterministic():
    a = twist_model(5, seed=42, samples=4)
    b = twist_model(5, seed=42, samples=4)
    c = twist_model(5, seed=43, samples=4)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


def test_model_json_roundtrip():
    m = twist_model(5, seed=7, samples=3)
    again = ModelDescriptor.from_json(m.to_json())
    assert again == m


def test_model_json_writes_integers_as_json_integers():
    samples = json.loads(twist_model(5, samples=3).to_json())["phi_samples"]
    values = [s["norm"] for s in samples] + [c for s in samples for c in s["alpha_coords"]]
    assert len(values) == 4 * 5 and all(type(v) is int for v in values)
    # N(1 + zeta/3) = 1 - 1/3 + 1/9 in Q(zeta_3): only nonintegral values are strings
    alpha = CycElem(3, (1, Fraction(1, 3)))
    m = ModelDescriptor(twist_labels(3), ((1,),),
                        AlgebraDescriptor((AlgebraFactor("IV", CenterField("cyclotomic", 3)),)),
                        (PhiSample(Fraction(7, 9), alpha),), ((1,),))
    sample = json.loads(m.to_json())["phi_samples"][0]
    assert sample == {"norm": "7/9", "alpha_coords": [1, "1/3"]}
    assert ModelDescriptor.from_json(m.to_json()) == m


def test_model_with_integers_written_as_strings_loads():
    # files written before integers were JSON integers hold every norm and
    # coordinate as a string
    m = twist_model(5, samples=3)
    data = json.loads(m.to_json())
    for s in data["phi_samples"]:
        s["norm"] = str(s["norm"])
        s["alpha_coords"] = [str(c) for c in s["alpha_coords"]]
    text = json.dumps(data, indent=2)
    assert '"norm": "' in text and ModelDescriptor.from_json(text) == m


_MUTANT_VALUES = (0, 1, -1, 2, 3, 5, 25, 1001, 10 ** 40, 0.5, True, None, "", "x",
                  "1/0", "1/2", "-3", "E[5]", "E[7]", "Q", "Q(zeta_5)", "Q(zeta_5)+",
                  "Q(zeta_3)", "I", "II", "IV", [], [1], [[1]], [1, 1], {},
                  {"name": "E[5]", "rank": 25, "dual": "E[5]"})


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutant(rng, data):
    """data with one to three fields replaced, deleted or duplicated, as
    JSON text, or that text with one character replaced."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        *head, last = rng.choice(list(_json_paths(data))[1:])
        parent = functools.reduce(operator.getitem, head, data)
        op = rng.random()
        if op < 0.2:
            del parent[last]
        elif op < 0.3 and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[last]))
        else:
            parent[last] = copy.deepcopy(rng.choice(_MUTANT_VALUES))
    text = json.dumps(data)
    if rng.random() < 0.3:
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice('0123456789-/"[]{},:.e x') + text[i + 1:]
    return text


def test_mutated_model_files_raise_only_value_error():
    # from_json reads text from outside, so whatever that text holds it
    # returns a model or raises ValueError: the CLI turns nothing else into
    # exit code 2
    rng = random.Random(24)
    base = json.loads(twist_model(5, samples=2).to_json())
    loaded = rejected = 0
    for _ in range(1000):
        try:
            ModelDescriptor.from_json(_mutant(rng, base))
            loaded += 1
        except ValueError:
            rejected += 1
    assert loaded and rejected


def test_bool_fields_are_checked_where_they_are_built():
    # each of these once built, and wrote JSON that from_json refused
    with pytest.raises(ValueError):
        AlgebraFactor("IV", CenterField("cyclotomic", 5), True)
    with pytest.raises(ValueError):
        SimpleLabel("E[5]", 25, "E[5]", 1)
    with pytest.raises(ValueError):
        SimpleLabel("A", 5, "B", 0)


def test_models_read_back_from_their_own_json():
    paired = ModelDescriptor(
        LabelSet([SimpleLabel("E[5]", 25, "E[5]", alt_pairing=True)]), ((1,),),
        AlgebraDescriptor((AlgebraFactor("IV", CenterField("cyclotomic", 5)),)),
        (), ((1,),))
    for m in (twist_model(5), twist_model(13), paired):
        back = ModelDescriptor.from_json(m.to_json())
        assert back == m
        assert all(type(c) is int for s in back.phi_samples for c in s.alpha.coords
                   if c.denominator == 1)


def test_b_groups_are_z2():
    for p in (3, 5, 7):
        m = twist_model(p, samples=4)
        for grp in (b1_group(m), b2_group(m)):
            assert grp.invariant_factors == (2,)
            assert grp.free_rank == 0
            assert str(grp) == "Z/2"


def test_claimed_norms_do_not_come_from_the_certificate_product(monkeypatch):
    # central_degree forms x conj(x) by autocorrelation, not by
    # CycElem.__mul__, so a product that is off in one coordinate makes the
    # model refuse its sampled certificates; (1 - zeta)(1 - conj zeta) is
    # left exact, so only the sampled pairs can fail
    import polobstruct.kergroup as kergroup

    product = CycElem.__mul__

    def perturbed(self, other):
        out = product(self, other)
        if isinstance(other, CycElem) and sum(map(bool, self.coords)) > 2:
            return CycElem(out.p, (out.coords[0] + 1,) + out.coords[1:])
        return out

    monkeypatch.setattr(CycElem, "__mul__", perturbed)
    with pytest.raises(ValueError, match="certificate does not have the claimed norm"):
        twist_model(13)
    # the control: a claimed norm formed through the same product passes
    monkeypatch.setattr(kergroup, "central_degree", lambda x: norm_to_Q(x * x.conj()))
    twist_model(13)


def test_b2_is_exact_by_the_norm_square_lemma():
    # N_(K/Q)(gamma) = N_(K+/Q)(gamma)^2 for gamma in K+ (see b2_group),
    # by a route that does not assume it: _crt_norm multiplies all p - 1
    # conjugates mod primes l = 1 (mod p) and lifts by CRT, while
    # norm_to_Q squares e_m, the product of the real embeddings. The
    # gammas are (1 - zeta)(1 - conj zeta), seeded x conj(x), and fixed
    # elements that are not totally positive, so of no form x conj(x)
    rng = random.Random(36)
    for p in filter(is_odd_prime, range(3, 62)):
        one_minus_zeta = CycElem.one(p) - CycElem.zeta(p)
        gammas = [one_minus_zeta * complex_conj(one_minus_zeta)]
        while len(gammas) < 3:
            x = CycElem(p, [rng.randint(-3, 3) for _ in range(p - 1)])
            if not x.is_zero():
                gammas.append(x * complex_conj(x))
        while len(gammas) < 6:
            g = from_eta(p, [rng.randint(-3, 3) for _ in range((p - 1) // 2)])
            if not g.is_zero() and not is_totally_positive(g):
                gammas.append(g)
        for g in gammas:
            assert g == complex_conj(g)
            n = _crt_norm(g)
            root = math.isqrt(n)
            assert root * root == n == norm_to_Q(g)
            assert root == abs(g._elementary[-1])
        assert _crt_norm(gammas[0]) == p * p


def test_attainable_frozen():
    m = twist_model(3, samples=4)
    assert attainable([0], m) == AttainabilityResult(False, "b2_image_not_in_s_c")
    assert attainable([1], m) == AttainabilityResult(True, "ok")
    assert attainable([3], m) == AttainabilityResult(True, "ok")
    assert attainable([2], m) == AttainabilityResult(False, "b2_image_not_in_s_c")
    assert attainable([-1], m) == AttainabilityResult(False, "not_effective")
    assert attainable(KerClass(m.labels, (5,)), m).ok


def test_attainable_z_span():
    m0 = twist_model(3, samples=2)
    m = ModelDescriptor(m0.labels, ((2,),), m0.algebra, m0.phi_samples, ((2,),))
    assert attainable([1], m) == AttainabilityResult(False, "not_in_z_span")
    assert attainable([2], m).ok
    assert attainable([4], m).ok
    with pytest.raises(ValueError):
        attainable([1, 2], m)
    with pytest.raises(ValueError):
        attainable(KerClass(twist_labels(5), (1,)), m)


def test_integer_class_vectors_are_not_truncated():
    # a float, bool, str or non-integral Fraction once became int(x)
    # silently: [1.9] answered "ok" and (2.7,) printed as 2*[E[5]]
    m = twist_model(5, samples=1)
    for bad in (1.9, Fraction(3, 2), True, "1"):
        with pytest.raises(TypeError):
            attainable([bad], m)
        with pytest.raises(TypeError):
            KerClass(twist_labels(5), (bad,))
        with pytest.raises(TypeError):
            ModelDescriptor(m.labels, ((bad,),), m.algebra, m.phi_samples, m.s_c)
        with pytest.raises(TypeError):
            ModelDescriptor(m.labels, m.z_gens, m.algebra, m.phi_samples, ((bad,),))
    with pytest.raises(TypeError):
        ModelDescriptor(m.labels, ((1.7,),), m.algebra, m.phi_samples, m.s_c)
    with pytest.raises(TypeError):
        KerClass(twist_labels(5), (2.7,))
    # an integral Fraction is its int
    assert KerClass(twist_labels(5), (Fraction(4, 2),)).coeffs == (2,)
    assert type(KerClass(twist_labels(5), (Fraction(4, 2),)).coeffs[0]) is int
    assert attainable([Fraction(2, 2)], m) == attainable([1], m)
    assert ModelDescriptor(m.labels, ((Fraction(1),),), m.algebra, m.phi_samples,
                           m.s_c).z_gens == ((1,),)


def test_model_validation_errors():
    # construction alone validates: none of these calls .validate()
    m = twist_model(3, samples=2)
    bad_cert = PhiSample(Fraction(7), m.phi_samples[0].alpha)
    with pytest.raises(ValueError, match="certificate does not have the claimed norm"):
        ModelDescriptor(m.labels, m.z_gens, m.algebra, (bad_cert,), m.s_c)
    with pytest.raises(ValueError, match="s_c entries disagree"):
        ModelDescriptor(m.labels, m.z_gens, m.algebra, m.phi_samples, ((1,), (2,)))
    with pytest.raises(ValueError, match="s_c entry outside the realizable span"):
        ModelDescriptor(m.labels, ((2,),), m.algebra, m.phi_samples, ((1,),))
    # 3Z holds the class 3 but not the dual-pair relation 2: the obstruction
    # groups would be quotients by a relation outside the span
    with pytest.raises(ValueError, match="relation outside the realizable span"):
        ModelDescriptor(m.labels, ((3,),), m.algebra, m.phi_samples, ((3,),))
    with pytest.raises(ValueError, match="need at least one z generator"):
        ModelDescriptor(m.labels, (), m.algebra, m.phi_samples, m.s_c)
    # what parity and bgroup read: an s_c entry, the cyclotomic factor and
    # a self-dual E[p] label
    with pytest.raises(ValueError, match="need at least one s_c entry"):
        ModelDescriptor(m.labels, m.z_gens, m.algebra, m.phi_samples, ())
    rational = AlgebraDescriptor((AlgebraFactor("I", CenterField("Q"), 1, ()),))
    with pytest.raises(ValueError, match="no cyclotomic factor"):
        ModelDescriptor(m.labels, m.z_gens, rational, (), m.s_c)
    other = LabelSet([SimpleLabel("G", 9, "G", True)])
    with pytest.raises(ValueError, match=re.escape("no E[3] label")):
        ModelDescriptor(other, m.z_gens, m.algebra, (), m.s_c)
    swapped = LabelSet([SimpleLabel("E[3]", 9, "F"), SimpleLabel("F", 9, "E[3]")])
    with pytest.raises(ValueError, match=re.escape("E[3] label is not self-dual")):
        ModelDescriptor(swapped, ((1, 1),), m.algebra, (), ((1, 1),))
    # the labels below sit beside E[3], with its class as the known s_c
    e3 = m.labels[0]
    alg = m.algebra
    # a span touching a self-dual label that cannot pair with itself
    plain = LabelSet([e3, SimpleLabel("G", 4, "G")])
    with pytest.raises(ValueError, match="self-dual label G without a pairing"):
        ModelDescriptor(plain, ((1, 0), (0, 1)), alg, (), ((1, 0),))
    # rank 2 is the allowed exception
    tiny = LabelSet([e3, SimpleLabel("H", 2, "H")])
    ModelDescriptor(tiny, ((1, 0), (0, 1)), alg, (), ((1, 0),))
    # duality-unstable span
    pair = LabelSet([e3, SimpleLabel("A", 5, "B"), SimpleLabel("B", 5, "A")])
    with pytest.raises(ValueError, match="not duality stable"):
        ModelDescriptor(pair, ((1, 0, 0), (0, 1, 0)), alg, (), ((1, 0, 0),))


def test_model_checks_each_sample_once(monkeypatch):
    import polobstruct.kergroup as kg

    calls = {"norm_to_Q": 0, "is_totally_positive": 0}

    def counted(name):
        real = getattr(kg, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    text = twist_model(5, samples=3).to_json()
    for name in calls:
        monkeypatch.setattr(kg, name, counted(name))
    m = ModelDescriptor.from_json(text)
    # four samples: the distinguished one and three drawn ones
    assert calls == {"norm_to_Q": 4, "is_totally_positive": 4}
    for k in range(-1, 4):
        attainable([k], m)
    b1_group(m)
    b2_group(m)
    assert calls == {"norm_to_Q": 4, "is_totally_positive": 4}


def test_model_load_tests_each_distinct_relation_once(monkeypatch):
    import polobstruct.kergroup as kg

    text = twist_model(13).to_json()
    seen = []
    hnf_coords = kg._hnf_coords
    monkeypatch.setattr(kg, "_hnf_coords",
                        lambda h, v: seen.append(tuple(v)) or hnf_coords(h, v))
    m = ModelDescriptor.from_json(text)
    # the dual pair (2,) and the level-2 samples' classes, each (0,) or
    # (2,), reduce to one column
    assert m.samples_used > 1 and m.relation_hnf == Matrix([[2]])
    # the duality test of the one z generator, the s_c test, then the one
    # nonzero relation
    assert seen == [(1,), (1,), (2,)]


def test_model_takes_each_column_hnf_once_at_load(monkeypatch):
    # the load takes the HNF of the span and of the relations; queries
    # read both and take none, by either name of col_hnf
    import polobstruct.intlinalg as il
    import polobstruct.kergroup as kg

    text = twist_model(13).to_json()
    calls = []
    col_hnf = il.col_hnf
    for module in (il, kg):
        monkeypatch.setattr(module, "col_hnf",
                            lambda a: calls.append(a.shape) or col_hnf(a))
    m = ModelDescriptor.from_json(text)
    assert len(calls) == 2
    verdicts = [attainable([k], m).ok for k in range(6)]
    assert verdicts == [False, True, False, True, False, True]
    assert str(b2_group(m)) == "Z/2"
    assert len(calls) == 2


def test_model_load_takes_one_power_sum_pass_per_sample(monkeypatch):
    # the certificate's norm N(alpha) = N_(K+/Q)(alpha)^2 and its total
    # positivity read one pass memoized on alpha: nine samples, nine passes,
    # where a pass on alpha conj(alpha) for the norm would make eighteen
    import polobstruct.cyclotomic as cyc

    text = twist_model(13).to_json()
    passes = []
    elementary = cyc._real_elementary
    monkeypatch.setattr(cyc, "_real_elementary",
                        lambda x: passes.append(x) or elementary(x))
    m = ModelDescriptor.from_json(text)
    assert len(m.phi_samples) == 9
    assert len(passes) == 9
    for s in m.phi_samples:
        assert nrd_dagger_status(s.alpha, m.algebra.factors[0]) == "yes"
    assert len(passes) == 9


def test_model_load_tests_each_sample_for_conjugation_once(monkeypatch):
    # the norm, the symmetry test and the positivity of a sample share one
    # conjugation test: nine samples, at most nine is_conj_fixed calls and
    # nine tests, where each of the three made its own before
    import polobstruct.cyclotomic as cyc

    text = twist_model(13).to_json()
    calls, tests = [], []
    is_conj_fixed = cyc.CycElem.is_conj_fixed
    monkeypatch.setattr(cyc.CycElem, "is_conj_fixed",
                        lambda self: calls.append(self) or is_conj_fixed(self))
    fixed = vars(cyc.CycElem)["_fixed"]
    monkeypatch.setattr(fixed, "func", lambda self, f=fixed.func: tests.append(self) or f(self))
    m = ModelDescriptor.from_json(text)
    assert len(m.phi_samples) == 9
    assert len(calls) <= 9 and len(tests) == 9
    # every integral norm is loaded as an int
    assert all(type(s.norm) is int for s in m.phi_samples)


def test_model_files_are_pinned():
    # the bytes of the models the benchmark writes, at the default seed
    digests = {p: hashlib.sha256(twist_model(p).to_json().encode()).hexdigest()
               for p in (13, 19)}
    assert digests == {
        13: "1a6bad2fce587e0c16f7d8fdfaebf48995dc7bc6a68816ead914366893da1827",
        19: "2ede360322c494298406f78fe17535af39f0d8f8aef73bb67f4d0355d5d72eff",
    }


def test_model_relations_hold_level_two_classes_only():
    # -x conj(x) has the same norm as x conj(x) (p - 1 is even) but is not
    # totally positive, so its class is no relation
    m = twist_model(5, samples=1)
    neg = PhiSample(m.phi_samples[1].norm, -m.phi_samples[1].alpha)
    grown = ModelDescriptor(m.labels, m.z_gens, m.algebra, m.phi_samples + (neg,), m.s_c)
    assert m.samples_used == grown.samples_used == 2
    assert grown.span == m.span == Matrix([[1]])
    assert grown == ModelDescriptor.from_json(grown.to_json())


def test_model_from_json_rejects_garbage():
    m = twist_model(3, samples=2)
    text = m.to_json().replace("Q(zeta_3)", "F_9")
    with pytest.raises(ValueError):
        ModelDescriptor.from_json(text)
