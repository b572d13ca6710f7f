"""The value classes of the package behave as frozen records.

Each case is a real instance, its field names, and one field with another
valid value. A copy built from the same fields by keyword is == with an
equal hash, the changed copy is !=, a tuple of the fields is never ==,
fields cannot be assigned or deleted, and the repr is the one the classes
have always printed.
"""

from fractions import Fraction

import pytest

from polobstruct.cli import VerifyReport
from polobstruct.cyclotomic import CycElem, from_eta
from polobstruct.galmod import e_rank_of_order
from polobstruct.intlinalg import IntPoly, Matrix, cached, snf
from polobstruct.kergroup import (
    AlgebraFactor,
    CenterField,
    KerClass,
    ModelDescriptor,
    QuaternionAlgebra,
    SimpleLabel,
    attainable,
    quotient_group,
    twist_model,
)
from polobstruct.twist import TwistData

MODEL = twist_model(5)
FACTOR = MODEL.algebra.factors[0]
CENTER_7 = CenterField("cyclotomic", 7)

LABELS_REPR = ("LabelSet(labels=(SimpleLabel(name='E[5]', rank=25, dual='E[5]', "
               "alt_pairing=True),))")
MODEL_REPR = (
    "ModelDescriptor(labels=" + LABELS_REPR + ", z_gens=((1,),), "
    "algebra=AlgebraDescriptor(factors=(AlgebraFactor(type='IV', center=CenterField(kind='cyclotomic', p=5), "
    "n=1, ramified=()),)), phi_samples=("
    "PhiSample(norm=25, alpha=CycElem('5; 3, 0, 1, 1')), "
    "PhiSample(norm=75625, alpha=CycElem('5; 20, 0, 5, 5')), "
    "PhiSample(norm=1681, alpha=CycElem('5; 27, 0, 16, 16')), "
    "PhiSample(norm=17161, alpha=CycElem('5; 25, 0, 13, 13')), "
    "PhiSample(norm=130321, alpha=CycElem('5; 17, 0, -8, -8')), "
    "PhiSample(norm=44521, alpha=CycElem('5; 44, 0, 25, 25')), "
    "PhiSample(norm=24025, alpha=CycElem('5; 12, 0, -11, -11')), "
    "PhiSample(norm=25, alpha=CycElem('5; 2, 0, -1, -1')), "
    "PhiSample(norm=3025, alpha=CycElem('5; 7, 0, -6, -6'))), s_c=((1,),))"
)

# (instance, field names, field to change, its other value, repr)
CASES = [
    (MODEL, ("labels", "z_gens", "algebra", "phi_samples", "s_c"),
     "phi_samples", MODEL.phi_samples[:1], MODEL_REPR),
    (MODEL.labels[0], ("name", "rank", "dual", "alt_pairing"), "alt_pairing", False,
     "SimpleLabel(name='E[5]', rank=25, dual='E[5]', alt_pairing=True)"),
    (MODEL.labels, ("labels",), "labels", (SimpleLabel("G", 9, "G", True),),
     LABELS_REPR),
    (KerClass.zero(MODEL.labels), ("labels", "coeffs"), "coeffs", (1,),
     "KerClass(labels=" + LABELS_REPR + ", coeffs=(0,))"),
    (MODEL.algebra, ("factors",), "factors", (AlgebraFactor("IV", CENTER_7),),
     "AlgebraDescriptor(factors=(AlgebraFactor(type='IV', center=CenterField("
     "kind='cyclotomic', p=5), n=1, ramified=()),))"),
    (FACTOR, ("type", "center", "n", "ramified"), "center", CENTER_7,
     "AlgebraFactor(type='IV', center=CenterField(kind='cyclotomic', p=5), n=1, "
     "ramified=())"),
    (FACTOR.center, ("kind", "p"), "p", 7, "CenterField(kind='cyclotomic', p=5)"),
    (MODEL.phi_samples[0], ("norm", "alpha"), "norm", Fraction(1),
     "PhiSample(norm=25, alpha=CycElem('5; 3, 0, 1, 1'))"),
    (TwistData.for_prime(5), ("p", "zeta", "b"), "zeta", Matrix.identity(4),
     "TwistData(p=5, zeta=Matrix(\n [-1, -1, -1, -1]\n [1, 0, 0, 0]\n [0, 1, 0, 0]\n"
     " [0, 0, 1, 0]\n), b=Matrix(\n [2, 1, 1, 1]\n [1, 2, 1, 1]\n [1, 1, 2, 1]\n"
     " [1, 1, 1, 2]\n))"),
    (snf(Matrix([[2, 4], [6, 8]])), ("U", "D", "V"), "U", Matrix.identity(2),
     "SnfResult(U=Matrix(\n [-2, 1]\n [3, -1]\n), D=Matrix(\n [2, 0]\n [0, 4]\n), "
     "V=Matrix(\n [1, 0]\n [0, 1]\n))"),
    (e_rank_of_order(9, 3), ("value",), "value", 2, "EpRank(value=1)"),
    (quotient_group([[1, 0], [0, 1]], [[2, 0]]), ("invariant_factors", "free_rank"),
     "free_rank", 0, "AbGroupPresentation(invariant_factors=(2,), free_rank=1)"),
    (attainable((0,), MODEL), ("ok", "reason"), "ok", True,
     "AttainabilityResult(ok=False, reason='b2_image_not_in_s_c')"),
    (VerifyReport(3, 1, (("a", True),)), ("p", "seed", "checks"), "seed", 2,
     "VerifyReport(p=3, seed=1, checks=(('a', True),))"),
    (IntPoly([1, 1, 1]), ("coeffs",), "coeffs", (1, 1), "IntPoly(coeffs=(1, 1, 1))"),
    (Matrix([[1, 2], [3, 4]]), ("rows", "ncols"), "rows", ((1, 2), (3, 5)),
     "Matrix(\n [1, 2]\n [3, 4]\n)"),
    (Matrix.zero(0, 3), ("rows", "ncols"), "ncols", 2, "Matrix.zero(0, 3)"),
    (CycElem(5, (3, 0, 1, 1)), ("p", "coords"), "coords", (3, 0, 2, 2),
     "CycElem('5; 3, 0, 1, 1')"),
    # a conjugation-fixed element, built from its eta-power coordinates
    pytest.param(from_eta(5, (1, 2)), ("p", "coords"), "coords", (1, 0, 2, 2),
                 "CycElem('5; -1, 0, -2, -2')", id="from_eta"),
    (QuaternionAlgebra(-1, -3), ("a", "b"), "b", Fraction(-1),
     "QuaternionAlgebra(a=-1, b=-3)"),
]


@pytest.mark.parametrize("obj, names, changed, other, expected_repr", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_record_semantics(obj, names, changed, other, expected_repr):
    cls = type(obj)
    values = {name: getattr(obj, name) for name in names}
    copy = cls(**values)
    assert copy == obj
    assert cls(**dict(values, **{changed: other})) != obj
    assert obj != tuple(values.values())
    assert repr(obj) == expected_repr
    assert hash(copy) == hash(obj)
    # an attribute kept beside the fields (Matrix's nrows) or a new one is
    # as frozen as a field
    for name in names + ("nrows", "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, values.get(name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert {name: getattr(obj, name) for name in names} == values


def test_self_dual_label_with_pairing_by_keyword():
    label = SimpleLabel("G", 9, "G", alt_pairing=True)
    assert label.alt_pairing and label == SimpleLabel("G", 9, "G", True)


def test_model_equality_ignores_span_and_relations():
    copy = ModelDescriptor(MODEL.labels, MODEL.z_gens, MODEL.algebra,
                           MODEL.phi_samples, MODEL.s_c)
    copy._set(span=Matrix([[2]]), relation_hnf=Matrix([[7]]), samples_used=0)
    assert copy == MODEL and hash(copy) == hash(MODEL)
    assert "span" not in repr(copy) and "relation" not in repr(copy)
    assert "samples_used" not in repr(copy)


def test_set_takes_every_field_or_none():
    with pytest.raises(ValueError):
        SimpleLabel("G", 9, "G")._set("H", 9)
    label = SimpleLabel("G", 9, "G")
    label._set(cache=1)
    assert label.cache == 1 and label == SimpleLabel("G", 9, "G")


@pytest.mark.parametrize("make, count", [(lambda: TwistData.for_prime(7), 7),
                                         (lambda: Matrix([[1, 0], [2, 3]]), 1),
                                         (lambda: CycElem(5, (3, 0, 1, 1)), 2)],
                         ids=["TwistData", "Matrix", "CycElem"])
def test_cached_values_are_computed_once_and_stay_frozen(monkeypatch, make, count):
    obj = make()
    names = [k for k, v in vars(type(obj)).items() if isinstance(v, cached)]
    assert len(names) == count
    calls = []
    for name in names:
        descriptor = vars(type(obj))[name]
        monkeypatch.setattr(descriptor, "func",
                            lambda self, f=descriptor.func, n=name: calls.append(n) or f(self))
    first = {name: getattr(obj, name) for name in names}
    second = {name: getattr(obj, name) for name in names}
    assert sorted(calls) == sorted(names)
    assert all(second[n] is first[n] for n in names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, first[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == make() and hash(obj) == hash(make()) and repr(obj) == repr(make())


def test_model_repr_holds_no_address():
    # a repr that printed an object's address would differ from run to run
    assert " at 0x" not in repr(twist_model(5))
