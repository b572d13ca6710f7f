"""The one exact-value rule, read at every entry point that takes an
outside number: an exact scalar is an int or a Fraction, and an exact
integer an integral one; a float, a bool or a str raises TypeError, as a
non-integral Fraction does where an integer is required. Fraction(x)
once read 0.1 as 3602879701896397/36028797018963968 and True as 1."""

from fractions import Fraction

import pytest

from polobstruct.cyclotomic import CycElem, from_eta
from polobstruct.galmod import valuation
from polobstruct.intlinalg import IntPoly, Matrix
from polobstruct.kergroup import (
    KerClass,
    ModelDescriptor,
    QuaternionAlgebra,
    attainable,
    is_square_in_Qp,
    quaternion_witness_check,
    twist_labels,
    twist_model,
)

MODEL = twist_model(5, samples=1)
D = QuaternionAlgebra(-1, -1)
BETA, ALPHA1 = (0, 1, 1, 0), (0, Fraction(1, 2), Fraction(1, 2), 0)

# entry point: (a call taking the value, does it require an integer)
ENTRIES = {
    "Matrix": (lambda v: Matrix([[1, v]]), False),
    "Matrix.diagonal": (lambda v: Matrix.diagonal([1, v]), False),
    "IntPoly": (lambda v: IntPoly([1, v]), True),
    "CycElem": (lambda v: CycElem(5, (v, 0, 0, 0)), False),
    "CycElem.from_rational": (lambda v: CycElem.from_rational(v, 5), False),
    "CycElem +": (lambda v: CycElem.one(5) + v, False),
    "CycElem *": (lambda v: CycElem.one(5) * v, False),
    "from_eta": (lambda v: from_eta(5, (v, 0)), False),
    "KerClass": (lambda v: KerClass(twist_labels(5), (v,)), True),
    "attainable": (lambda v: attainable([v], MODEL), True),
    "ModelDescriptor z_gens": (lambda v: ModelDescriptor(
        MODEL.labels, ((v,),), MODEL.algebra, MODEL.phi_samples, MODEL.s_c), True),
    "QuaternionAlgebra": (lambda v: QuaternionAlgebra(v, -1), False),
    "QuaternionAlgebra.element": (lambda v: D.element(1, v), False),
    "quaternion_witness_check b": (
        lambda v: quaternion_witness_check(D, BETA, ALPHA1, v, 2), False),
    "quaternion_witness_check c1": (
        lambda v: quaternion_witness_check(D, BETA, ALPHA1, -1, v), False),
    "is_square_in_Qp": (lambda v: is_square_in_Qp(v, 3), False),
    "valuation": (lambda v: valuation(v, 5), False),
}
BAD = {"float": 0.25, "bool": True, "str": "4"}
CASES = [(entry, kind) for entry, (_, wants_int) in ENTRIES.items()
         for kind in [*BAD, *(["non-integral Fraction"] if wants_int else [])]]


@pytest.mark.parametrize("entry, kind", CASES, ids=[f"{e}-{k}" for e, k in CASES])
def test_inexact_input_raises_type_error(entry, kind):
    call, _ = ENTRIES[entry]
    with pytest.raises(TypeError):
        call(BAD.get(kind, Fraction(1, 2)))


def test_an_integral_fraction_is_its_int():
    two = Fraction(6, 3)
    values = [Matrix([[two]]).rows[0][0], Matrix.diagonal([two]).rows[0][0],
              IntPoly([two]).coeffs[0], CycElem.from_rational(two, 5).coords[0],
              from_eta(5, (two, 0)).coords[0], KerClass(twist_labels(5), (two,)).coeffs[0],
              QuaternionAlgebra(two, -1).a, D.element(two)[0],
              (CycElem.one(5) * two).coords[0]]
    assert values == [2] * len(values)
    assert {type(v) for v in values} == {int}
    assert attainable([Fraction(2, 2)], MODEL) == attainable([1], MODEL)
    assert is_square_in_Qp(Fraction(4, 1), 3) and is_square_in_Qp(Fraction(1, 4), 3)
    assert valuation(Fraction(50, 2), 5) == 2


def test_field_element_equality_never_raises():
    one = CycElem.one(5)
    assert one == 1 and one == Fraction(2, 2) and one == True  # noqa: E712
    assert one != 1.0 and one != "a" and one != 2 and CycElem.zeta(5) != 0
    assert from_eta(5, (Fraction(1, 3), 0)) == Fraction(1, 3)
    assert hash(one) == hash(1) and hash(from_eta(5, (1, 0))) == hash(Fraction(1))


def test_quaternion_inverse_stays_exact():
    u = D.element(1, 1, 1, 1)
    inv = D.inverse(u)
    assert {type(c) for c in inv} == {Fraction}
    assert inv == (Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4))
    assert D.mul(u, inv) == D.scalar(1)
