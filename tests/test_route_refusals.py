"""Each library route refuses an argument of the wrong type with ValidationError.

A spec, an invariant pair or a class given as ``None``, as another value
object or as a series is refused by name, before the route reads it, so
that no wrong argument escapes as ``AttributeError`` or ``TypeError``.
A rational scalar (a degree d, a kernel's weight or a class's value) that
is a float, a bool or ``None`` is refused with ValidationError, and a bad
literal with InputParseError; where a route takes a wrong class and a bad
scalar at once, the refusal it gives pins the order of its checks.
"""

from fractions import Fraction as F

import pytest

from csmcalc import charclass as cc
from csmcalc.charclass import BundleData, HypersurfaceSpec, InvariantData
from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn
from csmcalc.errors import InputParseError, ValidationError

SPEC = HypersurfaceSpec(3, 2, F(4), {0: GradedClass.single(3, 1, 4), 1: GradedClass.single(3, 2, 3)})
INV = InvariantData(F(-1), F(2))
CLS = GradedClass.from_coeffs(3, [0, 0, 9, -18])
SERIES = HSeries.from_coeffs(3, [1, 2])
C_F, C_MA = cc.fulton_class(3, 4), cc.mather_from_polar(SPEC)
NORMAL = BundleData.line(3, 4)

CASES = {  # name: (call, message)
    "csm_from_polar inv None": (
        lambda: cc.csm_from_polar(SPEC, None), "inv must be an InvariantData, got NoneType"),
    "csm_from_polar spec None": (
        lambda: cc.csm_from_polar(None, INV), "spec must be a HypersurfaceSpec, got NoneType"),
    "csm_from_interpolation inv None": (
        lambda: cc.csm_from_interpolation(C_F, C_MA, 4, None),
        "inv must be an InvariantData, got NoneType"),
    "segre_ym_to_yx inv None": (
        lambda: cc.segre_ym_to_yx(CLS, 4, None), "inv must be an InvariantData, got NoneType"),
    "segre_ym_to_yx inv a spec": (
        lambda: cc.segre_ym_to_yx(CLS, 4, SPEC),
        "inv must be an InvariantData, got HypersurfaceSpec"),
    "segre_ym_to_yx series": (
        lambda: cc.segre_ym_to_yx(SERIES, 4, INV), "s_ym must be a GradedClass, got HSeries"),
    "segre_yx_to_ym inv None": (
        lambda: cc.segre_yx_to_ym(CLS, 4, None), "inv must be an InvariantData, got NoneType"),
    "segre_yx_to_ym inv a pair": (
        lambda: cc.segre_yx_to_ym(CLS, 4, (F(-1), F(2))), "inv must be an InvariantData, got tuple"),
    "segre_yx_to_ym series": (
        lambda: cc.segre_yx_to_ym(SERIES, 4, INV), "s_yx must be a GradedClass, got HSeries"),
    "mather_from_segre None": (
        lambda: cc.mather_from_segre(None, 3, 4), "s_yx must be a GradedClass, got NoneType"),
    "mather_from_segre series": (
        lambda: cc.mather_from_segre(SERIES, 3, 4), "s_yx must be a GradedClass, got HSeries"),
    "csm_from_segre None": (
        lambda: cc.csm_from_segre(None, 3, 4), "s_ym must be a GradedClass, got NoneType"),
    "total_polar_class None": (
        lambda: cc.total_polar_class(None), "spec must be a HypersurfaceSpec, got NoneType"),
    "mather_from_polar None": (
        lambda: cc.mather_from_polar(None), "spec must be a HypersurfaceSpec, got NoneType"),
    "mather_double_sum None": (
        lambda: cc.mather_double_sum(None), "spec must be a HypersurfaceSpec, got NoneType"),
    "mather_from_polar wire dict": (
        lambda: cc.mather_from_polar(SPEC.to_json()), "spec must be a HypersurfaceSpec, got dict"),
    "segre_from_polar spec None": (
        lambda: cc.segre_from_polar(None, NORMAL), "spec must be a HypersurfaceSpec, got NoneType"),
    "segre_from_polar normal None": (
        lambda: cc.segre_from_polar(SPEC, None), "normal must be a BundleData, got NoneType"),
    "solver_lhs None": (
        lambda: cc.solver_lhs(None, C_F, 4), "c_mather must be a GradedClass, got NoneType"),
    "solver_lhs series": (
        lambda: cc.solver_lhs(SERIES, C_F, 4), "c_mather must be a GradedClass, got HSeries"),
    "solve_invariants lhs None": (
        lambda: cc.solve_invariants(None, CLS, 4), "lhs must be a GradedClass, got NoneType"),
    "solve_invariants c_y None": (
        lambda: cc.solve_invariants(CLS, None, 4), "c_y must be a GradedClass, got NoneType"),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_wrong_argument_type_is_validation_error(case):
    call, message = case
    with pytest.raises(ValidationError) as caught:
        call()
    assert type(caught.value) is ValidationError and str(caught.value) == message


def test_the_same_routes_answer_on_typed_arguments():
    s_ym = cc.segre_yx_to_ym(CLS, 4, INV)
    assert cc.segre_ym_to_yx(s_ym, 4, INV) == CLS
    assert cc.csm_from_polar(SPEC, INV) == cc.csm_from_interpolation(C_F, C_MA, 4, INV)
    assert cc.mather_double_sum(SPEC) == C_MA
    assert cc.solver_lhs(C_MA, C_F, 4) == GradedClass.from_coeffs(3, [0, 0, 9, 18])


BAD_SCALARS = {  # name: (value, error type, message)
    "float": (0.5, ValidationError, "expected an exact rational, got float"),
    "bool": (True, ValidationError, "expected an exact rational, got bool"),
    "None": (None, ValidationError, "expected an exact rational, got NoneType"),
    "1/0": ("1/0", InputParseError, "bad rational literal '1/0'"),
}

SCALAR_CALLS = {  # name: the call, given the scalar
    "mul_linear a": lambda v: CLS.mul_linear(v, 1),
    "mul_linear b": lambda v: CLS.mul_linear(1, v),
    "div_linear": lambda v: CLS.div_linear(v),
    "single": lambda v: GradedClass.single(3, 1, v),
    "LineBundleOnPn": lambda v: LineBundleOnPn(v),
    "fulton_class": lambda v: cc.fulton_class(3, v),
    "mather_from_segre": lambda v: cc.mather_from_segre(CLS, 3, v),
    "csm_from_segre": lambda v: cc.csm_from_segre(CLS, 3, v),
    "segre_ym_to_yx": lambda v: cc.segre_ym_to_yx(CLS, v, INV),
    "segre_yx_to_ym": lambda v: cc.segre_yx_to_ym(CLS, v, INV),
    "solver_lhs": lambda v: cc.solver_lhs(C_MA, C_F, v),
    "solve_invariants": lambda v: cc.solve_invariants(CLS, CLS, v),
}


@pytest.mark.parametrize("bad", BAD_SCALARS.values(), ids=BAD_SCALARS.keys())
@pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
def test_bad_scalar_is_refused(call, bad):
    value, error, message = bad
    with pytest.raises(error) as caught:
        call(value)
    assert type(caught.value) is error and str(caught.value) == message


TWO_FAULTS = {  # name: (call, message): a route given two faults refuses the one it checks first
    "mul_linear a before b": (
        lambda: CLS.mul_linear(0.5, None), "expected an exact rational, got float"),
    "mather_from_segre class before d": (
        lambda: cc.mather_from_segre(SERIES, 3, 0.5), "s_yx must be a GradedClass, got HSeries"),
    "csm_from_segre class before d": (
        lambda: cc.csm_from_segre(SERIES, 3, 0.5), "s_ym must be a GradedClass, got HSeries"),
    "segre_ym_to_yx class before d": (
        lambda: cc.segre_ym_to_yx(SERIES, 0.5, INV), "s_ym must be a GradedClass, got HSeries"),
    "segre_yx_to_ym class before d": (
        lambda: cc.segre_yx_to_ym(SERIES, 0.5, INV), "s_yx must be a GradedClass, got HSeries"),
    "solver_lhs c_mather before d": (
        lambda: cc.solver_lhs(SERIES, C_F, 0.5), "c_mather must be a GradedClass, got HSeries"),
    "solver_lhs c_fulton before d": (
        lambda: cc.solver_lhs(C_MA, SERIES, 0.5), "operand must be GradedClass, not HSeries"),
    "solve_invariants class before d": (
        lambda: cc.solve_invariants(SERIES, CLS, 0.5), "lhs must be a GradedClass, got HSeries"),
    "interpolated_class alpha before d": (
        lambda: cc.interpolated_class(C_F, C_MA, None, 0.5),
        "expected an exact rational, got float"),
    "interpolated_class d before class": (
        lambda: cc.interpolated_class(C_F, None, 0.5, F(1, 3)),
        "expected an exact rational, got float"),
    "csm_from_interpolation d before class": (
        lambda: cc.csm_from_interpolation(None, C_MA, 0.5, INV),
        "expected an exact rational, got float"),
}


@pytest.mark.parametrize("case", TWO_FAULTS.values(), ids=TWO_FAULTS.keys())
def test_two_faults_are_refused_in_order(case):
    call, message = case
    with pytest.raises(ValidationError) as caught:
        call()
    assert type(caught.value) is ValidationError and str(caught.value) == message
