"""Each library route refuses an argument of the wrong type with ValidationError.

A spec, an invariant pair or a class given as ``None``, as another value
object or as a series is refused by name, before the route reads it, so
that no wrong argument escapes as ``AttributeError`` or ``TypeError``.
"""

from fractions import Fraction as F

import pytest

from csmcalc import charclass as cc
from csmcalc.charclass import BundleData, HypersurfaceSpec, InvariantData
from csmcalc.chow import GradedClass, HSeries
from csmcalc.errors import ValidationError

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
