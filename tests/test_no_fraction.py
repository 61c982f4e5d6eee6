"""The routes do their scalar arithmetic on integer pairs and build no ``Fraction``.

``Fraction.__new__`` is counted, and on Python 3.12 and later also
``Fraction._from_coprime_ints``, which builds the results of ``Fraction``
arithmetic there.  The scalars are ``Fraction``s, as the CLI and a spec read
give them, and every argument (a fresh spec included) and c(TP^n) are built
before the count starts, so only the route's own work is counted.
"""

from fractions import Fraction as F

import pytest

from csmcalc import charclass as cc
from csmcalc.chow import GradedClass, tangent_chern

N, D, ALPHA = 4, F(3), F(2, 5)
SPEC_WIRE = {
    "n": N, "r": N - 1, "d": "3",
    "polar": {str(k): GradedClass.single(N, k + 1, v).to_json() for k, v in enumerate((3, 6, 12))},
}
INV = cc.InvariantData(F(-1), F(2))  # rho = 1/3, sigma = 2/3
C_F = cc.fulton_class(N, D)
C_MA = cc.mather_from_polar(cc.HypersurfaceSpec.from_json(SPEC_WIRE))
S_YX = cc.segre_from_polar(cc.HypersurfaceSpec.from_json(SPEC_WIRE), cc.BundleData.line(N, D))
S_YM = cc.segre_yx_to_ym(S_YX, D, INV)
C_Y = C_MA.mul_linear(0, 1)  # c_y[1] != 0, so the system has rank 2
LHS = C_Y.mul_linear(INV.eu - INV.chi, (INV.eu - 1) * D)  # planted: solves to INV


def fresh_spec():
    return cc.HypersurfaceSpec.from_json(SPEC_WIRE)


ROUTES = {  # name: (route, the arguments, built before the count)
    "fulton_class": (cc.fulton_class, lambda: (N, D)),
    "total_polar_class": (cc.total_polar_class, lambda: (fresh_spec(),)),
    "interpolated_class": (cc.interpolated_class, lambda: (C_F, C_MA, D, ALPHA)),
    "csm_from_interpolation": (cc.csm_from_interpolation, lambda: (C_F, C_MA, D, INV)),
    "csm_from_polar": (cc.csm_from_polar, lambda: (fresh_spec(), INV)),
    "segre_yx_to_ym": (cc.segre_yx_to_ym, lambda: (S_YX, D, INV)),
    "segre_ym_to_yx": (cc.segre_ym_to_yx, lambda: (S_YM, D, INV)),
    "mather_from_segre": (cc.mather_from_segre, lambda: (S_YX, N, D)),
    "csm_from_segre": (cc.csm_from_segre, lambda: (S_YM, N, D)),
    "solver_lhs": (cc.solver_lhs, lambda: (C_MA, C_F, D)),
}


@pytest.fixture
def built(monkeypatch):
    """A one-entry list counting the Fractions built while the test runs."""
    count = [0]
    new = F.__new__

    def counted_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted_new))
    if hasattr(F, "_from_coprime_ints"):  # Python 3.12 and later
        coprime = F._from_coprime_ints.__func__

        def counted_coprime(cls, *args):
            count[0] += 1
            return coprime(cls, *args)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counted_coprime))
    tangent_chern(N)
    return count


@pytest.mark.parametrize("case", ROUTES.values(), ids=ROUTES.keys())
def test_route_builds_no_fraction(built, case):
    route, arguments = case
    args = arguments()
    before = built[0]
    route(*args)
    assert built[0] - before == 0


ANSWERS = {  # name: (call, its two answers)
    "solve_invariants": (lambda: cc.solve_invariants(LHS, C_Y, D), (INV.eu, INV.chi)),
    "exceptional_multiplicities": (
        lambda: cc.exceptional_multiplicities(INV.chi, INV.eu, 3, 1), (F(-2), F(-3))),
}


@pytest.mark.parametrize("case", ANSWERS.values(), ids=ANSWERS.keys())
def test_builds_only_its_two_answers(built, case):
    call, answers = case
    before = built[0]
    got = call()
    assert built[0] - before == 2
    assert got == answers


def test_the_count_sees_fraction_arithmetic(built):
    before = built[0]
    assert ALPHA * D - 1 == F(1, 5)
    assert built[0] - before >= 2
