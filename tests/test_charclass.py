"""The characteristic-class formula stack on worked inputs.

Expected values were frozen from hand expansions cross-checked with an
independent symbolic-series oracle; the classical tangent-developable
and nodal-cone inputs carry published answers.
"""

from fractions import Fraction as F

import pytest

from csmcalc import charclass as cc
from csmcalc.charclass import BundleData, HypersurfaceSpec, InvariantData
from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn, tangent_chern
from csmcalc.errors import (
    DegenerateInvariantsError,
    DimensionMismatchError,
    InconsistentSystemError,
    UnderdeterminedSystemError,
    ValidationError,
)


def C(n, *coeffs):
    return GradedClass.from_coeffs(n, coeffs)


def S(n, *coeffs):
    return HSeries.from_coeffs(n, coeffs)


def spec_polar(n, r, d, degrees, **kw):
    """Spec with [P_k] = degrees[k] * [P^{r-k}]."""
    polar = {
        k: GradedClass.single(n, n - r + k, v) for k, v in enumerate(degrees)
    }
    return HypersurfaceSpec(n, r, F(d), polar, **kw)


# degree-4 tangent developable of the twisted cubic in P^3
TD = spec_polar(3, 2, 4, [4, 3, 0])
TD_CY = C(3, 0, 0, 3, 2)
# cone in P^3 over a one-node plane cubic
CONE3 = spec_polar(3, 2, 3, [3, 4, 0])
# smooth conic in the plane
CONIC = spec_polar(2, 1, 2, [2, 2])
# twisted cubic curve in P^3 (not a hypersurface of P^3)
TWISTED_CUBIC = spec_polar(3, 1, F(4, 3), [3, 4])
# every polar class nonzero; [P_0] = d[P^47], the shape of a degree-d
# hypersurface, so that the Fulton-based routes apply
DENSE_P48 = spec_polar(
    48, 47, F(7, 2),
    [F(7, 2)] + [F((-1) ** k * (k % 7 + 1), k % 3 + 1) for k in range(1, 48)],
)
# cone type: only P_0 and P_1 nonzero, so the double sum skips every
# other polar class and the kernels convolve mostly-zero vectors
CONE_P120 = spec_polar(120, 119, F(9, 4), [F(9, 4), F(-37, 5)])


class TestFultonClass:
    def test_quartic_surface(self):
        assert cc.fulton_class(3, 4) == C(3, 0, 4, 0, 24)

    def test_cubic_surface(self):
        assert cc.fulton_class(3, 3) == C(3, 0, 3, 3, 9)

    def test_point_in_line(self):
        assert cc.fulton_class(1, 1) == C(1, 0, 1)

    def test_conic(self):
        assert cc.fulton_class(2, 2) == C(2, 0, 2, 2)

    def test_needs_positive_n(self):
        with pytest.raises(ValidationError):
            cc.fulton_class(0, 1)


class TestHypersurfaceSpecValidation:
    def test_missing_polar_defaults_to_zero(self):
        spec = HypersurfaceSpec(3, 2, F(4), {0: GradedClass.single(3, 1, 4)})
        assert spec.polar[1].is_zero() and spec.polar[2].is_zero()

    def test_sequence_input(self):
        spec = HypersurfaceSpec(
            3, 2, F(4), [GradedClass.single(3, 1, 4), GradedClass.single(3, 2, 3)]
        )
        assert spec == TD or spec.polar == TD.polar

    def test_index_beyond_r_rejected(self):
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, 2, F(4), {3: GradedClass.single(3, 3, 1)})

    def test_wrong_support_rejected(self):
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, 2, F(4), {1: GradedClass.single(3, 1, 3)})

    def test_wrong_ambient_rejected(self):
        with pytest.raises(DimensionMismatchError):
            HypersurfaceSpec(3, 2, F(4), {0: GradedClass.single(2, 1, 4)})

    def test_r_bounds(self):
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, 3, F(1), {})
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, -1, F(1), {})

    @pytest.mark.parametrize(
        "n,r",
        [(True, 0), (3.0, 2), (3, True), (3, 2.0)],
        ids=["n-bool", "n-float", "r-bool", "r-float"],
    )
    def test_non_integer_dimensions_rejected(self, n, r):
        with pytest.raises(ValidationError):
            HypersurfaceSpec(n, r, F(1), {})

    @pytest.mark.parametrize("entry", ["x", S(3, 0, 0, 4, 0), None])
    def test_polar_entry_must_be_graded_class(self, entry):
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, 2, F(4), [GradedClass.single(3, 1, 4), entry])

    def test_bool_polar_key_rejected(self):
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, 2, F(4), {True: GradedClass.single(3, 2, 3)})

    def test_ambient_tangent_must_be_series(self):
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, 2, F(4), {}, ambient_tangent=C(3, 1, 0, 0, 0))

    def test_ambient_tangent_checks(self):
        with pytest.raises(DimensionMismatchError):
            HypersurfaceSpec(3, 2, F(4), {}, ambient_tangent=S(2, 1, 3, 3))
        with pytest.raises(ValidationError):
            HypersurfaceSpec(3, 2, F(4), {}, ambient_tangent=S(3, 2, 1, 0, 0))

    def test_json_round_trip(self):
        for spec in (TD, TWISTED_CUBIC):
            assert HypersurfaceSpec.from_json(spec.to_json()) == spec


def _reference_total_polar(spec):
    """total_polar_class as the sum of one dual and one twist per polar class."""
    o1 = LineBundleOnPn(F(1))
    total = GradedClass.zero(spec.n)
    for cls in spec.polar:
        if not cls.is_zero():
            total = total + cls.dual(spec.n).twist(o1, spec.n)
    return -total if (spec.n - spec.r) % 2 else total


class TestTotalPolarClass:
    @pytest.mark.parametrize(
        "spec", [TD, CONE3, CONIC, TWISTED_CUBIC, DENSE_P48, CONE_P120],
        ids=["TD", "CONE3", "CONIC", "TWISTED_CUBIC", "DENSE_P48", "CONE_P120"],
    )
    def test_matches_per_piece_sum(self, spec):
        assert cc.total_polar_class(spec) == _reference_total_polar(spec)

    def test_tangent_developable(self):
        assert cc.total_polar_class(TD) == C(3, 0, 4, -7, 10)

    def test_cone_degree_three(self):
        assert cc.total_polar_class(CONE3) == C(3, 0, 3, -7, 11)

    def test_smooth_conic(self):
        assert cc.total_polar_class(CONIC) == C(2, 0, 2, -4)

    def test_twisted_cubic(self):
        assert cc.total_polar_class(TWISTED_CUBIC) == C(3, 0, 0, 3, -10)


class TestMatherClass:
    def test_tangent_developable(self):
        assert cc.mather_from_polar(TD) == C(3, 0, 4, 9, 6)

    def test_smooth_conic(self):
        # the conic is a P^1 embedded with degree 2
        assert cc.mather_from_polar(CONIC) == C(2, 0, 2, 2)

    def test_cone_degree_three(self):
        assert cc.mather_from_polar(CONE3) == C(3, 0, 3, 5, 1)

    def test_twisted_cubic(self):
        assert cc.mather_from_polar(TWISTED_CUBIC) == C(3, 0, 0, 3, 2)

    @pytest.mark.parametrize("spec", [TD, CONE3, CONIC, TWISTED_CUBIC])
    def test_double_sum_agrees(self, spec):
        assert cc.mather_double_sum(spec) == cc.mather_from_polar(spec)

    def test_double_sum_smooth_hypersurface(self):
        # [P_k] = d(d-1)^k for a smooth degree-d hypersurface
        for n, d in [(2, 2), (3, 2), (3, 4), (4, 3), (5, 2)]:
            smooth = spec_polar(n, n - 1, d, [d * (d - 1) ** k for k in range(n)])
            assert cc.mather_double_sum(smooth) == cc.fulton_class(n, d)
            assert cc.mather_from_polar(smooth) == cc.fulton_class(n, d)


class TestInvariantData:
    def test_tangent_developable_values(self):
        inv = InvariantData(F(-1), F(2))
        assert (inv.rho, inv.sigma) == (F(1, 3), F(2, 3))

    @pytest.mark.parametrize("chi,eu", [(F(0), F(2)), (F(2), F(0))])
    def test_multiplicity_two_cases(self, chi, eu):
        inv = InvariantData(chi, eu)
        assert inv.rho == inv.sigma == F(1, 2)

    def test_rho_plus_sigma(self):
        inv = InvariantData(F(7, 3), F(-2, 5))
        assert inv.rho + inv.sigma == 1

    def test_chi_one_rejected(self):
        with pytest.raises(DegenerateInvariantsError):
            InvariantData(F(1), F(5))

    def test_chi_equal_eu_rejected(self):
        with pytest.raises(DegenerateInvariantsError):
            InvariantData(F(3), F(3))

    def test_json(self):
        inv = InvariantData.from_json({"chi": "-1", "eu": "2"})
        assert inv.to_json() == {"chi": "-1", "eu": "2", "rho": "1/3", "sigma": "2/3"}


class TestInterpolatedClass:
    def test_endpoints(self):
        c_f = cc.fulton_class(3, 4)
        c_ma = cc.mather_from_polar(TD)
        assert cc.interpolated_class(c_f, c_ma, 4, 0) == c_ma
        assert cc.interpolated_class(c_f, c_ma, 4, 1) == c_f

    def test_tangent_developable_csm_weight(self):
        got = cc.interpolated_class(cc.fulton_class(3, 4), C(3, 0, 4, 9, 6), 4, F(1, 3))
        assert got == C(3, 0, 4, 6, 4)

    def test_equal_endpoints_for_any_weight(self):
        c_f = cc.fulton_class(3, 2)
        for alpha in (F(0), F(1), F(-5, 7), F(12)):
            assert cc.interpolated_class(c_f, c_f, 2, alpha) == c_f


class TestCsmRoutes:
    def test_interpolation_route(self):
        inv = InvariantData(F(-1), F(2))
        got = cc.csm_from_interpolation(
            cc.fulton_class(3, 4), cc.mather_from_polar(TD), 4, inv
        )
        assert got == C(3, 0, 4, 6, 4)

    def test_polar_route(self):
        assert cc.csm_from_polar(TD, InvariantData(F(-1), F(2))) == C(3, 0, 4, 6, 4)

    def test_routes_agree_on_tangent_developable(self):
        inv = InvariantData(F(-1), F(2))
        a = cc.csm_from_interpolation(cc.fulton_class(3, 4), cc.mather_from_polar(TD), 4, inv)
        b = cc.csm_from_polar(TD, inv)
        assert a == b

    def test_cone_generic_point_weight(self):
        # invariants of the generic singular point give alpha = 1/2, which is
        # right in codimensions 1 and 2 but not at the vertex-dominated point
        inv = InvariantData(F(0), F(2))
        assert inv.rho == F(1, 2)
        got = cc.csm_from_interpolation(
            cc.fulton_class(3, 3), cc.mather_from_polar(CONE3), 3, inv
        )
        csm = C(3, 0, 3, 4, 2)  # pushforward of the CSM class of the cone
        assert got.coeffs[1] == csm.coeffs[1]
        assert got.coeffs[2] == csm.coeffs[2]
        assert got.coeffs[3] == F(7, 2) != csm.coeffs[3]

    def test_polar_route_smooth_hyperplane_any_invariants(self):
        plane = spec_polar(3, 2, 1, [1])
        expected = cc.fulton_class(3, 1)  # the class of P^2
        assert expected == C(3, 0, 1, 3, 3)
        for chi, eu in [(F(0), F(2)), (F(5), F(-3))]:
            assert cc.csm_from_polar(plane, InvariantData(chi, eu)) == expected

    def test_polar_route_twisted_cubic_with_quadric_ambient(self):
        # realize the twisted cubic as a divisor on a smooth quadric surface:
        # c(TM)|_X = (1+H)^4 / (1+2H) and O_M(X) acts as (4/3) H
        quadric_tangent = tangent_chern(3) * LineBundleOnPn(F(2)).chern(3).inverse()
        curve = spec_polar(3, 1, F(4, 3), [3, 4], ambient_tangent=quadric_tangent)
        expected = C(3, 0, 0, 3, 2)  # smooth rational curve of degree 3
        for chi, eu in [(F(0), F(2)), (F(3), F(7))]:
            assert cc.csm_from_polar(curve, InvariantData(chi, eu)) == expected


class TestRoutesAgreeAtLargeN:
    def test_dense_hypersurface_of_p48(self):
        spec = DENSE_P48
        n, d = spec.n, spec.d
        inv = InvariantData(F(-3, 2), F(5, 3))
        c_mather = cc.mather_from_polar(spec)
        assert c_mather == cc.mather_double_sum(spec)
        c_sm = cc.csm_from_interpolation(cc.fulton_class(n, d), c_mather, d, inv)
        assert c_sm == cc.csm_from_polar(spec, inv)
        s_yx = cc.segre_from_polar(spec, BundleData.line(n, d))
        assert c_sm == cc.csm_from_segre(cc.segre_yx_to_ym(s_yx, d, inv), n, d)
        assert cc.mather_from_segre(s_yx, n, d) == c_mather

    def test_cone_type_hypersurface_of_p120(self):
        spec = CONE_P120
        n, d = spec.n, spec.d
        inv = InvariantData(F(7, 3), F(-2, 5))
        c_mather = cc.mather_from_polar(spec)
        assert c_mather == cc.mather_double_sum(spec)
        c_sm = cc.csm_from_interpolation(cc.fulton_class(n, d), c_mather, d, inv)
        assert c_sm == cc.csm_from_polar(spec, inv)


class TestSegreConversions:
    INV = InvariantData(F(-1), F(2))

    def test_ym_to_yx(self):
        got = cc.segre_ym_to_yx(C(3, 0, 0, 6, -28), 4, self.INV)
        assert got == C(3, 0, 0, 9, -18)

    def test_yx_to_ym(self):
        got = cc.segre_yx_to_ym(C(3, 0, 0, 9, -18), 4, self.INV)
        assert got == C(3, 0, 0, 6, -28)

    def test_zero_maps_to_zero(self):
        zero = GradedClass.zero(3)
        assert cc.segre_ym_to_yx(zero, 4, self.INV) == zero
        assert cc.segre_yx_to_ym(zero, 4, self.INV) == zero

    def test_round_trip(self):
        a = C(4, 1, F(-2, 3), 5, 0, F(7, 2))
        inv = InvariantData(F(5, 2), F(-1, 3))
        assert cc.segre_yx_to_ym(cc.segre_ym_to_yx(a, F(3, 2), inv), F(3, 2), inv) == a
        assert cc.segre_ym_to_yx(cc.segre_yx_to_ym(a, F(3, 2), inv), F(3, 2), inv) == a


class TestSegreRoutesToClasses:
    def test_mather_from_segre(self):
        got = cc.mather_from_segre(C(3, 0, 0, 9, -18), 3, 4)
        assert got == C(3, 0, 4, 9, 6)

    def test_mather_from_zero_segre_is_fulton(self):
        assert cc.mather_from_segre(GradedClass.zero(3), 3, 4) == cc.fulton_class(3, 4)

    def test_inner_term_reconstructs_total_polar(self):
        # [X]/(1+X) + dual(s(Y,X)) twisted by O(d) equals [P]
        s_yx = C(3, 0, 0, 9, -18)
        inner = LineBundleOnPn(F(4)).chern(3).inverse().cap(
            GradedClass.single(3, 1, 4)
        ) + s_yx.dual(3).twist(LineBundleOnPn(F(4)), 3)
        assert inner == cc.total_polar_class(TD)

    def test_csm_from_segre(self):
        got = cc.csm_from_segre(C(3, 0, 0, 6, -28), 3, 4)
        assert got == C(3, 0, 4, 6, 4)

    def test_csm_from_zero_segre_is_fulton(self):
        assert cc.csm_from_segre(GradedClass.zero(3), 3, 4) == cc.fulton_class(3, 4)


class TestBundleData:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BundleData(-1, S(2, 1, 0, 0))
        with pytest.raises(ValidationError):
            BundleData(1, S(2, 2, 0, 0))

    @pytest.mark.parametrize("total_chern", [C(2, 1, 0, 0), "1", None])
    def test_total_chern_must_be_series(self, total_chern):
        with pytest.raises(ValidationError):
            BundleData(1, total_chern)

    @pytest.mark.parametrize("rank", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_rank_rejected(self, rank):
        with pytest.raises(ValidationError):
            BundleData(rank, S(2, 1, 0, 0))

    def test_dual_alternates_signs(self):
        b = BundleData(2, S(3, 1, 3, 5, 0))
        assert b.dual().total_chern == S(3, 1, -3, 5, 0)
        assert b.dual().dual() == b

    def test_twist_cancels_line_bundle(self):
        b = BundleData(1, S(3, 1, -4, 0, 0))
        assert b.twist_by(LineBundleOnPn(F(4))).total_chern == HSeries.one(3)

    def test_twist_rank_zero(self):
        b = BundleData(0, HSeries.one(3))
        assert b.twist_by(LineBundleOnPn(F(5))).total_chern == HSeries.one(3)

    def test_twist_trivial_rank_two(self):
        b = BundleData(2, HSeries.one(3))
        assert b.twist_by(LineBundleOnPn(F(1))).total_chern == S(3, 1, 2, 1, 0)

    def test_twist_rank_two(self):
        # (1 + 2H)^2 + 3H(1 + 2H) + 5H^2
        b = BundleData(2, S(3, 1, 3, 5, 0))
        assert b.twist_by(LineBundleOnPn(F(2))).total_chern == S(3, 1, 7, 15, 0)

    def test_twist_drops_classes_above_rank(self):
        b = BundleData(1, S(3, 1, -4, 7, 2))
        assert b.twist_by(LineBundleOnPn(F(4))).total_chern == HSeries.one(3)

    def test_json_round_trip(self):
        b = BundleData(2, S(3, 1, F(10, 3), 0, 0))
        assert BundleData.from_json(b.to_json()) == b


class TestSegreFromPolar:
    def test_tangent_developable(self):
        got = cc.segre_from_polar(TD, BundleData.line(3, 4))
        assert got == C(3, 0, 0, 9, -18)

    def test_smooth_conic_vanishes(self):
        got = cc.segre_from_polar(CONIC, BundleData.line(2, 2))
        assert got.is_zero()

    def test_rank_mismatch(self):
        with pytest.raises(ValidationError):
            cc.segre_from_polar(TD, BundleData(2, HSeries.one(3)))

    def test_reduces_to_pluecker_form(self):
        for spec in (TD, CONE3, CONIC):
            n, d = spec.n, spec.d
            reduced = spec.fundamental_class + cc.total_polar_class(spec).dual(n).twist(
                LineBundleOnPn(d), n
            )
            assert cc.segre_from_polar(spec, BundleData.line(n, d)) == reduced

    def test_twisted_cubic_on_quadric_vanishes(self):
        # rank-2 normal bundle of the twisted cubic in P^3: c = 1 + (10/3)H
        # in pushforward units; the divisor class acts by (4/3)H
        normal = BundleData(2, S(3, 1, F(10, 3), 0, 0))
        got = cc.segre_from_polar(TWISTED_CUBIC, normal)
        assert got.is_zero()

    def test_explicit_d_overrides_spec(self):
        same = cc.segre_from_polar(TD, BundleData.line(3, 4), F(4))
        assert same == cc.segre_from_polar(TD, BundleData.line(3, 4))


class TestSolverLhs:
    def test_tangent_developable(self):
        got = cc.solver_lhs(C(3, 0, 4, 9, 6), cc.fulton_class(3, 4), 4)
        assert got == C(3, 0, 0, 9, 18)

    def test_equal_classes_give_zero(self):
        c_f = cc.fulton_class(3, 3)
        assert cc.solver_lhs(c_f, c_f, 3).is_zero()

    def test_cone_degree_three(self):
        got = cc.solver_lhs(cc.mather_from_polar(CONE3), cc.fulton_class(3, 3), 3)
        assert got == C(3, 0, 0, 2, -2)


class TestSolveInvariants:
    def test_tangent_developable(self):
        eu, chi = cc.solve_invariants(C(3, 0, 0, 9, 18), TD_CY, 4)
        assert (eu, chi) == (F(2), F(-1))

    def test_zero_lhs_is_degenerate(self):
        with pytest.raises(DegenerateInvariantsError):
            cc.solve_invariants(GradedClass.zero(3), TD_CY, 4)

    def test_point_support_underdetermined(self):
        with pytest.raises(UnderdeterminedSystemError):
            cc.solve_invariants(C(3, 0, 0, 0, 6), C(3, 0, 0, 0, 2), 4)

    def test_zero_divisor_action_underdetermined(self):
        with pytest.raises(UnderdeterminedSystemError):
            cc.solve_invariants(C(3, 0, 0, 9, 18), TD_CY, 0)

    def test_inconsistent_system(self):
        # a surface Y' gives three equations; corrupt the last one
        c_y = C(3, 0, 1, 2, 3)
        with pytest.raises(InconsistentSystemError):
            cc.solve_invariants(C(3, 0, 1, 3, 6), c_y, 1)

    def test_two_row_systems_are_always_consistent(self):
        # a curve Y' yields only two equations, so any lhs pins (Eu, chi)
        eu, chi = cc.solve_invariants(C(3, 0, 0, 9, 17), TD_CY, 4)
        assert (eu, chi) == (F(23, 12), F(-13, 12))

    def test_forward_backward_loop(self):
        c_y = C(4, 0, 0, 2, 5, -3)
        d = F(7, 2)
        for chi, eu in [(F(-2), F(3)), (F(5, 3), F(1, 2))]:
            u, v = eu - chi, eu - 1
            shifted = GradedClass(4, (F(0),) + c_y.coeffs[:-1])  # H . c_y
            lhs = u * c_y + (v * d) * shifted
            assert cc.solve_invariants(lhs, c_y, d) == (eu, chi)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cc.solve_invariants(GradedClass.zero(2), TD_CY, 4)


class TestExceptionalMultiplicities:
    @pytest.mark.parametrize(
        "chi,eu,dx,dy,m,n",
        [
            (F(0), F(2), 2, 1, F(1), F(2)),
            (F(-1), F(2), 2, 1, F(2), F(3)),
            (F(2), F(0), 3, 1, F(1), F(2)),
        ],
    )
    def test_values(self, chi, eu, dx, dy, m, n):
        assert cc.exceptional_multiplicities(chi, eu, dx, dy) == (m, n)

    def test_ratio_is_inverse_sigma(self):
        chi, eu = F(7, 2), F(-1, 3)
        m, n = cc.exceptional_multiplicities(chi, eu, 4, 1)
        assert n / m == 1 / InvariantData(chi, eu).sigma

    def test_requires_dim_drop(self):
        with pytest.raises(ValidationError):
            cc.exceptional_multiplicities(F(0), F(2), 1, 1)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "3"])
    def test_non_integer_dimensions_rejected(self, dim):
        with pytest.raises(ValidationError):
            cc.exceptional_multiplicities(F(-1), F(2), dim, 0)
        with pytest.raises(ValidationError):
            cc.exceptional_multiplicities(F(-1), F(2), 4, dim)
