"""Property-based tests of the algebraic identities the engine relies on."""

from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from csmcalc import charclass as cc
from csmcalc.charclass import BundleData, HypersurfaceSpec, InvariantData
from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn, tangent_chern
from csmcalc.scenarios import euler_smooth_hypersurface

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
small_dims = st.integers(min_value=0, max_value=5)

# A bounded profile for the paper identities far beyond the small specs:
# ambient dimension 7 to 60, few examples, since each runs whole routes.
large_dims = st.integers(min_value=7, max_value=60)
large_n = settings(max_examples=10, deadline=None)


def _coeff_lists(n):
    return st.lists(rationals, min_size=n + 1, max_size=n + 1)


@st.composite
def h_series(draw, unit=False):
    n = draw(small_dims)
    coeffs = draw(_coeff_lists(n))
    if unit and coeffs[0] == 0:
        coeffs[0] = draw(rationals.filter(lambda q: q != 0))
    return HSeries(n, tuple(coeffs))


@st.composite
def series_pair(draw, unit=False):
    n = draw(small_dims)
    mk = lambda: tuple(draw(_coeff_lists(n)))
    a, b = mk(), mk()
    if unit:
        a = (draw(rationals.filter(lambda q: q != 0)),) + a[1:]
        b = (draw(rationals.filter(lambda q: q != 0)),) + b[1:]
    return HSeries(n, a), HSeries(n, b)


@st.composite
def series_and_class(draw, pairs=1):
    n = draw(small_dims)
    series = tuple(HSeries(n, tuple(draw(_coeff_lists(n)))) for _ in range(pairs))
    cls = GradedClass(n, tuple(draw(_coeff_lists(n))))
    return (*series, cls)


@st.composite
def graded_classes(draw, dims=small_dims):
    n = draw(dims)
    return GradedClass(n, tuple(draw(_coeff_lists(n))))


@st.composite
def class_and_relative_dim(draw):
    cls = draw(graded_classes())
    m = draw(st.integers(min_value=0, max_value=cls.ambient_dim + 3))
    return cls, m


@st.composite
def admissible_invariants(draw):
    chi = draw(rationals.filter(lambda q: q != 1))
    eu = draw(rationals.filter(lambda q: q != chi))
    return InvariantData(chi, eu)


@st.composite
def polar_specs(draw, hypersurface_only=False, degree_consistent=False,
                dims=st.integers(min_value=1, max_value=6)):
    """Random polar data with the right support dimensions.

    degree_consistent forces [P_0] = d[P^{n-1}], the shape carried by an
    honest degree-d hypersurface of P^n.
    """
    n = draw(dims)
    r = n - 1 if hypersurface_only else draw(st.integers(min_value=0, max_value=n - 1))
    d = draw(rationals)
    polar = {
        k: GradedClass.single(n, n - r + k, draw(rationals)) for k in range(r + 1)
    }
    if degree_consistent:
        polar[0] = GradedClass.single(n, 1, d)
    return HypersurfaceSpec(n, r, d, polar)


class TestSeriesAlgebra:
    @given(series_pair())
    def test_mul_commutative(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(series_and_class(pairs=2))
    def test_mul_associative(self, data):
        s, t, _ = data
        u = tangent_chern(s.ambient_dim)
        assert (s * t) * u == s * (t * u)

    @given(h_series(unit=True))
    def test_inverse_is_two_sided(self, a):
        one = HSeries.one(a.ambient_dim)
        assert a * a.inverse() == one
        assert a.inverse() * a == one

    @given(h_series(unit=True), st.integers(min_value=-4, max_value=4))
    def test_int_pow_matches_repeated_mul(self, a, e):
        expected = HSeries.one(a.ambient_dim)
        base = a if e >= 0 else a.inverse()
        for _ in range(abs(e)):
            expected = expected * base
        assert a**e == expected


class TestCapAlgebra:
    @given(series_and_class(pairs=2))
    def test_cap_is_module_action(self, data):
        s, t, a = data
        assert (s * t).cap(a) == s.cap(t.cap(a))

    @given(series_and_class(pairs=1))
    def test_cap_additive(self, data):
        s, a = data
        assert s.cap(a + a) == s.cap(a) + s.cap(a)


class TestDualTwistCalculus:
    @given(class_and_relative_dim())
    def test_dual_involution(self, data):
        a, m = data
        assert a.dual(m).dual(m) == a

    @given(class_and_relative_dim(), rationals, rationals)
    def test_twist_additive_in_degree(self, data, lam1, lam2):
        a, m = data
        once = a.twist(LineBundleOnPn(lam1), m).twist(LineBundleOnPn(lam2), m)
        assert once == a.twist(LineBundleOnPn(lam1 + lam2), m)

    @given(class_and_relative_dim(), rationals)
    def test_dual_twist_interchange(self, data, lam):
        a, m = data
        left = a.twist(LineBundleOnPn(lam), m).dual(m)
        right = a.dual(m).twist(LineBundleOnPn(-lam), m)
        assert left == right

    @given(class_and_relative_dim(), rationals)
    def test_twist_invertible(self, data, lam):
        a, m = data
        assert a.twist(LineBundleOnPn(lam), m).twist(LineBundleOnPn(-lam), m) == a


class TestInterpolationFamily:
    @settings(max_examples=100)
    @given(graded_classes(), rationals)
    def test_endpoints(self, c_fulton, d):
        c_mather = GradedClass(
            c_fulton.ambient_dim, tuple(reversed(c_fulton.coeffs))
        )
        assert cc.interpolated_class(c_fulton, c_mather, d, 0) == c_mather
        assert cc.interpolated_class(c_fulton, c_mather, d, 1) == c_fulton


class TestMatherRouteEquality:
    @settings(max_examples=100)
    @given(polar_specs())
    def test_cap_equals_double_sum(self, spec):
        assert cc.mather_from_polar(spec) == cc.mather_double_sum(spec)


class TestSegreRoundTrip:
    @settings(max_examples=100)
    @given(graded_classes(), rationals, admissible_invariants())
    def test_both_directions(self, cls, d, inv):
        assert cc.segre_yx_to_ym(cc.segre_ym_to_yx(cls, d, inv), d, inv) == cls
        assert cc.segre_ym_to_yx(cc.segre_yx_to_ym(cls, d, inv), d, inv) == cls


class TestPlueckerReduction:
    @settings(max_examples=100)
    @given(polar_specs(hypersurface_only=True))
    def test_line_bundle_normal_collapses(self, spec):
        n, d = spec.n, spec.d
        got = cc.segre_from_polar(spec, BundleData.line(n, d))
        reduced = spec.fundamental_class + cc.total_polar_class(spec).dual(n).twist(
            LineBundleOnPn(d), n
        )
        assert got == reduced

    @settings(max_examples=60)
    @given(polar_specs(hypersurface_only=True, degree_consistent=True))
    def test_segre_feeds_back_to_mather(self, spec):
        # s(Y,X) from polar data reproduces the polar Mather class
        s_yx = cc.segre_from_polar(spec, BundleData.line(spec.n, spec.d))
        assert cc.mather_from_segre(s_yx, spec.n, spec.d) == cc.mather_from_polar(spec)


class TestCsmRouteEquality:
    @settings(max_examples=100)
    @given(polar_specs(hypersurface_only=True, degree_consistent=True), admissible_invariants())
    def test_interpolation_equals_polar_route(self, spec, inv):
        c_fulton = cc.fulton_class(spec.n, spec.d)
        c_mather = cc.mather_from_polar(spec)
        a = cc.csm_from_interpolation(c_fulton, c_mather, spec.d, inv)
        b = cc.csm_from_polar(spec, inv)
        assert a == b

    @settings(max_examples=60)
    @given(polar_specs(hypersurface_only=True, degree_consistent=True), admissible_invariants())
    def test_segre_route_agrees(self, spec, inv):
        s_yx = cc.segre_from_polar(spec, BundleData.line(spec.n, spec.d))
        s_ym = cc.segre_yx_to_ym(s_yx, spec.d, inv)
        c_fulton = cc.fulton_class(spec.n, spec.d)
        c_mather = cc.mather_from_polar(spec)
        assert cc.csm_from_segre(s_ym, spec.n, spec.d) == cc.csm_from_interpolation(
            c_fulton, c_mather, spec.d, inv
        )


def _forward_then_solve(n, data):
    # random Y' class with positive-dimensional support
    k0 = data.draw(st.integers(min_value=1, max_value=n - 1))
    coeffs = [F(0)] * (n + 1)
    coeffs[k0] = data.draw(rationals.filter(lambda q: q != 0))
    for k in range(k0 + 1, n + 1):
        coeffs[k] = data.draw(rationals)
    c_y = GradedClass(n, tuple(coeffs))
    d = data.draw(rationals.filter(lambda q: q != 0))
    inv = data.draw(admissible_invariants())
    u, v = inv.eu - inv.chi, inv.eu - 1
    shifted = GradedClass(n, (F(0),) + c_y.coeffs[:-1])
    lhs = u * c_y + (v * d) * shifted
    assert cc.solve_invariants(lhs, c_y, d) == (inv.eu, inv.chi)


class TestInvariantSolverLoop:
    @settings(max_examples=100)
    @given(
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    def test_forward_then_solve(self, n, data):
        _forward_then_solve(n, data)


class TestSmoothDegeneration:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 8))
    def test_euler_oracle_matches_fulton(self, n, d):
        assert cc.fulton_class(n, d).degree_zero_part() == euler_smooth_hypersurface(n, d)

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 3), (5, 2)])
    def test_smooth_polar_data_gives_fulton(self, n, d):
        smooth = HypersurfaceSpec(
            n,
            n - 1,
            F(d),
            {k: GradedClass.single(n, 1 + k, d * (d - 1) ** k) for k in range(n)},
        )
        c_fulton = cc.fulton_class(n, d)
        assert cc.mather_from_polar(smooth) == c_fulton
        assert cc.segre_from_polar(smooth, BundleData.line(n, d)).is_zero()

    @pytest.mark.parametrize("d", range(1, 8))
    def test_euler_oracle_matches_fulton_up_to_240(self, d):
        # every n in one test per d: 1,680 cases, 0.5 s in all
        for n in range(1, 241):
            expected = euler_smooth_hypersurface(n, d)
            assert cc.fulton_class(n, d).degree_zero_part() == expected, n


def _cone_spec(n, d):
    """X in P^n, the cone over a smooth degree-d hypersurface Y of P^(n-1):
    [P_k] = d(d-1)^k [P^(n-1-k)] for k <= n-2, and [P_(n-1)] = 0."""
    return HypersurfaceSpec(
        n, n - 1, F(d), {k: GradedClass.single(n, 1 + k, d * (d - 1) ** k) for k in range(n - 1)}
    )


def _cone_vertex_eu(n, d):
    """Euler obstruction of the cone at its vertex (Gonzalez-Sprinberg):
    sum over i <= n-2 of (-1)^i * d * c_(n-2-i)(TY), with the Chern
    numbers c_j(TY) of (1+h)^n / (1+dh) expanded on plain integers."""
    c = [sum(comb(n, a) * (-d) ** (j - a) for a in range(j + 1)) for j in range(n - 1)]
    return d * sum((-1) ** i * c[n - 2 - i] for i in range(n - 1))


class TestConesOverSmoothHypersurfaces:
    """Closed-form answers for a singular X at every size.  The vertex is
    the whole singular locus, so the invariants are constant: chi is that
    of the Milnor fibre of a homogeneous isolated singularity,
    1 + (-1)^(n-1) (d-1)^n, and Eu is the cone's Euler obstruction.  Then
    the degree of c_Ma is chi(Y) + Eu and that of c_SM is chi(X) = chi(Y) + 1,
    on every route, including the ones that share total_polar_class."""

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_degrees_on_every_route(self, d):
        for n in [*range(2, 41), 60, 120, 240]:
            spec = _cone_spec(n, d)
            chi_y = euler_smooth_hypersurface(n - 1, d)
            eu = _cone_vertex_eu(n, d)
            inv = InvariantData(1 + (-1) ** (n - 1) * (d - 1) ** n, eu)
            s_yx = cc.segre_from_polar(spec, BundleData.line(n, d))
            c_mather = cc.mather_from_polar(spec)
            mather_routes = (c_mather, cc.mather_double_sum(spec), cc.mather_from_segre(s_yx, n, d))
            csm_routes = (
                cc.csm_from_polar(spec, inv),
                cc.csm_from_interpolation(cc.fulton_class(n, d), c_mather, d, inv),
                cc.csm_from_segre(cc.segre_yx_to_ym(s_yx, d, inv), n, d),
            )
            assert [c.degree_zero_part() for c in mather_routes] == [chi_y + eu] * 3, n
            assert [c.degree_zero_part() for c in csm_routes] == [chi_y + 1] * 3, n

    def test_vertex_eu_of_plane_curve_cones_is_the_multiplicity(self):
        # n = 2: d concurrent lines, whose Euler obstruction at the vertex is d
        assert [_cone_vertex_eu(2, d) for d in (2, 3, 4, 7)] == [2, 3, 4, 7]


def _linear_vertex_cases():
    """(n, k, d): every k >= 1 for n <= 16, d in {2, 3, 4}; three k at n = 40, 120."""
    small = [(n, k, d) for n in range(3, 17) for k in range(1, n - 1) for d in (2, 3, 4)]
    large = [(n, k, d) for n in (40, 120) for k in (1, n // 2, n - 2) for d in (2, 3)]
    return small + large


class TestConesWithALinearVertex:
    """X in P^n, the cone with vertex L = P^k over a smooth degree-d Y in P^m,
    m = n-k-1: [P_j] = d(d-1)^j [P^(n-1-j)] for j <= m-1.  Its singular
    locus L is smooth and the transversal type, the affine cone over Y, is
    constant along it, so the paper's theorem applies: the solver must read
    the geometry's own (Eu, chi) off the engine's (1+X)(c_Ma - c_F), and the
    degrees are chi(Y) + k + 1 for c_SM and chi(Y) + (k+1) Eu for c_Ma.
    From n = 12 on these dense classes take the dense twist on every route."""

    def test_solver_routes_and_degrees(self):
        for n, k, d in _linear_vertex_cases():
            m = n - k - 1
            spec = HypersurfaceSpec(
                n, n - 1, F(d), {j: GradedClass.single(n, 1 + j, d * (d - 1) ** j) for j in range(m)}
            )
            chi, eu = 1 + (-1) ** m * (d - 1) ** (m + 1), _cone_vertex_eu(m + 1, d)
            c_y = GradedClass.from_coeffs(n, [0] * (n - k) + [comb(k + 1, i) for i in range(k + 1)])
            c_fulton, c_mather = cc.fulton_class(n, d), cc.mather_from_polar(spec)
            case = (n, k, d)
            assert cc.solve_invariants(cc.solver_lhs(c_mather, c_fulton, d), c_y, d) == (eu, chi), case
            inv = InvariantData(chi, eu)
            s_yx = cc.segre_from_polar(spec, BundleData.line(n, d))
            assert c_mather == cc.mather_double_sum(spec) == cc.mather_from_segre(s_yx, n, d), case
            c_sm = cc.csm_from_polar(spec, inv)
            assert c_sm == cc.csm_from_interpolation(c_fulton, c_mather, d, inv), case
            assert c_sm == cc.csm_from_segre(cc.segre_yx_to_ym(s_yx, d, inv), n, d), case
            chi_y = euler_smooth_hypersurface(m, d)
            assert c_sm.degree_zero_part() == chi_y + k + 1, case
            assert c_mather.degree_zero_part() == chi_y + (k + 1) * eu, case


class TestIdentitiesAtLargeN:
    """The paper identities on P^7 .. P^60, under the bounded profile."""

    @large_n
    @given(polar_specs(dims=large_dims))
    def test_mather_cap_equals_double_sum(self, spec):
        assert cc.mather_from_polar(spec) == cc.mather_double_sum(spec)

    @large_n
    @given(
        polar_specs(hypersurface_only=True, degree_consistent=True, dims=large_dims),
        admissible_invariants(),
    )
    def test_three_csm_routes_agree(self, spec, inv):
        n, d = spec.n, spec.d
        c_mather = cc.mather_from_polar(spec)
        c_sm = cc.csm_from_interpolation(cc.fulton_class(n, d), c_mather, d, inv)
        assert c_sm == cc.csm_from_polar(spec, inv)
        s_yx = cc.segre_from_polar(spec, BundleData.line(n, d))
        assert c_sm == cc.csm_from_segre(cc.segre_yx_to_ym(s_yx, d, inv), n, d)

    @large_n
    @given(graded_classes(dims=large_dims), rationals, admissible_invariants())
    def test_segre_round_trip(self, cls, d, inv):
        assert cc.segre_yx_to_ym(cc.segre_ym_to_yx(cls, d, inv), d, inv) == cls
        assert cc.segre_ym_to_yx(cc.segre_yx_to_ym(cls, d, inv), d, inv) == cls

    @large_n
    @given(polar_specs(hypersurface_only=True, degree_consistent=True, dims=large_dims))
    def test_interpolation_endpoints(self, spec):
        c_fulton = cc.fulton_class(spec.n, spec.d)
        c_mather = cc.mather_from_polar(spec)
        assert cc.interpolated_class(c_fulton, c_mather, spec.d, 0) == c_mather
        assert cc.interpolated_class(c_fulton, c_mather, spec.d, 1) == c_fulton

    @large_n
    @given(large_dims, st.data())
    def test_planted_invariants_recovered(self, n, data):
        _forward_then_solve(n, data)

    @pytest.mark.parametrize("n", [7, 16, 33, 64, 120, 240])
    @pytest.mark.parametrize("d", [F(1), F(2), F(5), F(-3, 2)])
    def test_euler_characteristic(self, n, d):
        # the oracle takes geometric degrees d >= 1; its closed form is a
        # polynomial identity in d, so a rational d is checked against it
        if d.denominator == 1 and d >= 1:
            expected = euler_smooth_hypersurface(n, int(d))
        else:
            expected = ((1 - d) ** (n + 1) - 1) / d + n + 1
        assert cc.fulton_class(n, d).degree_zero_part() == expected


# The integer-form kernels against plain Fraction loops: n from 0 to 60,
# denominators mixed up to 97, so that common denominators, their
# rescalings and the final gcd are all exercised.
form_dims = st.integers(min_value=0, max_value=60)
mixed_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=97)
non_integral = mixed_rationals.filter(lambda x: x.denominator != 1)


@st.composite
def mixed_vectors(draw, count=1):
    n = draw(form_dims)
    vectors = [tuple(draw(st.lists(mixed_rationals, min_size=n + 1, max_size=n + 1)))
               for _ in range(count)]
    return (n, *vectors)


def _fraction_chern(lam, n, power):
    out = [F(1)]
    for k in range(1, n + 1):
        out.append(out[-1] * (power - k + 1) * lam / k)
    return tuple(out)


def _fraction_cap(series, coeffs):
    n = len(coeffs) - 1
    return tuple(sum((series[i] * coeffs[k - i] for i in range(k + 1)), F(0))
                 for k in range(n + 1))


class TestIntegerFormMatchesFractionLoops:
    @large_n
    @given(mixed_vectors(), non_integral)
    def test_div_linear(self, vectors, lam):
        n, a = vectors
        out, prev = [], F(0)
        for x in a:
            prev = x - lam * prev
            out.append(prev)
        got = GradedClass(n, a).div_linear(lam)
        assert got.coeffs == tuple(out) and got == GradedClass(n, tuple(out))

    @large_n
    @given(form_dims, non_integral, st.data())
    def test_chern(self, n, lam, data):
        power = data.draw(st.integers(min_value=-n - 2, max_value=n + 2))
        assert LineBundleOnPn(lam).chern(n, power).coeffs == _fraction_chern(lam, n, power)

    @large_n
    @given(mixed_vectors(), non_integral, st.data())
    def test_twist(self, vectors, lam, data):
        n, a = vectors
        m = data.draw(st.integers(min_value=0, max_value=n + 3))
        out = [F(0)] * (n + 1)
        for k, x in enumerate(a):
            for i, s in enumerate(_fraction_chern(lam, n - k, n - k - m)):
                out[k + i] += x * s
        got = GradedClass(n, a).twist(LineBundleOnPn(lam), m)
        assert got.coeffs == tuple(out) and got == GradedClass(n, tuple(out))

    @large_n
    @given(mixed_vectors(), mixed_rationals)
    def test_scale(self, vectors, s):
        n, a = vectors
        assert (GradedClass(n, a) * s).coeffs == tuple(s * x for x in a)
        assert (s * HSeries(n, a)).coeffs == tuple(s * x for x in a)

    @large_n
    @given(mixed_vectors(count=2))
    def test_add_and_sub(self, vectors):
        n, a, b = vectors
        for cls in (GradedClass, HSeries):
            x, y = cls(n, a), cls(n, b)
            assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
            assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
            assert (-x).coeffs == tuple(-p for p in a)

    @large_n
    @given(mixed_vectors(count=2))
    def test_cap_and_product(self, vectors):
        n, s, a = vectors
        expected = _fraction_cap(s, a)
        assert HSeries(n, s).cap(GradedClass(n, a)).coeffs == expected
        assert (HSeries(n, s) * HSeries(n, a)).coeffs == expected
