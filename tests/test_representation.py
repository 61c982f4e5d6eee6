"""The one stored form of a coefficient vector.

HSeries and GradedClass keep integer numerators over one positive
denominator in lowest terms; kernels read and build that form, and the
public ``coeffs`` tuple of reduced Fractions is a view built on first
read.  These tests pin the form: a kernel result equals, hashes and keys
like its twin built from Fractions, prints as before, stays immutable and
writes the same wire strings as ``format_rational``; and a whole route
chain from wire JSON to wire JSON never builds the Fraction view.
"""

import json
import math
from fractions import Fraction as F

import pytest

from csmcalc import charclass as cc
from csmcalc import chow
from csmcalc.charclass import BundleData, HypersurfaceSpec, InvariantData
from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn, format_rational

A = GradedClass(5, (F(0), F(-7), F(12), F(-10**40 + 7, 3**5), F(5, 6), F(-3, 35)))
B = GradedClass(5, (F(1, 4), F(0), F(-2, 9), F(3), F(0), F(11, 7)))
S = HSeries(5, (F(1), F(-5, 3), F(0), F(7, 2), F(-1), F(2, 5)))
T = HSeries(5, (F(2, 7), F(0), F(9), F(0), F(-4, 15), F(1, 6)))
NORMAL = BundleData(2, HSeries(5, (F(1), F(5, 2), F(-6), F(0), F(1, 3), F(0))))

KERNELS = {
    "add": lambda: A + B,
    "sub": lambda: A - B,
    "neg": lambda: -A,
    "scale": lambda: A * F(-10, 21),
    "rscale": lambda: F(6, 7) * A,
    "scale_by_zero": lambda: A * 0,
    "series_add": lambda: S + T,
    "series_sub": lambda: S - T,
    "series_neg": lambda: -S,
    "series_scale": lambda: S * F(3, 4),
    "mul": lambda: S * T,
    "pow": lambda: T ** 3,
    "cap": lambda: S.cap(A),
    "dual": lambda: A.dual(),
    "dual_relative": lambda: A.dual(2),
    "twist": lambda: A.twist(LineBundleOnPn(F(-5, 3))),
    "twist_relative": lambda: A.twist(LineBundleOnPn(F(7, 2)), 3),
    "mul_linear": lambda: A.mul_linear(F(1, 6), F(-4, 9)),
    "div_linear": lambda: A.div_linear(F(-5, 3)),
    "chern": lambda: LineBundleOnPn(F(7, 4)).chern(5, -3),
    "tangent_chern": lambda: chow.tangent_chern(5),
    "bundle_dual": lambda: NORMAL.dual().total_chern,
    "twist_by": lambda: NORMAL.twist_by(LineBundleOnPn(F(-2, 3))).total_chern,
    "fulton": lambda: cc.fulton_class(5, F(9, 4)),
}


def _twin(cls):
    """The same values, built from Fractions by the public constructor."""
    return type(cls)(cls.ambient_dim, tuple(F(c.numerator, c.denominator) for c in cls.coeffs))


@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelResults:
    def test_stored_form_is_canonical(self, kernel):
        got = KERNELS[kernel]()
        assert type(got._nums) is tuple and all(type(x) is int for x in got._nums)
        assert got._den > 0 and math.gcd(got._den, *got._nums) == 1
        assert "coeffs" not in vars(got)  # not built until read

    def test_equals_hashes_and_keys_like_fraction_twin(self, kernel):
        got = KERNELS[kernel]()
        twin = _twin(got)
        assert got == twin and twin == got
        assert hash(got) == hash(twin)
        assert {got: kernel}[twin] == kernel
        assert {twin: kernel}[KERNELS[kernel]()] == kernel

    def test_coeffs_are_reduced_fractions(self, kernel):
        got = KERNELS[kernel]()
        coeffs = got.coeffs
        assert len(coeffs) == got.ambient_dim + 1
        for c in coeffs:
            assert type(c) is F
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        assert got.coeffs is coeffs  # cached

    def test_repr_unchanged(self, kernel):
        got = KERNELS[kernel]()
        expected = f"{type(got).__name__}(ambient_dim={got.ambient_dim}, coeffs={got.coeffs!r})"
        assert repr(got) == expected == repr(_twin(got))

    def test_fields_cannot_be_assigned_or_deleted(self, kernel):
        got = KERNELS[kernel]()
        before = repr(got)
        for name in ("coeffs", "_nums", "_den", "ambient_dim"):
            with pytest.raises(AttributeError):
                setattr(got, name, (1,))
            with pytest.raises(AttributeError):
                delattr(got, name)
        assert repr(got) == before

    def test_wire_form_matches_format_rational(self, kernel):
        got = KERNELS[kernel]()
        wire = got.to_json()[got._wire_key]
        assert wire == [format_rational(c) for c in got.coeffs]
        assert type(got).from_json(got.to_json()) == got


def test_wire_entries_zero_negative_integer_and_chunked():
    big = F(-(10**4400) + 7, 3**5)  # past the int-string digit limit: chunked on the wire
    cls = GradedClass(5, (F(0), F(-7), F(12), big, F(5, 6), F(-3, 35)))
    for got in (cls, cls * 3, -cls, cls + B, cls.dual(), cls.mul_linear(1, 0), S.cap(cls),
                cls.twist(LineBundleOnPn(F(-5, 3))), cls.div_linear(F(2, 7))):
        assert got.to_json()["coeffs_by_codim"] == [format_rational(c) for c in got.coeffs]
    wire = cls.to_json()["coeffs_by_codim"]
    assert wire[:3] == ["0", "-7", "12"] and wire[4:] == ["5/6", "-3/35"]
    assert wire[3] == format_rational(big) and len(wire[3]) > 4400


def test_constructor_keeps_its_coerced_tuple():
    got = GradedClass(2, (1, "2/4", F(0)))
    assert vars(got)["coeffs"] == (F(1), F(1, 2), F(0))
    assert got._nums == (2, 1, 0) and got._den == 2


def test_equal_values_have_one_form_whatever_the_route():
    # (1/2)(2x) and x, built by different kernels, store the same integers
    x = GradedClass(2, (F(1, 3), F(0), F(-5, 6)))
    for same in ((x * 2) * F(1, 2), (x + x) - x, -(-x), x.dual().dual(), x.mul_linear(1, 0)):
        assert (same._nums, same._den) == (x._nums, x._den) == ((2, 0, -5), 6)
    assert GradedClass.zero(3)._nums == (0, 0, 0, 0) and (x - x)._den == 1


def test_same_numerators_over_other_denominator_differ():
    whole, half = GradedClass(1, (1, 2)), GradedClass(1, (F(1, 2), 1))
    assert whole._nums == half._nums and whole != half
    assert HSeries(1, (1, 2)) != HSeries(1, (F(1, 2), 1))


# A dense hypersurface of P^12 with Segre data, on the wire: every polar
# class nonzero, mixed denominators, and [P_0] = d[P^11].
N, D = 12, F(7, 3)


def _single(codim, value, key="coeffs_by_codim"):
    coeffs = ["0"] * (N + 1)
    coeffs[codim] = format_rational(value)
    return {"ambient_dim": N, key: coeffs}


def _dense(seed, key="coeffs_by_codim"):
    return {"ambient_dim": N,
            key: [format_rational(F((-1) ** k * (k * seed % 11 + 1), k % 4 + 1)) for k in range(N + 1)]}


WIRE = {
    "spec": {
        "n": N, "r": N - 1, "d": format_rational(D),
        "polar": {str(k): _single(1 + k, D if k == 0 else F((-1) ** k * (k % 5 + 2), k % 3 + 1))
                  for k in range(N)},
    },
    "tangent": {"ambient_dim": N, "coeffs_by_degree": ["1"] + [str(k) for k in range(1, N + 1)]},
    "invariants": {"chi": "-3/2", "eu": "5"},
    "s_yx": _dense(3),
    "s_ym": _dense(5),
    "c_y": _dense(7),
    "curve": {
        "n": N, "r": 3, "d": "4/5",
        "polar": {str(k): _single(N - 3 + k, F(k + 3, 2 * k + 1)) for k in range(4)},
    },
    "normal": {"rank": N - 3, "total_chern": _dense(2, "coeffs_by_degree")},
}


def test_routes_from_wire_to_wire_never_read_the_fraction_view(monkeypatch):
    def forbidden(self):
        raise AssertionError("a kernel or route read the Fraction view of a coefficient vector")

    def keep(self, coeffs):  # the constructor still keeps the tuple it coerced
        vars(self)["coeffs"] = coeffs

    monkeypatch.setattr(chow._CoeffVector, "coeffs", property(forbidden, keep))
    data = json.loads(json.dumps(WIRE))
    spec = HypersurfaceSpec.from_json(data["spec"])
    spec_tm = HypersurfaceSpec.from_json({**data["spec"], "ambient_tangent": data["tangent"]})
    curve = HypersurfaceSpec.from_json(data["curve"])
    normal = BundleData.from_json(data["normal"])
    inv = InvariantData.from_json(data["invariants"])
    s_yx, s_ym, c_y = (GradedClass.from_json(data[k]) for k in ("s_yx", "s_ym", "c_y"))
    tangent = HSeries.from_json(data["tangent"])

    c_f = cc.fulton_class(N, D)
    c_ma = cc.mather_from_polar(spec)
    s_yx_polar = cc.segre_from_polar(spec, BundleData.line(N, D))
    s_ym_polar = cc.segre_yx_to_ym(s_yx_polar, D, inv)
    results = {
        "fulton": c_f,
        "total_polar": cc.total_polar_class(spec),
        "mather_polar": c_ma,
        "mather_double_sum": cc.mather_double_sum(spec),
        "interpolated": cc.interpolated_class(c_f, c_ma, D, F(2, 9)),
        "csm_interpolation": cc.csm_from_interpolation(c_f, c_ma, D, inv),
        "csm_polar": cc.csm_from_polar(spec, inv),
        "csm_polar_tangent": cc.csm_from_polar(spec_tm, inv),
        "csm_segre": cc.csm_from_segre(s_ym_polar, N, D),
        "mather_segre": cc.mather_from_segre(s_yx_polar, N, D),
        "segre_polar": s_yx_polar,
        "segre_round_trip": cc.segre_ym_to_yx(s_ym_polar, D, inv),
        "segre_polar_curve": cc.segre_from_polar(curve, normal),
        "yx_to_ym": cc.segre_yx_to_ym(s_yx, D, inv),
        "ym_to_yx": cc.segre_ym_to_yx(s_ym, D, inv),
        "csm_wire_segre": cc.csm_from_segre(s_ym, N, D),
        "mather_wire_segre": cc.mather_from_segre(s_yx, N, D),
        "solver_lhs": cc.solver_lhs(c_ma, c_f, D),
        "mather_curve": cc.mather_from_polar(curve),
        "double_sum_curve": cc.mather_double_sum(curve),
        "tangent_inverse": tangent.inverse(),
        "tangent_pow": tangent ** -3,
        "normal_inverse": normal.total_chern.inverse(),
    }
    planted = c_y.mul_linear(F(5) - F(-3, 2), (F(5) - 1) * D).to_json()
    solved = cc.solve_invariants(GradedClass.from_json(planted), c_y, D)
    wire = {name: cls.to_json() for name, cls in results.items()}
    for name, cls in results.items():
        assert "coeffs" not in vars(cls), name
        assert wire[name]["ambient_dim"] == N
    assert solved == (F(5), F(-3, 2))
    assert spec.to_json() == WIRE["spec"]
    assert wire["mather_polar"] == wire["mather_double_sum"] == wire["mather_segre"]
    assert wire["csm_interpolation"] == wire["csm_polar"] == wire["csm_segre"]
    assert wire["segre_round_trip"] == wire["segre_polar"]
    assert wire["mather_curve"] == wire["double_sum_curve"]
    assert tangent * results["tangent_inverse"] == HSeries.one(N)
    assert results["tangent_pow"] * tangent * (tangent * tangent) == HSeries.one(N)


@pytest.mark.parametrize("n", (24, 120))
@pytest.mark.parametrize("degree", (F(1), F(-7, 3)))
@pytest.mark.parametrize("power", ("n+1", 5))
def test_inverse_of_a_chern_power_is_the_opposite_power(n, degree, power):
    e = n + 1 if power == "n+1" else power
    bundle = LineBundleOnPn(degree)
    assert bundle.chern(n, e).inverse() == bundle.chern(n, -e)


@pytest.mark.parametrize("n", (4, 5))  # A_0^(n+1) < 0 at even n only
def test_inverse_with_a_negative_constant_term(n):
    series = LineBundleOnPn(F(5, 2)).chern(n, 3) * F(-3, 2)
    got = series.inverse()
    assert got == LineBundleOnPn(F(5, 2)).chern(n, -3) * F(-2, 3)
    assert got._den > 0 and math.gcd(got._den, *got._nums) == 1
    assert series * got == HSeries.one(n) == got * series


def test_polar_literals_need_not_be_in_lowest_terms():
    def spec(*literals):
        polar = {str(k): _single(1 + k, F(1)) for k in range(len(literals))}
        for k, value in enumerate(literals):  # as written, unreduced
            polar[str(k)]["coeffs_by_codim"][1 + k] = value
        return HypersurfaceSpec.from_json({"n": N, "r": N - 1, "d": "7/2", "polar": polar})

    loose = spec("14/4", "6/4", "-10/15", "0/9", "16/2")
    tight = spec("7/2", "3/2", "-2/3", "0", "8")
    assert loose == tight and hash(loose) == hash(tight)
    assert (loose._signed, loose._den) == (tight._signed, tight._den)
    assert loose.to_json() == tight.to_json()
    inv, normal = InvariantData(F(-3, 2), 5), BundleData.line(N, F(7, 2))

    def routes(s):
        c_f, c_ma = cc.fulton_class(N, s.d), cc.mather_from_polar(s)
        classes = (
            cc.total_polar_class(s), c_ma, cc.mather_double_sum(s), cc.csm_from_polar(s, inv),
            cc.segre_from_polar(s, normal), cc.csm_from_interpolation(c_f, c_ma, s.d, inv),
            cc.interpolated_class(c_f, c_ma, s.d, F(2, 9)),
        )
        return [c.to_json() for c in classes]

    assert routes(loose) == routes(tight)
