"""Named worked examples with independently known answers.

Each scenario runs the engine on fixed inputs and compares every
computed class against an expected value carrying a provenance tag:

* ``published`` -- the value appears in the classical literature for
  this variety;
* ``derived``   -- obtained by an independent derivation (hand
  expansion, a closed-form oracle, or a second engine route);
* ``trivial``   -- immediate from definitions.

A mismatch never raises; it flips the entry (and the report) to fail and
surfaces both exact values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib.resources import files

from . import charclass
from .charclass import BundleData, HypersurfaceSpec, InvariantData
from .chow import (
    GradedClass, _Value, _check_ambient_dim, _check_int, _encode, _render, format_rational,
)
from .errors import ValidationError

PROVENANCES = ("published", "derived", "trivial")


class ReportEntry(_Value):
    _fields = ("name", "computed", "expected", "provenance", "passed")

    def __init__(self, name, computed, expected, provenance, passed):
        self._init(name, computed, expected, provenance, passed)


class ScenarioReport(_Value):
    """Outcome of one scenario: inputs echoed, one pass/fail entry per check.
    Unlike the other values it is mutable, and so not hashable."""

    _fields = ("name", "inputs", "entries")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name, inputs, entries):
        self._init(name, inputs, entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def check(self, name, computed, expected, provenance):
        if provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance tag {provenance!r}")
        self.entries.append(
            ReportEntry(name, computed, expected, provenance, computed == expected)
        )

    def to_json(self) -> dict:
        entries = [
            {"name": e.name, "status": "pass" if e.passed else "fail",
             "provenance": e.provenance, "computed": e.computed, "expected": e.expected}
            for e in self.entries
        ]
        status = "pass" if self.passed else "fail"
        report = {"name": self.name, "status": status, "inputs": self.inputs, "entries": entries}
        return _encode(report)

    def render_table(self) -> str:
        lines = [f"scenario {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        width = max((len(e.name) for e in self.entries), default=0)
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            line = f"  [{status}] {e.name:<{width}}  [{e.provenance}]  {_render(e.computed)}"
            if not e.passed:
                line += f"  (expected {_render(e.expected)})"
            lines.append(line)
        return "\n".join(lines)


def fixture_json(name: str) -> dict:
    """Load one of the shipped JSON fixture files by bare name."""
    return json.loads(files("csmcalc").joinpath("fixtures", name).read_text())


def tangent_developable() -> ScenarioReport:
    """The degree-4 tangent developable surface of the twisted cubic in P^3.

    Its singular locus is the twisted cubic itself, polar classes
    [P_0] = 4[P^2], [P_1] = 3[P^1], [P_2] = 0, and c(TY') cap [Y']
    pushes forward to 3[P^1] + 2[P^0].  All expected values below are
    classical for this surface.
    """
    spec = HypersurfaceSpec.from_json(fixture_json("tangent_developable_spec.json"))
    c_y = GradedClass.from_json(fixture_json("tangent_developable_cy.json"))
    n, d = spec.n, spec.d
    report = ScenarioReport(
        "tangent-developable",
        {"spec": spec.to_json(), "c_y": c_y.to_json()},
        [],
    )

    total = charclass.total_polar_class(spec)
    report.check("total_polar", total, GradedClass.from_coeffs(n, [0, 4, -7, 10]), "published")

    c_mather = charclass.mather_from_polar(spec)
    report.check("c_mather", c_mather, GradedClass.from_coeffs(n, [0, 4, 9, 6]), "derived")
    report.check(
        "c_mather_double_sum", charclass.mather_double_sum(spec), c_mather, "derived"
    )

    c_fulton = charclass.fulton_class(n, d)
    report.check("c_fulton", c_fulton, GradedClass.from_coeffs(n, [0, 4, 0, 24]), "derived")

    lhs = charclass.solver_lhs(c_mather, c_fulton, d)
    report.check("solver_lhs", lhs, GradedClass.from_coeffs(n, [0, 0, 9, 18]), "published")

    eu, chi = charclass.solve_invariants(lhs, c_y, d)
    report.check("eu", eu, Fraction(2), "published")
    report.check("chi", chi, Fraction(-1), "published")

    inv = InvariantData(chi, eu)
    report.check("rho", inv.rho, Fraction(1, 3), "published")

    csm_expected = GradedClass.from_coeffs(n, [0, 4, 6, 4])
    report.check(
        "csm_interpolation",
        charclass.csm_from_interpolation(c_fulton, c_mather, d, inv),
        csm_expected,
        "published",
    )
    report.check(
        "csm_polar_route", charclass.csm_from_polar(spec, inv), csm_expected, "published"
    )

    s_yx = charclass.segre_from_polar(spec, BundleData.line(n, d))
    report.check("s_YX", s_yx, GradedClass.from_coeffs(n, [0, 0, 9, -18]), "derived")
    s_ym = charclass.segre_yx_to_ym(s_yx, d, inv)
    report.check("s_YM", s_ym, GradedClass.from_coeffs(n, [0, 0, 6, -28]), "derived")
    report.check(
        "csm_segre_route", charclass.csm_from_segre(s_ym, n, d), csm_expected, "published"
    )
    return report


def _interpolate_quadratic(y0, y1, yh):
    # quadratic through (0, y0), (1, y1), (1/2, yh)
    a2 = 2 * y0 + 2 * y1 - 4 * yh
    a1 = y1 - y0 - a2
    return (y0, a1, a2)


def cone_over_nodal_curve(d: int = 3) -> ScenarioReport:
    """The cone in P^3 over a degree-d plane curve with exactly one node.

    The invariants (chi, Eu) jump at the vertex, so no single
    interpolation weight reproduces the CSM class; the weight 1/2 coming
    from the generic point of the singular line is still correct in
    codimension one of X.  Polar inputs: [P_0] = d[P^2],
    [P_1] = (d^2-d-2)[P^1], [P_2] = 0.
    """
    _check_int(d, "the nodal-curve cone's degree d", low=3)
    n, r = 3, 2
    spec = HypersurfaceSpec(
        n,
        r,
        Fraction(d),
        {
            0: GradedClass.single(n, 1, d),
            1: GradedClass.single(n, 2, d * d - d - 2),
        },
    )
    report = ScenarioReport("cone-over-nodal-curve", {"spec": spec.to_json()}, [])

    c_fulton = charclass.fulton_class(n, spec.d)
    c_mather = charclass.mather_from_polar(spec)

    def engine(alpha) -> GradedClass:
        return charclass.interpolated_class(c_fulton, c_mather, spec.d, alpha)

    half = Fraction(1, 2)
    at0, at1, athalf = engine(0), engine(1), engine(half)
    engine_poly = [
        _interpolate_quadratic(at0.coeffs[k], at1.coeffs[k], athalf.coeffs[k])
        for k in range(n + 1)
    ]

    expected_poly = {
        1: (Fraction(d), Fraction(0), Fraction(0)),
        2: (Fraction(2 + 4 * d - d * d), Fraction(-2), Fraction(0)),
        3: (
            Fraction(4 + 5 * d - 2 * d * d),
            Fraction(-4 - d - 2 * d * d + d**3),
            Fraction(2 * d),
        ),
    }
    for codim, expected in expected_poly.items():
        report.check(
            f"alpha_poly_codim_{codim}", engine_poly[codim], expected, "published"
        )

    def reconstructed(alpha) -> GradedClass:  # the class the quadratics give at alpha
        return GradedClass(n, [sum(c * alpha**i for i, c in enumerate(p)) for p in engine_poly])

    # the reconstructed quadratics are exact: a fourth weight agrees
    extra = Fraction(1, 3)
    report.check(
        "engine_matches_poly_at_extra_alpha", engine(extra), reconstructed(extra), "derived"
    )

    sweep = [Fraction(0), Fraction(1), half, Fraction(-1), Fraction(2), Fraction(3, 7)]
    mismatches = [format_rational(a) for a in sweep if engine(a) != reconstructed(a)]
    report.check("alpha_sweep_consistent", {"mismatched_alphas": mismatches},
                 {"mismatched_alphas": []}, "derived")

    csm = GradedClass.from_coeffs(
        n, [0, d, 1 + 4 * d - d * d, 2 + 3 * d - d * d]
    )
    report.check(
        "csm_codim2_matches_at_alpha_half",
        athalf.coeffs[2],
        csm.coeffs[2],
        "published",
    )

    # constructive no-single-alpha check: the codim-2 equation is linear
    # in alpha with slope -2, so alpha = 1/2 is the only candidate; the
    # codim-3 coefficients then disagree.
    slope = engine_poly[2][1]
    candidate = (csm.coeffs[2] - engine_poly[2][0]) / slope
    report.check("unique_candidate_alpha", candidate, half, "derived")
    codim3 = {"codim3_at_candidate": athalf.coeffs[3], "codim3_csm": csm.coeffs[3]}
    report.check(
        "no_alpha_matches_csm",
        {**codim3, "alpha_exists": athalf.coeffs[3] == csm.coeffs[3]},
        {**codim3, "alpha_exists": False},
        "published",
    )
    return report


def euler_smooth_hypersurface(n: int, d: int) -> Fraction:
    """Closed-form Euler characteristic of a smooth degree-d hypersurface
    of P^n:  chi = ((1-d)^{n+1} - 1)/d + n + 1.  Independent of the class
    engine; used as an oracle."""
    _check_ambient_dim(n, "n", low=1)
    _check_int(d, "d", low=1)
    return Fraction((1 - d) ** (n + 1) - 1, d) + n + 1


def smooth_hypersurface(n: int = 3, d: int = 4) -> ScenarioReport:
    """Smooth degree-d hypersurface of P^n: empty singularity subscheme.

    With zero Segre input the Fulton, Mather and CSM routes must return
    the same class, whose degree-zero part is the Euler characteristic.
    """
    chi = euler_smooth_hypersurface(n, d)  # rejects all but integers n, d >= 1
    report = ScenarioReport("smooth-hypersurface", {"n": n, "d": d}, [])
    c_fulton = charclass.fulton_class(n, d)
    zero = GradedClass.zero(n)
    report.check(
        "mather_equals_fulton_zero_segre",
        charclass.mather_from_segre(zero, n, d),
        c_fulton,
        "trivial",
    )
    report.check(
        "csm_equals_fulton_zero_segre",
        charclass.csm_from_segre(zero, n, d),
        c_fulton,
        "trivial",
    )
    report.check(
        "euler_degree_zero",
        c_fulton.degree_zero_part(),
        chi,
        "derived",
    )
    return report


SCENARIOS = {
    "tangent-developable": (tangent_developable, ()),
    "cone-over-nodal-curve": (cone_over_nodal_curve, ("d",)),
    "smooth-hypersurface": (smooth_hypersurface, ("n", "d")),
}


def run_scenario(name: str, **params) -> ScenarioReport:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValidationError(f"unknown scenario {name!r} (known: {known})")
    func, allowed = SCENARIOS[name]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValidationError(
            f"scenario {name!r} does not take parameter(s): {', '.join(sorted(unknown))}"
        )
    return func(**params)
