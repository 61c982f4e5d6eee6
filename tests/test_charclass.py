"""The characteristic-class formula stack on worked inputs.

Expected values were frozen from hand expansions cross-checked with an
independent symbolic-series oracle; the classical tangent-developable
and nodal-cone inputs carry published answers.
"""

import copy
import json
import pickle
import random
import sys
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from csmcalc import charclass as cc
from csmcalc import chow, cli, scenarios
from csmcalc.charclass import BundleData, HypersurfaceSpec, InvariantData
from csmcalc.chow import GradedClass, HSeries, LineBundleOnPn, parse_rational, tangent_chern
from csmcalc.errors import (
    DegenerateInvariantsError,
    DimensionMismatchError,
    InconsistentSystemError,
    InputParseError,
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

    @pytest.mark.parametrize("n", ["3", 2.0, True], ids=["str", "float", "bool"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValidationError, match="must be an integer"):
            cc.fulton_class(n, 2)

    @pytest.mark.usefixtures("no_binomials")
    @pytest.mark.parametrize("n", [sys.maxsize, 10**400], ids=["maxsize", "10^400"])
    def test_ambient_dimension_past_maxsize_refused(self, n):
        with pytest.raises(ValidationError, match=f"^n must be below {sys.maxsize}$"):
            cc.fulton_class(n, 2)


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

    def test_wrong_support_message(self):
        message = r"^polar class 1 must be supported in dimension 1$"
        with pytest.raises(ValidationError, match=message):
            HypersurfaceSpec(3, 2, F(4), {1: GradedClass.single(3, 1, 3)})
        with pytest.raises(ValidationError, match=message):
            HypersurfaceSpec.from_json({"n": 3, "r": 2, "d": "4", "polar": {
                "1": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "3", "1/2"]}}})

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

    @pytest.mark.parametrize("polar", [None, 5], ids=["None", "int"])
    def test_non_iterable_polar_rejected(self, polar):
        with pytest.raises(ValidationError, match="polar must be a dict or a sequence"):
            HypersurfaceSpec(3, 2, F(4), polar)

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

    def test_json_with_ambient_tangent_is_pinned(self):
        # the zero [P_1] is left out; d and the tangent series keep their wire form
        spec = HypersurfaceSpec(
            3, 2, F(4, 3), {0: C(3, 0, 3, 0, 0), 2: C(3, 0, 0, 0, F(-4, 7))},
            S(3, 1, 2, F(5, 2), 0),
        )
        assert json.dumps(spec.to_json()) == (
            '{"n": 3, "r": 2, "d": "4/3", "polar": {'
            '"0": {"ambient_dim": 3, "coeffs_by_codim": ["0", "3", "0", "0"]}, '
            '"2": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "0", "-4/7"]}}, '
            '"ambient_tangent": {"ambient_dim": 3, "coeffs_by_degree": ["1", "2", "5/2", "0"]}}'
        )
        assert HypersurfaceSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("key", ["01", "\u0661", "001"])
    def test_repeated_polar_index_rejected(self, key):
        # int() reads each of these keys as 1, which "1" already names
        data = TD.to_json()
        data["polar"][key] = C(3, 0, 0, 5, 0).to_json()
        with pytest.raises(InputParseError, match="repeats polar index 1"):
            HypersurfaceSpec.from_json(data)


def _per_class_spec(data):
    """A spec read from wire JSON through one GradedClass per polar class."""
    polar = {int(k): GradedClass.from_json(v) for k, v in data["polar"].items()}
    return HypersurfaceSpec(data["n"], data["r"], parse_rational(data["d"]), polar)


def _read_outcome(read, data):
    try:
        spec = read(data)
    except (InputParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return spec, spec.polar, spec.to_json()


def _wire_polar(n, **entries):
    return {"ambient_dim": n, "coeffs_by_codim": [entries.get(f"c{i}", "0") for i in range(n + 1)]}


def _wire_specs():
    p = _wire_polar
    cases = {
        "dense": {str(k): p(5, **{f"c{1 + k}": f"{(-1) ** k * (k + 2)}/{k % 3 + 1}"})
                  for k in range(5)},
        "sparse": {"0": p(5, c1="3"), "1": p(5, c2="-7/4")},
        "spellings": {"0": p(5, c0="-0", c1="6/4", c3="0/5", c5="00"),
                      "2": p(5, c2=0, c3=" 9 ", c4="+0")},
        "off_support": {"0": p(5, c1="3", c4="2")},
        "bad_after_off_support": {"0": p(5, c0="1", c1="3"), "1": p(5, c5="x")},
        "bad_in_same_class": {"0": p(5, c0="1", c1="3", c4="1/0")},
        "wrong_dim": {"0": p(5, c1="3"), "1": p(4, c2="2")},
        "too_short": {"0": {"ambient_dim": 5, "coeffs_by_codim": ["0", "3"]}},
        "beyond_r": {"0": p(5, c1="3"), "5": p(5)},
        "empty": {},
    }
    return {name: {"n": 5, "r": 4, "d": "3/2", "polar": polar} for name, polar in cases.items()}


class TestSpecWireParse:
    """from_json reads each polar class straight to its one entry; it must
    give what one GradedClass per class gives, value or error."""

    @pytest.mark.parametrize("name", _wire_specs())
    def test_matches_per_class_parse(self, name):
        data = _wire_specs()[name]
        got = _read_outcome(HypersurfaceSpec.from_json, json.loads(json.dumps(data)))
        assert got == _read_outcome(_per_class_spec, data)

    def test_dense_spec_builds_no_class_and_one_total_polar(self, monkeypatch):
        data = {"n": 24, "r": 23, "d": "2",
                "polar": {str(k): _wire_polar(24, **{f"c{1 + k}": str(k + 2)}) for k in range(24)}}

        def forbidden(self):
            raise AssertionError("parsing a spec built a GradedClass")

        with monkeypatch.context() as patch:
            patch.setattr(GradedClass, "__post_init__", forbidden)
            spec = HypersurfaceSpec.from_json(data)
        assert cc.total_polar_class(spec) is cc.total_polar_class(spec)
        assert spec.to_json() == data

    @pytest.mark.parametrize("n", [sys.maxsize, 10**400], ids=["maxsize", "10^400"])
    def test_ambient_dimension_past_maxsize_refused(self, n):
        with pytest.raises(ValidationError, match="must be below"):
            HypersurfaceSpec(n, 2, 4, {})
        with pytest.raises(ValidationError, match="must be below"):
            HypersurfaceSpec.from_json({"n": n, "r": 2, "d": "4", "polar": {}})


_MISPLACED = "polar class 1 must be supported in dimension 3"


def _parse_error(message):
    return "InputParseError", 2, message


_SPELLINGS = [  # (name, spelling, what from_json wrote back for it at codimension 2:
    # its literal, "" for zero, or the error it gave there and everywhere else)
    ("seven", "7", "7"),
    ("minus-zero", "-0", ""),
    ("zero-over-five", "0/5", ""),
    ("double-zero", "00", ""),
    ("plus-three", "+3", "3"),
    ("padded-three", " 3 ", "3"),
    ("arabic-three", "\u0663", "3"),
    ("six-fourths", "6/4", "3/2"),
    ("underscored", "1_0", _parse_error("bad rational literal '1_0'")),
    ("over-zero", "3/0", _parse_error("bad rational literal '3/0'")),
    ("int", 3, "3"),
    ("none", None, _parse_error("rational must be a string 'p' or 'p/q', got NoneType")),
    ("bool", True, _parse_error("rational must be a string 'p' or 'p/q', got bool")),
]


def _edge_specs():
    """Polar data on P^5 with r = 4, so that key "1" lives at codimension 2,
    each with what from_json gave for it while every polar class was read by
    GradedClass._wire_nums: the (codimension, literal) pairs of the nonzero
    classes by key, or the error's type, exit code and message."""
    p = _wire_polar
    cases = {}
    for name, spelling, read in _SPELLINGS:
        if isinstance(read, tuple):  # an error, wherever the spelling stands
            at_c = elsewhere = read
        elif read:
            at_c, elsewhere = {"1": [(2, read)]}, ("ValidationError", 3, _MISPLACED)
        else:  # a zero class
            at_c = elsewhere = {}
        cases[f"{name}-at-c"] = {"1": p(5, c2=spelling)}, at_c
        cases[f"{name}-elsewhere"] = {"1": p(5, c4=spelling)}, elsewhere
    long = "-" + "7" * 20_000
    cases.update({
        "digits-20000-at-c": ({"1": p(5, c2=long)}, {"1": [(2, long)]}),
        "digits-20001-at-c": (
            {"1": p(5, c2="7" * 20_001)},
            _parse_error("rational literal too long: more than 20000 digits"),
        ),
        "wrong-length": (
            {"1": {"ambient_dim": 5, "coeffs_by_codim": ["0", "0", "3", "0", "0"]}},
            _parse_error("coeffs_by_codim must list exactly 6 entries for ambient_dim 5"),
        ),
        "ambient-dim-bool": (
            {"0": {"ambient_dim": True, "coeffs_by_codim": ["0", "3"]}},  # True + 1 entries
            _parse_error("ambient_dim must be an integer, got bool"),
        ),
        "ambient-dim-str": (
            {"1": {**p(5, c2="3"), "ambient_dim": "5"}},
            _parse_error("ambient_dim must be an integer, got str"),
        ),
        "ambient-dim-4": (
            {"1": p(4, c2="3")},
            ("DimensionMismatchError", 3, "polar class 1 lives on P^4, spec declares P^5"),
        ),
        "ambient-dim-6": (
            {"1": p(6, c2="3")},
            ("DimensionMismatchError", 3, "polar class 1 lives on P^6, spec declares P^5"),
        ),
        "extra-key": (
            {"1": {**p(5, c2="3"), "coeffs": []}},
            _parse_error("unknown key(s) in graded class: coeffs"),
        ),
        "missing-key": (
            {"1": {"ambient_dim": 5}},
            _parse_error("missing key(s) in graded class: coeffs_by_codim"),
        ),
        "index-beyond-r": (
            {"7": p(5, c2="3")}, ("ValidationError", 3, "polar class index 7 exceeds dim X = 4")
        ),
        "index-beyond-r-within-list": (
            {"5": p(7, c6="3")}, ("ValidationError", 3, "polar class index 5 exceeds dim X = 4")
        ),
        "index-beyond-r-bad-literal": (
            {"7": p(5, c2="x")}, _parse_error("bad rational literal 'x'")
        ),
    })
    faults = {
        "parse": ("0", p(5, c1="x")),
        "misplaced": ("1", p(5, c4="2")),
        "beyond-r": ("7", p(5, c2="3")),
        "dimension": ("2", p(4, c3="2")),
    }
    firsts = {  # the error of each pair of faulty keys, in both orders
        ("parse", "misplaced"): _parse_error("bad rational literal 'x'"),
        ("misplaced", "parse"): _parse_error("bad rational literal 'x'"),
        ("beyond-r", "parse"): _parse_error("bad rational literal 'x'"),
        ("parse", "beyond-r"): _parse_error("bad rational literal 'x'"),
        ("misplaced", "dimension"): ("ValidationError", 3, _MISPLACED),
        ("dimension", "misplaced"): (
            "DimensionMismatchError", 3, "polar class 2 lives on P^4, spec declares P^5"
        ),
        ("beyond-r", "misplaced"): ("ValidationError", 3, "polar class index 7 exceeds dim X = 4"),
        ("misplaced", "beyond-r"): ("ValidationError", 3, _MISPLACED),
    }
    for (a, b), want in firsts.items():
        cases[f"{a}-then-{b}"] = dict([faults[a], faults[b]]), want
    return {name: ({"n": 5, "r": 4, "d": "3/2", "polar": polar}, want)
            for name, (polar, want) in cases.items()}


def _both_outcomes(data):
    """from_json's outcome on data, and that of one GradedClass per polar class."""
    return _read_outcome(HypersurfaceSpec.from_json, data), _read_outcome(_per_class_spec, data)


def _pinned_outcome(data):
    """from_json's outcome on data: the nonzero (codimension, literal) pairs by
    key, or the error's type name, exit code and message."""
    try:
        spec = HypersurfaceSpec.from_json(data)
    except (InputParseError, ValidationError) as exc:
        return type(exc).__name__, exc.exit_code, str(exc)
    return {key: [(i, x) for i, x in enumerate(cls["coeffs_by_codim"]) if x != "0"]
            for key, cls in spec.to_json()["polar"].items()}


_LITERALS = st.sampled_from(
    ["7", "-12", "0", "-0", "0/5", "00", "+3", " 3 ", "\u0663", "6/4", "-9/6", "1_0", "3/0",
     "x", "", 3, 0, None, True, 1.5]
)


@st.composite
def _wire_polar_specs(draw):
    """Wire specs whose polar lists hold one entry (at the class's codimension
    or not), none, or several, from literals good and bad, mostly on P^n."""
    n = draw(st.integers(1, 6))
    # one spec in five has r >= n, up to 2n + 3: n - r + k then falls below -(n + 1)
    r = draw(st.integers(0, n - 1) if draw(st.integers(0, 4)) else st.integers(n, 2 * n + 3))
    polar = {}
    for k in draw(st.lists(st.integers(0, r + 1), max_size=r + 2, unique=True)):
        m = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        coeffs = ["0"] * (m + 1)
        shape = draw(st.sampled_from(["one at c", "one at c", "one anywhere", "several", "none"]))
        at = {"one at c": [n - r + k], "none": []}.get(shape) or draw(
            st.lists(st.integers(0, m), min_size=1, max_size=1 if shape == "one anywhere" else 3)
        )
        for i in at:
            if -len(coeffs) <= i <= m:  # a c below 0 counts from the end, as an index does
                coeffs[i] = draw(_LITERALS)
        polar[str(k)] = {"ambient_dim": m, "coeffs_by_codim": coeffs}
    return {"n": n, "r": r, "d": "3/2", "polar": polar}


class TestSpecShapeReader:
    """from_json reads a polar class whose list holds one entry that is not
    "0", at the class's codimension, by that entry alone; every other value
    takes the classes' wire reader.  Value or error, it must give what it gave
    while every class took that reader, and what one GradedClass per polar
    class gives."""

    @pytest.mark.parametrize("name", _edge_specs())
    def test_edge_case_outcome_is_pinned(self, name):
        data, want = _edge_specs()[name]
        assert _pinned_outcome(data) == want

    @pytest.mark.parametrize("name", _edge_specs())
    def test_edge_case_matches_per_class_parse(self, name):
        data = _edge_specs()[name][0]
        got, want = _both_outcomes(data)
        assert got == want

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_wire_polar_specs())
    def test_generated_lists_match_per_class_parse(self, data):
        got, want = _both_outcomes(data)
        assert got == want

    def test_one_piece_lists_take_no_list_reader(self, monkeypatch):
        def forbidden(cls, data):
            raise AssertionError("a one-piece polar list went through _wire_nums")

        spellings = ["7", "-6/4", " 3 ", "\u0663", "+12", "-0", 5, "0/5", "9" * 5000]
        dense = {"n": 24, "r": 23, "d": "2", "polar": {
            str(k): _wire_polar(24, **{f"c{1 + k}": spellings[k % len(spellings)]})
            for k in range(24)}}
        sparse = {"n": 120, "r": 117, "d": "7/3", "polar": {
            "0": _wire_polar(120, c3="7/3"), "2": _wire_polar(120, c5="-41")}}
        zero = {**sparse, "polar": {**sparse["polar"], "1": _wire_polar(120)}}  # all "0"
        want = [_per_class_spec(dense), _per_class_spec(sparse), _per_class_spec(zero)]
        monkeypatch.setattr(GradedClass, "_wire_nums", classmethod(forbidden))
        got = [HypersurfaceSpec.from_json(data) for data in (dense, sparse, zero)]
        assert got == want
        with pytest.raises(AssertionError, match="through _wire_nums"):
            HypersurfaceSpec.from_json({**sparse, "polar": {"0": _wire_polar(120, c4="5")}})

    @pytest.mark.parametrize(("n", "r"), [(3, 5), (3, 3), (0, 0), (3, 8), (3, 10**30)])
    def test_r_out_of_range_after_every_literal(self, n, r):
        # n - r + k < 0 takes the list reader: _fill refuses r after every literal is read
        polar = {"0": _wire_polar(n, c0="3"), "1": _wire_polar(n, c1="1")}
        data = {"n": n, "r": r, "d": "2", "polar": polar}
        got, want = _both_outcomes(data)
        assert got == want
        polar["2"] = _wire_polar(n, c0="x")
        with pytest.raises(InputParseError, match="bad rational literal 'x'"):
            HypersurfaceSpec.from_json(data)

    @pytest.mark.parametrize("r", [5, 2])
    def test_empty_list_on_p_minus_one_is_refused(self, r):
        empty = {"ambient_dim": -1, "coeffs_by_codim": []}
        data = {"n": 3, "r": r, "d": "4", "polar": {"0": empty}}
        got, want = _both_outcomes(data)
        assert got == want == (InputParseError, "ambient_dim must be >= 0")

    def test_r_far_past_n_exits_3_from_the_cli(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        polar = {"0": _wire_polar(3, c1="4")}
        spec.write_text(json.dumps({"n": 3, "r": 8, "d": "4", "polar": polar}))
        assert cli.run(["polar-total", "--spec", str(spec)]) == 3
        assert "need 0 <= r < n for a proper subvariety" in capsys.readouterr().err


def _reference_spec_json(spec):
    """HypersurfaceSpec.to_json as the wire form of one GradedClass per nonzero polar class."""
    polar = {str(k): spec._polar_class(k) for k, t in enumerate(spec._signed) if t}
    data = {"n": spec.n, "r": spec.r, "d": spec.d, "polar": polar}
    if spec.ambient_tangent is not None:
        data["ambient_tangent"] = spec.ambient_tangent
    return chow._encode(data)


@st.composite
def _written_specs(draw):
    """Sparse or dense specs with rational polar classes, with or without
    ambient_tangent, built from GradedClass objects or read from wire
    literals out of lowest terms."""
    n = draw(st.integers(1, 24))
    r = draw(st.integers(0, n - 1))
    d = draw(st.fractions(-9, 9, max_denominator=5))
    if draw(st.booleans()):
        ks = range(r + 1)
    else:
        ks = draw(st.lists(st.integers(0, r), max_size=3, unique=True))
    values = {k: draw(st.fractions(-(10**9), 10**9, max_denominator=12)) for k in ks}
    entries = st.lists(st.fractions(-9, 9, max_denominator=4), min_size=n, max_size=n)
    tangent = draw(st.none() | entries)
    if tangent is not None:
        tangent = HSeries.from_coeffs(n, [1, *tangent])
    if draw(st.booleans()):
        polar = {k: GradedClass.single(n, n - r + k, v) for k, v in values.items()}
        return HypersurfaceSpec(n, r, d, polar, tangent)
    s = draw(st.integers(1, 9))  # a common factor: literals out of lowest terms
    polar = {
        str(k): _wire_polar(n, **{f"c{n - r + k}": f"{v.numerator * s}/{v.denominator * s}"})
        for k, v in values.items()
    }
    data = {"n": n, "r": r, "d": chow.format_rational(d), "polar": polar}
    if tangent is not None:
        data["ambient_tangent"] = tangent.to_json()
    return HypersurfaceSpec.from_json(data)


class TestSpecWriter:
    """to_json writes each nonzero polar class at its codimension, with no
    GradedClass built: the bytes of one GradedClass per class."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_written_specs())
    def test_matches_per_class_writer_and_round_trips(self, spec):
        assert json.dumps(spec.to_json()) == json.dumps(_reference_spec_json(spec))
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


def _reference_double_sum(spec):
    """mather_double_sum in Fraction arithmetic, term by term."""
    n, r = spec.n, spec.r
    top = [p.coeffs[n - r + j] for j, p in enumerate(spec.polar)]
    out = [F(0)] * (n + 1)
    for k in range(r + 1):
        for i in range(k + 1):
            if top[k - i]:
                out[n - r + k] += (-1) ** (k - i) * comb(r + 1 - k + i, i) * top[k - i]
    return GradedClass(n, tuple(out))


# the worked inputs, the two large ones and the shipped fixture
FIXTURE_TD = HypersurfaceSpec.from_json(
    scenarios.fixture_json("tangent_developable_spec.json")
)
ALL_SPECS = [TD, CONE3, CONIC, TWISTED_CUBIC, DENSE_P48, CONE_P120, FIXTURE_TD]
ALL_SPEC_IDS = ["TD", "CONE3", "CONIC", "TWISTED_CUBIC", "DENSE_P48", "CONE_P120", "FIXTURE_TD"]


class TestOneMatherCapPerSpec:
    """mather_from_polar and csm_from_polar cap c(TP^n) with the dense [P] once
    per spec, whichever runs first: the Mather class is cached on the spec,
    and csm_from_polar reads it."""

    INV = InvariantData(F(-3, 2), F(5, 3))

    @staticmethod
    def _dense_spec(**kw):  # every polar class nonzero, so [P] is dense
        degrees = [2] + [F((-1) ** k * (k + 2), k % 3 + 1) for k in range(1, 24)]
        return spec_polar(24, 23, 2, degrees, **kw)

    @pytest.mark.parametrize("order", [("mather", "csm"), ("csm", "mather")],
                             ids=["mather_first", "csm_first"])
    def test_one_dense_cap(self, monkeypatch, order):
        spec, dense = self._dense_spec(), []
        cap = HSeries.cap

        def counted(series, cls):
            dense.append(sum(map(bool, cls._nums)) > 1)
            return cap(series, cls)

        monkeypatch.setattr(HSeries, "cap", counted)
        routes = {"mather": lambda: cc.mather_from_polar(spec),
                  "csm": lambda: cc.csm_from_polar(spec, self.INV)}
        got = {name: routes[name]() for name in order}
        monkeypatch.undo()
        assert dense.count(True) == 1
        assert got["mather"] == cc.mather_double_sum(spec)
        assert got["csm"] == _reference_csm_from_polar(spec, self.INV)

    def test_mather_class_is_cached(self):
        spec = self._dense_spec()
        assert cc.mather_from_polar(spec) is cc.mather_from_polar(spec)

    def test_ambient_tangent_after_the_cached_mather_class(self):
        quadric_tangent = tangent_chern(24) * LineBundleOnPn(F(2)).chern(24).inverse()
        spec = self._dense_spec(ambient_tangent=quadric_tangent)
        assert cc.mather_from_polar(spec) == cc.mather_double_sum(spec)
        assert cc.csm_from_polar(spec, self.INV) == _reference_csm_from_polar(spec, self.INV)


class TestTangentChernOncePerN:
    """c(TP^n) depends on n alone: one run of every route on one spec
    builds it once, and every later route reads the same object."""

    def test_every_route_builds_it_once(self, monkeypatch):
        n, d = 24, F(2)
        spec, inv = TestOneMatherCapPerSpec._dense_spec(), TestOneMatherCapPerSpec.INV
        c_y = C(n, *[F(k % 5 - 2, k % 3 + 1) for k in range(n + 1)])
        built, chern = [], LineBundleOnPn.chern

        def counted(bundle, ambient_dim, power=1):
            built.append((bundle.degree, ambient_dim, power))
            return chern(bundle, ambient_dim, power)

        chow._tangent_chern.cache_clear()  # whatever ran before
        monkeypatch.setattr(LineBundleOnPn, "chern", counted)
        c_fulton = cc.fulton_class(n, d)
        c_mather = cc.mather_from_polar(spec)
        assert cc.total_polar_class(spec) == _reference_total_polar(spec)
        assert cc.mather_double_sum(spec) == c_mather
        c_sm = cc.csm_from_polar(spec, inv)
        assert cc.csm_from_interpolation(c_fulton, c_mather, d, inv) == c_sm
        assert cc.interpolated_class(c_fulton, c_mather, d, inv.rho) == c_sm
        cc.solver_lhs(c_mather, c_fulton, d)
        assert cc.solve_invariants(_planted_lhs(c_y, d, inv.eu, inv.chi), c_y, d) == (
            inv.eu, inv.chi)
        s_yx = cc.segre_from_polar(spec, BundleData.line(n, d))
        s_ym = cc.segre_yx_to_ym(s_yx, d, inv)
        assert cc.segre_ym_to_yx(s_ym, d, inv) == s_yx
        assert cc.mather_from_segre(s_yx, n, d) == c_mather
        assert cc.csm_from_segre(s_ym, n, d) == c_sm
        monkeypatch.undo()
        assert [b for b in built if b[2] == n + 1] == [(1, n, n + 1)]
        assert cc.fulton_class(n, d) == _reference_fulton(n, d)


class TestIntegerDoubleSum:
    """mather_double_sum sums integer numerators; its result must equal the
    Fraction double loop's exactly."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=ALL_SPEC_IDS)
    def test_matches_fraction_loop(self, spec):
        got = cc.mather_double_sum(spec)
        assert got == _reference_double_sum(spec)
        assert all(type(c) is F for c in got.coeffs)

    def test_zero_polar_data(self):
        spec = HypersurfaceSpec(5, 3, F(2), {})
        assert cc.mather_double_sum(spec) == GradedClass.zero(5) == _reference_double_sum(spec)

    @pytest.mark.parametrize("n,r,share", [(3, 2, 1), (24, 23, 1), (24, 11, 0.5),
                                           (120, 119, 0.2), (240, 239, 1), (240, 100, 0.3)])
    def test_matches_comb_loop_up_to_240(self, n, r, share):
        rng = random.Random(f"double-sum-{n}-{r}")
        degrees = [F(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 90)),
                     rng.choice((1, 1, 3, 7**5, 2**40 + 1)))
                   if k == 0 or rng.random() < share else 0 for k in range(r + 1)]
        spec = spec_polar(n, r, F(5, 3), degrees)
        assert any(x < 0 for x in spec._signed) and spec._den > 1
        assert cc.mather_double_sum(spec) == _reference_double_sum(spec)


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

    def test_weights_from_integers_match_fraction_formulas(self):
        # rho and sigma come from the integers of chi = a/b and Eu = c/e
        grid = [F(p, q) for p in range(-7, 8) for q in (1, 2, 3, 6, 35)]
        for chi in grid:
            for eu in grid:
                if chi == 1 or chi == eu:
                    continue
                inv = InvariantData(chi, eu)
                assert (inv.rho, inv.sigma) == ((1 - eu) / (chi - eu), (chi - 1) / (chi - eu))
                assert type(inv.rho) is type(inv.sigma) is F
        inv = InvariantData("-9/4", -3)
        assert (inv.chi, inv.eu, inv.rho, inv.sigma) == (F(-9, 4), F(-3), F(16, 3), F(-13, 3))

    @pytest.mark.parametrize(
        "chi,eu",
        [(F(1), F(5)), (F(1), F(1)), (F(2, 2), "1"), (F(3), F(3)), (F(-5, 6), "-10/12")],
        ids=["chi-one", "both", "chi-one-literal", "chi-eu", "chi-eu-literal"],
    )
    def test_degenerate_messages_in_order(self, chi, eu):
        # chi = 1 is named first, also when chi = Eu = 1
        which = "chi = 1" if chi == 1 else "chi = Eu"
        with pytest.raises(DegenerateInvariantsError, match=f"^{which} makes rho/sigma undefined$"):
            InvariantData(chi, eu)

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


_P3_FULTON, _P3_MATHER = cc.fulton_class(3, 4), C(3, 0, 4, 9, 6)
_P4_FULTON, _P4_MATHER = cc.fulton_class(4, 4), C(4, 0, 4, 9, 6, 1)
_P3_SERIES = S(3, 1, 2)


class TestInterpolationRefusals:
    """Each faulty operand of the interpolation routes is refused with the
    error type and message the routes gave when they subtracted c_F from
    c_Ma first, whichever way the family is computed."""

    PINNED = {  # (c_fulton, c_mather, d, alpha): (error type, message)
        "P3 vs P4": ((_P3_FULTON, _P4_MATHER, 4, F(1, 3)),
                     (DimensionMismatchError, "ambient dimensions differ: 4 vs 3")),
        "P4 vs P3": ((_P4_FULTON, _P3_MATHER, 4, F(1, 3)),
                     (DimensionMismatchError, "ambient dimensions differ: 3 vs 4")),
        "mather series": ((_P3_FULTON, _P3_SERIES, 4, F(1, 3)),
                          (ValidationError, "operand must be HSeries, not GradedClass")),
        "fulton series": ((_P3_SERIES, _P3_MATHER, 4, F(1, 3)),
                          (ValidationError, "operand must be GradedClass, not HSeries")),
        "fulton series on P4": ((S(4, 1), _P3_MATHER, 4, F(1, 3)),
                                (ValidationError, "operand must be GradedClass, not HSeries")),
        "fulton None": ((None, _P3_MATHER, 4, F(1, 3)),
                        (ValidationError, "operand must be GradedClass, not NoneType")),
        "float alpha": ((_P3_FULTON, _P3_MATHER, 4, 0.5),
                        (ValidationError, "expected an exact rational, got float")),
        "float d": ((_P3_FULTON, _P3_MATHER, 4.0, F(1, 3)),
                    (ValidationError, "expected an exact rational, got float")),
    }

    @pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
    def test_interpolated_class(self, case):
        (c_fulton, c_mather, d, alpha), (error, message) = case
        with pytest.raises(error) as caught:
            cc.interpolated_class(c_fulton, c_mather, d, alpha)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize(
        "case", [c for k, c in PINNED.items() if k != "float alpha"],
        ids=[k for k in PINNED if k != "float alpha"],
    )
    def test_csm_from_interpolation(self, case):
        (c_fulton, c_mather, d, _), (error, message) = case
        with pytest.raises(error) as caught:
            cc.csm_from_interpolation(c_fulton, c_mather, d, InvariantData(F(-1), F(2)))
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize(
        "c_fulton,c_mather",
        [(_P3_FULTON, None), (_P3_FULTON, 0), (_P3_SERIES, _P3_SERIES)],
        ids=["mather None", "mather int", "both series"],
    )
    def test_no_operand_escapes_as_a_traceback(self, c_fulton, c_mather):
        with pytest.raises(ValidationError):
            cc.interpolated_class(c_fulton, c_mather, 4, F(1, 3))
        with pytest.raises(ValidationError):
            cc.csm_from_interpolation(c_fulton, c_mather, 4, InvariantData(F(-1), F(2)))

    def test_string_weights_still_read(self):
        got = cc.interpolated_class(_P3_FULTON, _P3_MATHER, "4", "1/3")
        assert got == C(3, 0, 4, 6, 4)


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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=ALL_SPEC_IDS)
    def test_polar_route_explicit_projective_ambient_is_default(self, spec):
        explicit = HypersurfaceSpec(spec.n, spec.r, spec.d, spec.polar, tangent_chern(spec.n))
        for inv in (InvariantData(F(-1), F(2)), InvariantData(F(7, 3), F(-2, 5))):
            assert cc.csm_from_polar(explicit, inv) == cc.csm_from_polar(spec, inv)

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

    @pytest.mark.parametrize("bundle", [2, F(2), None, S(3, 1, 2, 0, 0)],
                             ids=["int", "Fraction", "None", "HSeries"])
    def test_twist_by_needs_a_line_bundle(self, bundle):
        with pytest.raises(ValidationError):
            BundleData.line(3, 1).twist_by(bundle)


def _reference_twist_by(bundle_data, bundle):
    """twist_by as the Fraction double loop: c_i(E) H^i times c(L)^(e-i)."""
    n = bundle_data.total_chern.ambient_dim
    e = bundle_data.rank
    out = [F(0)] * (n + 1)
    for i, c in enumerate(bundle_data.total_chern.coeffs[: e + 1]):
        if c:
            for j, s in enumerate(bundle.chern(n - i, e - i).coeffs):
                out[i + j] += c * s
    return BundleData(e, HSeries(n, tuple(out)))


class TestTwistByKernel:
    """twist_by runs on the twist kernel; it must give the Fraction double
    loop's answer exactly."""

    DEGREES = [F(0), F(1), F(-1), F(-5, 3), F(7, 2)]

    def test_matches_fraction_loop(self):
        rng = random.Random("twist_by")
        for n in range(31):
            for rank in range(n + 3):
                chern = [F(1)] + [
                    F(rng.choice([0, rng.randint(-40, 40)]), rng.choice([1, 2, 3, 5, 6, 9, 35]))
                    for _ in range(n)
                ]
                data = BundleData(rank, HSeries(n, tuple(chern)))
                for degree in self.DEGREES:
                    bundle = LineBundleOnPn(degree)
                    got = data.twist_by(bundle)
                    assert got == _reference_twist_by(data, bundle)
                    assert all(type(c) is F for c in got.total_chern.coeffs)


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

    def test_rank_mismatch_message(self):
        with pytest.raises(ValidationError, match=r"^normal bundle rank 1 != codimension 2$"):
            cc.segre_from_polar(TWISTED_CUBIC, BundleData.line(3, 4))

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

    @pytest.mark.parametrize("normal", [None, S(3, 1, 4, 0, 0), LineBundleOnPn(F(4)), 4],
                             ids=["None", "HSeries", "LineBundleOnPn", "int"])
    def test_normal_must_be_bundle_data(self, normal):
        with pytest.raises(ValidationError):
            cc.segre_from_polar(TD, normal)


# Routes whose two operands must live on one P^n; the class sum or
# difference inside each one raises on a mismatch.
MISMATCHED_ROUTES = {
    "interpolated_class": lambda m, n: cc.interpolated_class(
        cc.fulton_class(m, 4), cc.fulton_class(n, 4), 4, F(1, 3)
    ),
    "solver_lhs": lambda m, n: cc.solver_lhs(cc.fulton_class(m, 4), cc.fulton_class(n, 4), 4),
    "mather_from_segre": lambda m, n: cc.mather_from_segre(GradedClass.single(m, 2, 9), n, 4),
    "csm_from_segre": lambda m, n: cc.csm_from_segre(GradedClass.single(m, 2, 6), n, 4),
}


@pytest.mark.parametrize("m,n", [(3, 4), (4, 3)])
@pytest.mark.parametrize("route", MISMATCHED_ROUTES.values(), ids=MISMATCHED_ROUTES.keys())
def test_route_operands_from_different_pn_rejected(route, m, n):
    with pytest.raises(DimensionMismatchError):
        route(m, n)


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


# The linear-factor routes as caps by dense series of 1/(1 + lam*H) and
# (a + b*H), the way they were computed before the linear-factor kernel.


def _reference_segre_part(n, d):
    return LineBundleOnPn(d).chern(n, -1).cap(GradedClass.single(n, 1, d))


def _reference_fulton(n, d):
    return tangent_chern(n).cap(_reference_segre_part(n, d))


def _reference_interpolated(c_fulton, c_mather, d, alpha):
    n = c_fulton.ambient_dim
    weight = LineBundleOnPn(alpha * d).chern(n, -1) * (1 - alpha)
    return c_fulton + weight.cap(c_mather - c_fulton)


def _reference_csm_from_polar(spec, inv):
    n = spec.n
    tangent = spec.ambient_tangent if spec.ambient_tangent is not None else tangent_chern(n)
    denominator = LineBundleOnPn(inv.rho * spec.d).chern(n, -1)
    virtual = (tangent * denominator).cap(inv.rho * spec.fundamental_class)
    milnor = (tangent_chern(n) * denominator).cap(inv.sigma * cc.total_polar_class(spec))
    return virtual + milnor


def _reference_ym_to_yx(s_ym, d, inv):
    return HSeries.from_coeffs(s_ym.ambient_dim, [1 / inv.sigma, d]).cap(s_ym)


def _reference_yx_to_ym(s_yx, d, inv):
    n = s_yx.ambient_dim
    return (LineBundleOnPn(inv.sigma * d).chern(n, -1) * inv.sigma).cap(s_yx)


def _reference_mather_from_segre(s_yx, n, d):
    inner = _reference_segre_part(n, d) + s_yx.dual(n).twist(LineBundleOnPn(d), n)
    return tangent_chern(n).cap(inner)


def _reference_csm_from_segre(s_ym, n, d):
    bundle = LineBundleOnPn(d)
    twisted = bundle.chern(n).cap(s_ym).dual(n).twist(bundle, n)
    return tangent_chern(n).cap(_reference_segre_part(n, d) + twisted)


def _reference_solver_lhs(c_mather, c_fulton, d):
    return LineBundleOnPn(d).chern(c_mather.ambient_dim).cap(c_mather - c_fulton)


class TestLinearFactorRoutes:
    """Every route that divides or multiplies by one linear factor gives
    exactly the answer of the dense-series caps it replaces."""

    INVARIANTS = [InvariantData(F(-3, 2), F(5, 3)), InvariantData(F(7, 3), F(-2, 5))]

    @pytest.mark.parametrize("d", [F(1), F(2), F(7), F(-3, 2), F(5, 3)])
    def test_fulton_every_n(self, d):
        for n in range(1, 61):
            assert cc.fulton_class(n, d) == _reference_fulton(n, d)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=ALL_SPEC_IDS)
    def test_polar_routes(self, spec):
        n, d = spec.n, spec.d
        for inv in self.INVARIANTS:
            assert cc.csm_from_polar(spec, inv) == _reference_csm_from_polar(spec, inv)
        s_yx = cc.segre_from_polar(spec, BundleData(n - spec.r, S(n, 1, *[3] * (n - spec.r))))
        for inv in self.INVARIANTS:
            s_ym = cc.segre_yx_to_ym(s_yx, d, inv)
            assert s_ym == _reference_yx_to_ym(s_yx, d, inv)
            assert cc.segre_ym_to_yx(s_ym, d, inv) == _reference_ym_to_yx(s_ym, d, inv)

    def test_polar_route_with_ambient_tangent(self):
        quadric_tangent = tangent_chern(3) * LineBundleOnPn(F(2)).chern(3).inverse()
        curve = spec_polar(3, 1, F(4, 3), [3, F(-4, 7)], ambient_tangent=quadric_tangent)
        for inv in self.INVARIANTS:
            assert cc.csm_from_polar(curve, inv) == _reference_csm_from_polar(curve, inv)

    @pytest.mark.parametrize(
        "spec", [TD, CONE3, CONIC, DENSE_P48, CONE_P120, FIXTURE_TD],
        ids=["TD", "CONE3", "CONIC", "DENSE_P48", "CONE_P120", "FIXTURE_TD"],
    )
    def test_hypersurface_routes(self, spec):
        n, d = spec.n, spec.d
        c_fulton = cc.fulton_class(n, d)
        assert c_fulton == _reference_fulton(n, d)
        c_mather = cc.mather_from_polar(spec)
        for alpha in (F(0), F(1), F(2, 5), F(-3, 2)):
            got = cc.interpolated_class(c_fulton, c_mather, d, alpha)
            assert got == _reference_interpolated(c_fulton, c_mather, d, alpha)
        assert cc.solver_lhs(c_mather, c_fulton, d) == _reference_solver_lhs(c_mather, c_fulton, d)
        s_yx = cc.segre_from_polar(spec, BundleData.line(n, d))
        s_ym = cc.segre_yx_to_ym(s_yx, d, self.INVARIANTS[0])
        assert cc.mather_from_segre(s_yx, n, d) == _reference_mather_from_segre(s_yx, n, d)
        assert cc.csm_from_segre(s_ym, n, d) == _reference_csm_from_segre(s_ym, n, d)


def _reference_solve(lhs, c_y, d):
    """solve_invariants in Fraction arithmetic, row by row."""
    n = lhs.ambient_dim
    rows = []
    for k in range(n + 1):
        a = c_y.coeffs[k]
        b = d * c_y.coeffs[k - 1] if k >= 1 else F(0)
        rows.append((a, b, lhs.coeffs[k]))
    pivot = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            det = rows[i][0] * rows[j][1] - rows[j][0] * rows[i][1]
            if det != 0:
                pivot = (i, j, det)
                break
        if pivot:
            break
    if pivot is None:
        raise UnderdeterminedSystemError(
            "invariant system has rank < 2 (need d != 0 and dim Y' > 0)"
        )
    i, j, det = pivot
    u = (rows[i][2] * rows[j][1] - rows[j][2] * rows[i][1]) / det
    v = (rows[i][0] * rows[j][2] - rows[j][0] * rows[i][2]) / det
    for a, b, c in rows:
        if a * u + b * v != c:
            raise InconsistentSystemError(
                "class data is not consistent with constant (Eu, chi)"
            )
    eu = v + 1
    chi = eu - u
    InvariantData(chi, eu)
    return eu, chi


def _outcome(solve, lhs, c_y, d):
    """The answer, or the type and message of the error raised."""
    try:
        return solve(lhs, c_y, d)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _planted_lhs(c_y, d, eu, chi):
    """lhs = ((Eu - chi) + (Eu - 1) d H) . c_y"""
    n = c_y.ambient_dim
    shifted = GradedClass(n, (F(0),) + c_y.coeffs[:-1])
    return (eu - chi) * c_y + ((eu - 1) * d) * shifted


class TestIntegerSolver:
    """solve_invariants scales every row to integers; its answers, errors
    and messages must equal the Fraction solver's."""

    C_Y = C(6, 0, F(2, 3), F(-5, 4), 7, F(1, 9), 0, F(-11, 6))

    @pytest.mark.parametrize("d", [F(7, 2), F(-5, 3), F(1, 12), F(4)])
    @pytest.mark.parametrize("eu,chi", [(F(2), F(-1)), (F(5, 3), F(-3, 2)), (F(-2, 7), F(9, 4))])
    def test_planted_invariants(self, d, eu, chi):
        lhs = _planted_lhs(self.C_Y, d, eu, chi)
        got = cc.solve_invariants(lhs, self.C_Y, d)
        assert got == _reference_solve(lhs, self.C_Y, d) == (eu, chi)

    def test_random_systems(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 8)
            c_y = C(n, *[
                F(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 6)) for _ in range(n + 1)
            ])
            d = F(rng.randint(-6, 6), rng.randint(1, 5))
            if rng.random() < 0.5:
                lhs = _planted_lhs(c_y, d, F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 2))
            else:
                lhs = C(n, *[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)])
            got = _outcome(cc.solve_invariants, lhs, c_y, d)
            assert got == _outcome(_reference_solve, lhs, c_y, d)

    @pytest.mark.parametrize(
        "lhs,d,error",
        [
            (_planted_lhs(C_Y, F(0), F(2), F(-1)), F(0), UnderdeterminedSystemError),
            (_planted_lhs(C_Y, F(7, 2), F(2), F(-1)) + C(6, 0, 0, 0, 0, 0, 0, F(1, 5)),
             F(7, 2), InconsistentSystemError),
            (_planted_lhs(C_Y, F(7, 2), F(3, 4), F(1)), F(7, 2), DegenerateInvariantsError),
            (_planted_lhs(C_Y, F(-5, 3), F(3, 4), F(3, 4)), F(-5, 3), DegenerateInvariantsError),
        ],
        ids=["rank-below-two", "inconsistent", "chi-one", "chi-equals-eu"],
    )
    def test_error_paths(self, lhs, d, error):
        got = _outcome(cc.solve_invariants, lhs, self.C_Y, d)
        assert got[0] is error
        assert got == _outcome(_reference_solve, lhs, self.C_Y, d)


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


class TestValueObjects:
    """InvariantData, BundleData and HypersurfaceSpec are immutable values:
    printed, compared and hashed field by field (rho and sigma included)."""

    @staticmethod
    def values():
        polar = {0: GradedClass.single(2, 1, 2)}
        return {
            "InvariantData": (
                InvariantData(-1, 2),
                "InvariantData(chi=Fraction(-1, 1), eu=Fraction(2, 1), "
                "rho=Fraction(1, 3), sigma=Fraction(2, 3))",
            ),
            "BundleData": (
                BundleData.line(1, 3),
                "BundleData(rank=1, total_chern=HSeries(ambient_dim=1, "
                "coeffs=(Fraction(1, 1), Fraction(3, 1))))",
            ),
            "HypersurfaceSpec": (
                HypersurfaceSpec(2, 1, 2, polar),
                "HypersurfaceSpec(n=2, r=1, d=Fraction(2, 1), polar=("
                "GradedClass(ambient_dim=2, coeffs=(Fraction(0, 1), Fraction(2, 1), "
                "Fraction(0, 1))), GradedClass(ambient_dim=2, coeffs=(Fraction(0, 1), "
                "Fraction(0, 1), Fraction(0, 1)))), ambient_tangent=None)",
            ),
            "HypersurfaceSpec-tangent": (
                HypersurfaceSpec(1, 0, "1/2", [C(1, 0, 1)], S(1, 1, 0)),
                "HypersurfaceSpec(n=1, r=0, d=Fraction(1, 2), polar=("
                "GradedClass(ambient_dim=1, coeffs=(Fraction(0, 1), Fraction(1, 1))),), "
                "ambient_tangent=HSeries(ambient_dim=1, "
                "coeffs=(Fraction(1, 1), Fraction(0, 1))))",
            ),
        }

    @pytest.mark.parametrize("name", values())
    def test_repr(self, name):
        value, text = self.values()[name]
        assert repr(value) == text

    @pytest.mark.parametrize("name", values())
    def test_immutable(self, name):
        value, text = self.values()[name]
        for field in list(vars(value)) + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == text

    @pytest.mark.parametrize("name", values())
    def test_equal_values_hash_equal_and_copy(self, name):
        value = self.values()[name][0]
        again = self.values()[name][0]
        assert value is not again and value == again and hash(value) == hash(again)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)

    def test_equality_covers_every_field(self):
        assert InvariantData(-1, 2) != InvariantData(-1, 3)
        assert BundleData(1, S(1, 1, 3)) != BundleData(2, S(1, 1, 3))
        spec = HypersurfaceSpec(2, 1, 2, {0: GradedClass.single(2, 1, 2)})
        assert spec != HypersurfaceSpec(2, 1, 3, {0: GradedClass.single(2, 1, 2)})
        assert spec != HypersurfaceSpec(2, 1, 2, {0: GradedClass.single(2, 1, 2)}, S(2, 1, 1, 0))
        assert InvariantData(-1, 2).__eq__((F(-1), F(2), F(1, 3), F(2, 3))) is NotImplemented

    def test_keyword_construction(self):
        assert InvariantData(eu=2, chi=-1) == InvariantData(F(-1), F(2))
        with pytest.raises(TypeError):
            InvariantData(-1, 2, rho=F(1, 3))
        assert BundleData(rank=1, total_chern=S(1, 1, 3)) == BundleData.line(1, 3)
        spec = HypersurfaceSpec(n=2, r=1, d=2, polar=[GradedClass.single(2, 1, 2)])
        assert spec.ambient_tangent is None
        assert spec == HypersurfaceSpec(2, 1, F(2), {0: GradedClass.single(2, 1, 2)}, None)
