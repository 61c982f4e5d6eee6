"""The shipped worked examples and the report machinery."""

import copy
import json
import pickle
import sys
from fractions import Fraction as F

import pytest

from csmcalc.chow import GradedClass
from csmcalc.errors import ValidationError
from csmcalc.scenarios import (
    PROVENANCES,
    ReportEntry,
    ScenarioReport,
    cone_over_nodal_curve,
    euler_smooth_hypersurface,
    fixture_json,
    run_scenario,
    smooth_hypersurface,
    tangent_developable,
)


class TestTangentDevelopable:
    def test_passes(self):
        report = tangent_developable()
        assert report.passed, report.render_table()

    def test_key_entries(self):
        report = tangent_developable()
        values = {e.name: e.computed for e in report.entries}
        assert values["total_polar"] == GradedClass.from_coeffs(3, [0, 4, -7, 10])
        assert values["eu"] == 2 and values["chi"] == -1
        assert values["rho"] == F(1, 3)
        csm = GradedClass.from_coeffs(3, [0, 4, 6, 4])
        assert values["csm_interpolation"] == csm
        assert values["csm_polar_route"] == csm
        assert values["csm_segre_route"] == csm

    def test_inputs_come_from_fixture_bytes(self):
        report = tangent_developable()
        assert report.inputs["spec"] == fixture_json("tangent_developable_spec.json")
        assert report.inputs["c_y"] == fixture_json("tangent_developable_cy.json")


class TestConeOverNodalCurve:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_sweep_passes(self, d):
        report = cone_over_nodal_curve(d)
        assert report.passed, report.render_table()

    def test_no_alpha_entry_is_constructive(self):
        report = cone_over_nodal_curve(3)
        entry = {e.name: e for e in report.entries}["no_alpha_matches_csm"]
        assert entry.computed["codim3_at_candidate"] == F(7, 2)
        assert entry.computed["codim3_csm"] == F(2)
        assert entry.computed["alpha_exists"] is False

    def test_small_degree_rejected(self):
        with pytest.raises(ValidationError):
            cone_over_nodal_curve(2)
        with pytest.raises(ValidationError):
            cone_over_nodal_curve("3")


class TestSmoothHypersurface:
    @pytest.mark.parametrize("n,d", [(3, 4), (2, 1), (2, 2), (2, 3), (4, 5), (5, 2)])
    def test_passes(self, n, d):
        report = smooth_hypersurface(n, d)
        assert report.passed, report.render_table()

    def test_quartic_surface_euler(self):
        report = smooth_hypersurface(3, 4)
        entry = {e.name: e for e in report.entries}["euler_degree_zero"]
        assert entry.computed == 24

    @pytest.mark.parametrize(
        "n,d,chi", [(2, 1, 2), (2, 2, 2), (2, 3, 0), (3, 4, 24), (4, 5, -200)]
    )
    def test_euler_oracle_spot_values(self, n, d, chi):
        assert euler_smooth_hypersurface(n, d) == chi

    @pytest.mark.parametrize(
        "n,d", [(2.5, 2), (True, 2), (2, 2.5), (2, True), ("3", 2), (0, 2), (2, 0)]
    )
    def test_euler_oracle_needs_integers_at_least_one(self, n, d):
        with pytest.raises(ValidationError):
            euler_smooth_hypersurface(n, d)

    @pytest.mark.parametrize("params", [{"n": True}, {"d": True}, {"n": 3.0}, {"d": F(4)}])
    def test_non_integer_parameters_rejected(self, params):
        with pytest.raises(ValidationError):
            smooth_hypersurface(**params)

    @pytest.mark.usefixtures("no_binomials")
    @pytest.mark.parametrize("n", [sys.maxsize, 10**400], ids=["maxsize", "10^400"])
    def test_ambient_dimension_past_maxsize_refused(self, n):
        # d = 1 and 2 keep (1 - d)^(n + 1) instant, should the bound be missed
        with pytest.raises(ValidationError, match="n must be below"):
            euler_smooth_hypersurface(n, 1)
        with pytest.raises(ValidationError, match="must be below"):
            smooth_hypersurface(n, 2)


class TestReportMachinery:
    def test_every_entry_is_tagged(self):
        for report in (tangent_developable(), cone_over_nodal_curve(4), smooth_hypersurface(2, 3)):
            assert report.entries
            for entry in report.entries:
                assert entry.provenance in PROVENANCES

    def test_mismatch_flips_status_and_surfaces_both_values(self):
        report = ScenarioReport("demo", {}, [])
        report.check("good", F(1), F(1), "trivial")
        report.check("bad", F(7, 2), F(2), "derived")
        assert not report.passed
        data = report.to_json()
        assert data["status"] == "fail"
        bad = data["entries"][1]
        assert bad == {
            "name": "bad",
            "status": "fail",
            "provenance": "derived",
            "computed": "7/2",
            "expected": "2",
        }
        table = report.render_table()
        assert "7/2" in table and "(expected 2)" in table

    def test_json_of_every_entry_kind_is_pinned(self):
        report = ScenarioReport("demo", {"n": 3, "d": F(4, 3)}, [])
        report.check("fraction", F(-7, 2), F(-7, 2), "derived")
        report.check(
            "class", GradedClass.from_coeffs(2, [0, F(1, 3), -2]), GradedClass.zero(2), "published"
        )
        report.check("tuple", (F(1), F(0), F(2, 5)), (F(1), F(0), F(2, 5)), "derived")
        flags = {"codim3": F(29, 2), "alpha_exists": False}
        report.check("dict", flags, {**flags, "alpha_exists": True}, "trivial")
        expected = {
            "name": "demo",
            "status": "fail",
            "inputs": {"n": 3, "d": "4/3"},
            "entries": [
                {"name": "fraction", "status": "pass", "provenance": "derived",
                 "computed": "-7/2", "expected": "-7/2"},
                {"name": "class", "status": "fail", "provenance": "published",
                 "computed": {"ambient_dim": 2, "coeffs_by_codim": ["0", "1/3", "-2"]},
                 "expected": {"ambient_dim": 2, "coeffs_by_codim": ["0", "0", "0"]}},
                {"name": "tuple", "status": "pass", "provenance": "derived",
                 "computed": ["1", "0", "2/5"], "expected": ["1", "0", "2/5"]},
                {"name": "dict", "status": "fail", "provenance": "trivial",
                 "computed": {"codim3": "29/2", "alpha_exists": False},
                 "expected": {"codim3": "29/2", "alpha_exists": True}},
            ],
        }
        data = report.to_json()
        assert data == expected
        assert json.dumps(data) == json.dumps(expected)  # the key order too

    def test_unknown_provenance_rejected(self):
        report = ScenarioReport("demo", {}, [])
        with pytest.raises(ValidationError):
            report.check("x", 1, 1, "guessed")

    def test_json_shape(self):
        data = tangent_developable().to_json()
        assert data["name"] == "tangent-developable"
        assert data["status"] == "pass"
        assert {"name", "status", "provenance", "computed", "expected"} == set(
            data["entries"][0]
        )


class TestRegistry:
    def test_dispatch(self):
        assert run_scenario("smooth-hypersurface", n=2, d=2).passed
        assert run_scenario("cone-over-nodal-curve", d=5).passed
        assert run_scenario("tangent-developable").passed

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            run_scenario("quintic-threefold")

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError):
            run_scenario("tangent-developable", d=4)


ENTRY_REPR = (
    "ReportEntry(name='x', computed=Fraction(1, 2), expected=Fraction(1, 2), "
    "provenance='derived', passed=True)"
)


class TestReportValues:
    """A ReportEntry is an immutable value; a ScenarioReport is a mutable,
    unhashable one.  Both print, compare and copy field by field."""

    @staticmethod
    def entry():
        return ReportEntry("x", F(1, 2), F(1, 2), "derived", True)

    def test_entry_repr_and_equality(self):
        entry = self.entry()
        assert repr(entry) == ENTRY_REPR
        assert entry == self.entry() and hash(entry) == hash(self.entry())
        assert entry != ReportEntry("x", F(1, 2), F(1, 2), "derived", False)
        assert entry.__eq__(("x", F(1, 2), F(1, 2), "derived", True)) is NotImplemented
        keyword = ReportEntry(passed=True, provenance="derived", expected=F(1, 2),
                              computed=F(1, 2), name="x")
        assert keyword == entry

    def test_entry_is_immutable(self):
        entry = self.entry()
        for field in ("name", "computed", "expected", "provenance", "passed", "extra"):
            with pytest.raises(AttributeError):
                setattr(entry, field, None)
            with pytest.raises(AttributeError):
                delattr(entry, field)
        assert repr(entry) == ENTRY_REPR

    def test_report_repr_and_equality(self):
        report = ScenarioReport("demo", {"n": 2}, [self.entry()])
        assert repr(report) == (
            f"ScenarioReport(name='demo', inputs={{'n': 2}}, entries=[{ENTRY_REPR}])"
        )
        assert report == ScenarioReport(name="demo", inputs={"n": 2}, entries=[self.entry()])
        assert report != ScenarioReport("demo", {"n": 2}, [])

    def test_report_is_mutable_and_unhashable(self):
        report = ScenarioReport("demo", {}, [])
        report.check("x", F(1, 2), F(1, 2), "derived")
        report.name = "renamed"
        assert report == ScenarioReport("renamed", {}, [self.entry()])
        del report.inputs
        assert not hasattr(report, "inputs")
        with pytest.raises(TypeError):
            hash(report)

    def test_pickle_and_copies(self):
        entry, report = self.entry(), ScenarioReport("demo", {"n": 2}, [self.entry()])
        for value in (entry, report):
            for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                         copy.deepcopy(value)):
                assert type(twin) is type(value) and twin == value
        deep = copy.deepcopy(report)
        deep.entries.append(entry)
        assert len(report.entries) == 1
        assert hash(pickle.loads(pickle.dumps(entry))) == hash(entry)
