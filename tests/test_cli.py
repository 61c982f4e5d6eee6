"""Command-line behavior: dispatch, rendering, exit codes, round-trips."""

import io
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import csmcalc
from csmcalc import charclass, cli, fulton_class, mather_from_polar, scenarios, total_polar_class
from csmcalc.charclass import HypersurfaceSpec
from csmcalc.chow import GradedClass
from csmcalc.cli import run
from csmcalc.scenarios import fixture_json

SPEC_JSON = json.dumps(fixture_json("tangent_developable_spec.json"))
LHS_JSON = json.dumps(fixture_json("tangent_developable_lhs.json"))
CY_JSON = json.dumps(fixture_json("tangent_developable_cy.json"))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableOutputs:
    def test_fulton(self, capsys):
        code, out, _ = invoke(capsys, "fulton", "--n", "3", "--d", "4")
        assert code == 0
        assert out.strip() == "c_fulton = 4[P^2] + 24[P^0]"

    def test_csm(self, capsys):
        code, out, _ = invoke(
            capsys, "csm", "--spec", SPEC_JSON, "--chi=-1", "--eu=2"
        )
        assert code == 0
        assert "c_sm = 4[P^2] + 6[P^1] + 4[P^0]" in out

    def test_solve_invariants(self, capsys):
        code, out, _ = invoke(
            capsys, "solve-invariants", "--lhs", LHS_JSON, "--cy", CY_JSON, "--d", "4"
        )
        assert code == 0
        assert "Eu = 2" in out and "chi = -1" in out and "rho = 1/3" in out

    def test_multiplicities(self, capsys):
        code, out, _ = invoke(
            capsys,
            "multiplicities", "--chi=-1", "--eu=2", "--dim-x", "2", "--dim-y", "1",
        )
        assert code == 0
        assert "m = 2" in out and "n = 3" in out

    def test_interpolate_alpha_zero_is_mather(self, capsys):
        code, out, _ = invoke(
            capsys, "interpolate", "--spec", SPEC_JSON, "--alpha", "0"
        )
        assert code == 0
        spec = HypersurfaceSpec.from_json(json.loads(SPEC_JSON))
        lines = dict(
            line.split(" = ", 1) for line in out.strip().splitlines()
        )
        assert lines["c_alpha"] == str(mather_from_polar(spec))

    def test_mather_methods_agree(self, capsys):
        _, out_cap, _ = invoke(capsys, "mather", "--spec", SPEC_JSON)
        _, out_sum, _ = invoke(
            capsys, "mather", "--spec", SPEC_JSON, "--method", "double-sum"
        )
        assert out_cap.splitlines()[0] == out_sum.splitlines()[0]

    def test_method_selects_the_mather_route(self, capsys, monkeypatch):
        ran = []
        for name in ("mather_from_polar", "mather_double_sum"):
            route = getattr(charclass, name)
            monkeypatch.setattr(charclass, name, lambda s, r=route, n=name: ran.append(n) or r(s))
        invoke(capsys, "mather", "--spec", SPEC_JSON)
        invoke(capsys, "mather", "--spec", SPEC_JSON, "--method", "double-sum")
        assert ran == ["mather_from_polar", "mather_double_sum"]

    def test_csm_polar_route(self, capsys):
        code, out, _ = invoke(
            capsys, "csm-polar", "--spec", SPEC_JSON, "--chi=-1", "--eu=2"
        )
        assert code == 0
        assert "c_sm = 4[P^2] + 6[P^1] + 4[P^0]" in out

    def test_segre_polar_default_normal(self, capsys):
        code, out, _ = invoke(capsys, "segre-polar", "--spec", SPEC_JSON)
        assert code == 0
        assert "s_YX = 9[P^1] - 18[P^0]" in out


class TestInputSources:
    def test_file_path(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(SPEC_JSON)
        code, out, _ = invoke(capsys, "polar-total", "--spec", str(path))
        assert code == 0
        assert "total_polar = 4[P^2] - 7[P^1] + 10[P^0]" in out

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(SPEC_JSON))
        code, out, _ = invoke(capsys, "polar-total", "--spec", "-")
        assert code == 0
        assert "4[P^2] - 7[P^1] + 10[P^0]" in out

    def test_inline_json(self, capsys):
        code, out, _ = invoke(capsys, "polar-total", "--spec", SPEC_JSON)
        assert code == 0
        assert "4[P^2] - 7[P^1] + 10[P^0]" in out


class TestJsonOutputs:
    def test_fulton_wire_form(self, capsys):
        code, out, _ = invoke(capsys, "fulton", "--n", "3", "--d", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"] == {"n": 3, "d": "4"}
        assert GradedClass.from_json(payload["c_fulton"]) == fulton_class(3, 4)

    def test_round_trip_is_loss_free(self, capsys):
        _, out, _ = invoke(
            capsys, "polar-total", "--spec", SPEC_JSON, "--format", "json"
        )
        payload = json.loads(out)
        cls = GradedClass.from_json(payload["total_polar"])
        spec = HypersurfaceSpec.from_json(json.loads(SPEC_JSON))
        assert cls == total_polar_class(spec)
        assert cls.to_json() == payload["total_polar"]

    def test_segre_convert_pipe_round_trip(self, capsys):
        start = GradedClass.from_coeffs(3, [0, "5/3", -2, 7]).to_json()
        _, out, _ = invoke(
            capsys,
            "segre-convert", "--direction", "yx-to-ym",
            "--segre", json.dumps(start),
            "--d", "4", "--chi=-1", "--eu=2", "--format", "json",
        )
        middle = json.loads(out)["s_YM"]
        _, out, _ = invoke(
            capsys,
            "segre-convert", "--direction", "ym-to-yx",
            "--segre", json.dumps(middle),
            "--d", "4", "--chi=-1", "--eu=2", "--format", "json",
        )
        assert json.loads(out)["s_YX"] == start

    def test_table_and_json_render_identical_rationals(self, capsys):
        cone = json.dumps(
            {
                "n": 3, "r": 2, "d": "3",
                "polar": {
                    "0": {"ambient_dim": 3, "coeffs_by_codim": ["0", "3", "0", "0"]},
                    "1": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "4", "0"]},
                },
            }
        )
        _, table, _ = invoke(capsys, "interpolate", "--spec", cone, "--alpha", "1/2")
        _, as_json, _ = invoke(
            capsys, "interpolate", "--spec", cone, "--alpha", "1/2", "--format", "json"
        )
        assert "c_alpha = 3[P^2] + 4[P^1] + 7/2[P^0]" in table
        payload = json.loads(as_json)
        assert payload["c_alpha"]["coeffs_by_codim"] == ["0", "3", "4", "7/2"]

    def test_invariants_from_json_source(self, capsys):
        code, out, _ = invoke(
            capsys,
            "csm", "--spec", SPEC_JSON,
            "--invariants", '{"chi": "-1", "eu": "2"}',
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["invariants"] == {
            "chi": "-1", "eu": "2", "rho": "1/3", "sigma": "2/3"
        }

    def test_spec_echo_keeps_ambient_tangent(self, capsys):
        spec = json.loads(SPEC_JSON)
        spec["ambient_tangent"] = {"ambient_dim": 3, "coeffs_by_degree": ["1", "3", "5/2", "-7/3"]}
        text = json.dumps(spec)
        code, out, _ = invoke(capsys, "csm-polar", "--spec", text, "--chi=-1", "--eu=2",
                              "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out)["inputs"]["spec"]) == text

    def test_multiplicities_echoes_parsed_rationals(self, capsys):
        code, out, _ = invoke(
            capsys,
            "multiplicities", "--chi", " -2/4", "--eu=+2", "--dim-x", "2", "--dim-y", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["inputs"] == {"chi": "-1/2", "eu": "2", "dim_x": 2, "dim_y": 1}


class TestScenarioCommand:
    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "run-scenario", "tangent-developable")
        assert code == 0
        assert "scenario tangent-developable: PASS" in out

    def test_json_with_param(self, capsys):
        code, out, _ = invoke(
            capsys, "run-scenario", "cone-over-nodal-curve", "--param", "d=5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["inputs"]["spec"]["d"] == "5"

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        def failing(name, **params):
            report = scenarios.ScenarioReport(name, {}, [])
            report.check("value", 1, 2, "derived")
            return report

        monkeypatch.setattr(scenarios, "run_scenario", failing)
        code, out, _ = invoke(capsys, "run-scenario", "tangent-developable")
        assert code == 1
        assert out.startswith("scenario tangent-developable: FAIL")

    def test_unknown_scenario_is_validation_error(self, capsys):
        code, _, err = invoke(capsys, "run-scenario", "no-such-scenario")
        assert code == 3
        assert "unknown scenario" in err

    def test_param_values_are_wire_rationals(self, capsys):
        code, out, _ = invoke(
            capsys, "run-scenario", "smooth-hypersurface", "--param", "n=3", "--param", "d=4"
        )
        assert code == 0
        assert "scenario smooth-hypersurface: PASS" in out
        code, _, err = invoke(capsys, "run-scenario", "cone-over-nodal-curve", "--param", "d=5/2")
        assert code == 3
        assert "must be an integer, got Fraction" in err
        # int() would take "1_0" as 10; the wire format rejects it, like --d 1_0
        code, out, err = invoke(capsys, "run-scenario", "cone-over-nodal-curve", "--param", "d=1_0")
        assert (code, out) == (2, "")
        assert "bad rational literal '1_0'" in err

    def test_integer_flags_are_wire_integers(self, capsys):
        # argparse's int would take "1_0" as 10; the wire syntax [+-]?\d+ does not
        for argv in (
            ["fulton", "--n", "1_0", "--d", "4"],
            ["multiplicities", "--chi=-1", "--eu=2", "--dim-x", "1_0", "--dim-y", "1"],
            ["multiplicities", "--chi=-1", "--eu=2", "--dim-x", "2", "--dim-y", "0_1"],
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "invalid int value: '" in err
        assert invoke(capsys, "fulton", "--n", "+3", "--d", "4")[:2] == (
            0, "c_fulton = 4[P^2] + 24[P^0]\n"
        )
        assert invoke(capsys, "fulton", "--n", "2.0", "--d", "4")[0] == 2
        assert invoke(capsys, "fulton", "--n", "7" * 5000, "--d", "4")[0] == 2

    def test_integer_flags_strip_spaces_but_take_no_slash(self, capsys):
        assert invoke(capsys, "fulton", "--n", " 3 ", "--d", "4")[:2] == (
            0, "c_fulton = 4[P^2] + 24[P^0]\n"
        )
        code, out, err = invoke(capsys, "fulton", "--n", "3/1", "--d", "4")
        assert (code, out) == (2, "")
        assert "invalid int value: '3/1'" in err

    def test_table_text_is_pinned(self, capsys):
        code, out, _ = invoke(capsys, "run-scenario", "cone-over-nodal-curve", "--param", "d=5")
        assert code == 0
        assert out == "\n".join([
            "scenario cone-over-nodal-curve: PASS",
            "  [pass] alpha_poly_codim_1                  [published]  [5, 0, 0]",
            "  [pass] alpha_poly_codim_2                  [published]  [-3, -2, 0]",
            "  [pass] alpha_poly_codim_3                  [published]  [-21, 66, 10]",
            "  [pass] engine_matches_poly_at_extra_alpha  [derived]  "
            "5[P^2] - 11/3[P^1] + 19/9[P^0]",
            "  [pass] alpha_sweep_consistent              [derived]  {mismatched_alphas: []}",
            "  [pass] csm_codim2_matches_at_alpha_half    [published]  -4",
            "  [pass] unique_candidate_alpha              [derived]  1/2",
            "  [pass] no_alpha_matches_csm                [published]  "
            "{codim3_at_candidate: 29/2, codim3_csm: -8, alpha_exists: False}",
        ]) + "\n"

    def test_help_names_every_scenario(self, capsys):
        assert cli._SCENARIO_NAMES == tuple(sorted(scenarios.SCENARIOS))
        assert invoke(capsys, "run-scenario", "--help")[0] == 0

    def test_bad_param_shape(self, capsys):
        code, _, err = invoke(
            capsys, "run-scenario", "smooth-hypersurface", "--param", "n3"
        )
        assert code == 2
        assert "key=value" in err


# one call of every compute subcommand on the tangent-developable fixtures
DISPATCHED = [
    ["fulton", "--n", "3", "--d", "4"],
    ["polar-total", "--spec", SPEC_JSON],
    ["mather", "--spec", SPEC_JSON, "--method", "double-sum"],
    ["interpolate", "--spec", SPEC_JSON, "--alpha", "1/3"],
    ["csm", "--spec", SPEC_JSON, "--chi=-1", "--eu=2"],
    ["csm-polar", "--spec", SPEC_JSON, "--chi=-1", "--eu=2"],
    ["segre-polar", "--spec", SPEC_JSON],
    ["segre-convert", "--direction", "yx-to-ym", "--segre", json.dumps(
        fixture_json("tangent_developable_cy.json")), "--d", "4", "--chi=-1", "--eu=2"],
    ["solve-invariants", "--lhs", LHS_JSON, "--cy", CY_JSON, "--d", "4"],
    ["multiplicities", "--chi=-1", "--eu=2", "--dim-x", "2", "--dim-y", "1"],
]


class TestDispatcher:
    @pytest.mark.parametrize("argv", DISPATCHED, ids=lambda argv: argv[0])
    def test_table_lines_match_json_results(self, capsys, argv):
        code, table, _ = invoke(capsys, *argv)
        assert code == 0
        code, as_json, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(as_json)
        assert list(payload)[0] == "inputs"
        keys = [line.split(" = ", 1)[0] for line in table.splitlines()]
        assert keys == list(payload)[1:]
        if "--spec" in argv:
            echoed = payload["inputs"]["spec"]
            assert list(payload["inputs"])[0] == "spec"
            assert HypersurfaceSpec.from_json(echoed) == HypersurfaceSpec.from_json(
                json.loads(SPEC_JSON)
            )
        else:
            assert "spec" not in payload["inputs"]

    def test_every_compute_subcommand_is_covered(self, capsys):
        usage = invoke(capsys, "--help")[1]
        names = set(usage[usage.index("{") + 1 : usage.index("}")].split(","))
        assert names - {"run-scenario"} == {argv[0] for argv in DISPATCHED}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "chern-numbers")
        assert code == 2

    def test_malformed_json(self, capsys):
        code, _, err = invoke(capsys, "polar-total", "--spec", "{not json")
        assert code == 2
        assert "bad JSON" in err

    def test_oversize_literal_is_parse_error(self, capsys):
        # past the interpreter's 4,300-digit limit on int-string conversion
        assert run(["fulton", "--n", "3", "--d", "7" * 5000]) == 2
        assert run(["multiplicities", "--chi", "7" * 5000, "--eu", "2",
                    "--dim-x", "2", "--dim-y", "1"]) == 2
        assert "rational literal too long" in capsys.readouterr().err

    def test_answer_past_digit_limit_is_printed(self, capsys):
        # d = 10^3000 - 1 parses; c_fulton = d[P^1] - d(d - 3)[P^0] does not
        d = "9" * 3000
        top = "9" * 2999 + "5" + "0" * 2999 + "4"  # d(d - 3), 6,000 digits
        code, out, _ = invoke(capsys, "fulton", "--n", "2", "--d", d)
        assert code == 0
        assert out == f"c_fulton = {d}[P^1] - {top}[P^0]\n"
        code, out, _ = invoke(capsys, "fulton", "--n", "2", "--d", d, "--format", "json")
        assert code == 0
        assert json.loads(out)["c_fulton"]["coeffs_by_codim"] == ["0", d, "-" + top]

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr("csmcalc.cli._cmd_fulton", broken)
        code, out, err = invoke(capsys, "fulton", "--n", "3", "--d", "4")
        assert code == 6
        assert out == ""
        assert err == "error: internal: RuntimeError: kernel fault\n"

    def test_oversize_json_number_is_parse_error(self, capsys):
        spec = SPEC_JSON.replace('"n": 3', '"n": ' + "3" * 5000)
        assert spec != SPEC_JSON
        code, _, err = invoke(capsys, "polar-total", "--spec", spec)
        assert code == 2
        assert "bad JSON" in err

    def test_unknown_key(self, capsys):
        bad = json.loads(SPEC_JSON)
        bad["degree"] = "4"
        code, _, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
        assert code == 2
        assert "unknown key" in err

    def test_wire_length_mismatch(self, capsys):
        code, _, err = invoke(
            capsys,
            "solve-invariants",
            "--lhs", '{"ambient_dim": 3, "coeffs_by_codim": ["0", "9", "18"]}',
            "--cy", CY_JSON, "--d", "4",
        )
        assert code == 2
        assert "exactly 4 entries" in err

    def test_wrong_polar_support_is_validation(self, capsys):
        bad = json.loads(SPEC_JSON)
        bad["polar"]["1"] = {"ambient_dim": 3, "coeffs_by_codim": ["0", "3", "0", "0"]}
        code, _, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
        assert code == 3
        assert "supported in dimension" in err

    def test_non_integer_wire_dimension_is_parse_error(self, capsys):
        bad = json.loads(SPEC_JSON)
        bad["n"] = 2.5
        code, _, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
        assert code == 2
        assert "n must be an integer" in err

    def test_negative_fulton_n_is_validation_error(self, capsys):
        code, _, err = invoke(capsys, "fulton", "--n=-1", "--d", "4")
        assert code == 3
        assert "n must be >= 1" in err

    def test_non_decimal_polar_key_is_parse_error(self, capsys):
        # "²".isdigit() is true, but int("²") raises
        bad = json.loads(SPEC_JSON)
        bad["polar"]["\u00b2"] = bad["polar"].pop("1")
        code, _, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
        assert code == 2
        assert "is not a polar index" in err

    def test_repeated_polar_index_is_parse_error(self, capsys):
        # "01" and "\u0661" are polar index 1 again; neither may overwrite it
        for key in ("01", "\u0661"):
            bad = json.loads(SPEC_JSON)
            bad["polar"][key] = {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "5", "0"]}
            code, out, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
            assert (code, out) == (2, "")
            assert "repeats polar index 1" in err

    def test_overlong_polar_key_is_parse_error(self, capsys):
        # past the interpreter's 4,300-digit limit, int() of the key raises ValueError
        bad = json.loads(SPEC_JSON)
        bad["polar"]["1" * 5000] = bad["polar"].pop("1")
        code, out, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
        assert (code, out) == (2, "")
        assert "rational literal too long" in err

    def test_input_that_is_not_utf8_is_parse_error(self, tmp_path, monkeypatch, capsys):
        raw = SPEC_JSON.encode().replace(b'"r"', b'"r\xff"')
        path = tmp_path / "spec.json"
        path.write_bytes(raw)
        code, out, err = invoke(capsys, "polar-total", "--spec", str(path))
        assert (code, out) == (2, "")
        assert "cannot read" in err and "can't decode byte 0xff" in err
        # stdin as a UTF-8 locale opens it: strict decoding
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        code, out, err = invoke(capsys, "polar-total", "--spec", "-")
        assert (code, out) == (2, "")
        assert "cannot read '-'" in err and "can't decode byte 0xff" in err

    def test_deeply_nested_json_is_parse_error(self, capsys):
        spec = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"
        code, out, err = invoke(capsys, "polar-total", "--spec", spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad JSON: ")

    @pytest.mark.parametrize("argv", [
        ["csm", "--spec", "-", "--invariants", "-"],
        ["solve-invariants", "--lhs", "-", "--cy", "-", "--d", "4"],
    ], ids=lambda argv: argv[0])
    def test_stdin_given_to_two_flags_is_parse_error(self, monkeypatch, capsys, argv):
        stdin = io.StringIO(SPEC_JSON)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert "standard input" in err
        assert stdin.tell() == 0  # refused before any source was read

    def test_polar_entry_that_is_an_array_is_parse_error(self, capsys):
        bad = json.loads(SPEC_JSON)
        bad["polar"]["1"] = ["0", "0", "3", "0"]
        code, out, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
        assert (code, out) == (2, "")
        assert "graded class must be a JSON object" in err

    def test_polar_that_is_an_array_is_parse_error(self, capsys):
        bad = {**json.loads(SPEC_JSON), "polar": [1]}
        code, out, err = invoke(capsys, "polar-total", "--spec", json.dumps(bad))
        assert (code, out) == (2, "")
        assert "polar must be an object" in err

    def test_spec_file_holding_an_array_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(f"[{SPEC_JSON}]")
        code, out, err = invoke(capsys, "polar-total", "--spec", str(path))
        assert (code, out) == (2, "")
        assert "top-level JSON value must be an object" in err

    def test_inline_array_is_read_as_json_not_a_path(self, capsys):
        code, out, err = invoke(capsys, "polar-total", "--spec", f" [{SPEC_JSON}]")
        assert (code, out) == (2, "")
        assert err == "error: top-level JSON value must be an object\n"

    def test_ambient_dimension_past_maxsize_is_validation_error(self, capsys):
        spec = f'{{"n": {10**400}, "r": 2, "d": "4", "polar": {{}}}}'
        code, out, err = invoke(capsys, "polar-total", "--spec", spec)
        assert (code, out) == (3, "")
        assert "ambient projective dimension n must be below" in err

    @pytest.mark.usefixtures("no_binomials")
    @pytest.mark.parametrize("n", [sys.maxsize, 10**400], ids=["maxsize", "10^400"])
    @pytest.mark.parametrize(
        "argv",
        [("fulton", "--n", "{n}", "--d", "2"),
         ("run-scenario", "smooth-hypersurface", "--param", "n={n}", "--param", "d=2")],
        ids=["fulton", "smooth-hypersurface"],
    )
    def test_unbounded_dimension_is_validation_error(self, capsys, argv, n):
        code, out, err = invoke(capsys, *(a.format(n=n) for a in argv))
        assert (code, out) == (3, "")
        assert f"must be below {sys.maxsize}" in err

    def test_normal_bundle_on_another_pn_is_dimension_error(self, capsys):
        normal = {
            "rank": 1,
            "total_chern": {"ambient_dim": 4, "coeffs_by_degree": ["1", "4", "0", "0", "0"]},
        }
        code, out, err = invoke(
            capsys, "segre-polar", "--spec", SPEC_JSON, "--normal", json.dumps(normal)
        )
        assert (code, out) == (3, "")
        assert "normal bundle series has the wrong ambient dimension" in err

    def test_missing_input_flag(self, capsys):
        code, _, _ = invoke(capsys, "csm", "--spec", SPEC_JSON)
        assert code == 2  # no invariants given

    def test_degenerate_invariants(self, capsys):
        code, _, err = invoke(
            capsys, "csm", "--spec", SPEC_JSON, "--chi=1", "--eu=2"
        )
        assert code == 4
        assert "chi = 1" in err

    def test_underdetermined_solver(self, capsys):
        code, _, err = invoke(
            capsys,
            "solve-invariants",
            "--lhs", '{"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "0", "6"]}',
            "--cy", '{"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "0", "2"]}',
            "--d", "4",
        )
        assert code == 3
        assert "rank" in err

    def test_inconsistent_solver(self, capsys):
        code, _, err = invoke(
            capsys,
            "solve-invariants",
            "--lhs", '{"ambient_dim": 3, "coeffs_by_codim": ["0", "1", "3", "6"]}',
            "--cy", '{"ambient_dim": 3, "coeffs_by_codim": ["0", "1", "2", "3"]}',
            "--d", "1",
        )
        assert code == 5
        assert "not consistent" in err

    def test_segre_polar_needs_normal_when_not_hypersurface(self, capsys):
        spec = {
            "n": 3, "r": 1, "d": "4/3",
            "polar": {
                "0": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "3", "0"]},
                "1": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "0", "4"]},
            },
        }
        code, _, err = invoke(capsys, "segre-polar", "--spec", json.dumps(spec))
        assert code == 3
        assert "--normal" in err

    def test_interpolate_rejects_non_hypersurface(self, capsys):
        spec = {
            "n": 3, "r": 1, "d": "4/3",
            "polar": {"0": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "3", "0"]}},
        }
        code, _, err = invoke(
            capsys, "interpolate", "--spec", json.dumps(spec), "--alpha", "0"
        )
        assert code == 3
        assert "r = n-1" in err

    def test_both_invariant_sources_rejected(self, capsys):
        code, _, err = invoke(
            capsys,
            "csm", "--spec", SPEC_JSON,
            "--chi=-1", "--eu=2", "--invariants", '{"chi": "-1", "eu": "2"}',
        )
        assert code == 2
        assert "not both" in err

    @pytest.mark.parametrize("flag", ("--chi=-1", "--eu=2"))
    def test_half_an_invariant_pair(self, capsys, flag):
        code, out, err = invoke(capsys, "csm", "--spec", SPEC_JSON, flag)
        assert (code, out, err) == (2, "", "error: need --chi and --eu (or --invariants)\n")
        code, _, err = invoke(
            capsys, "csm", "--spec", SPEC_JSON, flag, "--invariants", '{"chi": "-1", "eu": "2"}'
        )
        assert code == 2
        assert "not both" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "polar-total", "--spec", "no/such/file.json")
        assert code == 2
        assert "cannot read" in err


class TestNormalBundleInput:
    def test_general_codimension_segre(self, capsys):
        # twisted cubic on a quadric: smooth, so s(Y,X) = 0
        spec = {
            "n": 3, "r": 1, "d": "4/3",
            "polar": {
                "0": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "3", "0"]},
                "1": {"ambient_dim": 3, "coeffs_by_codim": ["0", "0", "0", "4"]},
            },
        }
        normal = {
            "rank": 2,
            "total_chern": {"ambient_dim": 3, "coeffs_by_degree": ["1", "10/3", "0", "0"]},
        }
        code, out, _ = invoke(
            capsys,
            "segre-polar", "--spec", json.dumps(spec), "--normal", json.dumps(normal),
        )
        assert code == 0
        assert "s_YX = 0" in out

    def test_rank_mismatch(self, capsys):
        normal = {
            "rank": 2,
            "total_chern": {"ambient_dim": 3, "coeffs_by_degree": ["1", "0", "0", "0"]},
        }
        code, _, err = invoke(
            capsys, "segre-polar", "--spec", SPEC_JSON, "--normal", json.dumps(normal)
        )
        assert code == 3
        assert "rank" in err


def test_cli_import_leaves_out_dataclasses_and_scenarios():
    """Every CLI call imports csmcalc.cli afresh: dataclasses and scenarios
    stay out of that import, and the package still offers every name."""
    src = Path(csmcalc.__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        import csmcalc.cli
        loaded = {{"dataclasses", "csmcalc.scenarios"}} & set(sys.modules)
        assert not loaded, loaded
        import csmcalc
        assert csmcalc.run_scenario.__module__ == "csmcalc.scenarios"
        names = {{}}
        exec("from csmcalc import *", names)
        missing = set(csmcalc.__all__) - set(names) | set(csmcalc.__all__) - set(dir(csmcalc))
        assert not missing, missing
    """)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_cli_by_sigpipe():
    """A stdout whose reader is gone is no package defect: the CLI is killed by
    SIGPIPE, as other filters are, and writes nothing to stderr."""
    src = str(Path(csmcalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    read, write = os.pipe()
    os.close(read)  # before the CLI starts: its first write meets a closed pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "csmcalc.cli", "run-scenario", "tangent-developable"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, b"")
