"""Command-line front end.

Every subcommand reads classes and specs in the JSON wire formats,
dispatches to the exact engine, and renders results either as a short
table (classes printed highest dimension first) or as JSON that can be
piped straight back in.  All configuration is by flags; exit codes are
0 success, 1 failing scenario, 2 parse, 3 validation, 4 degenerate
invariants, 5 inconsistent system, 6 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import charclass
from .charclass import BundleData, HypersurfaceSpec, InvariantData
from .chow import GradedClass, _encode, format_rational, parse_rational
from .errors import INTERNAL_ERROR_EXIT, CharClassError, InputParseError, ValidationError

# sorted(scenarios.SCENARIOS), spelled out so that --help needs no scenarios import
_SCENARIO_NAMES = ("cone-over-nodal-curve", "smooth-hypersurface", "tangent-developable")


def _load_source(value: str) -> dict:
    """Resolve an input source: a file path, '-' for stdin, or inline JSON."""
    if value == "-":
        text = sys.stdin.read()
    elif value.lstrip().startswith("{"):
        text = value
    else:
        try:
            with open(value, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputParseError(f"cannot read {value!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InputParseError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputParseError("top-level JSON value must be an object")
    return data


def _load_spec(args) -> HypersurfaceSpec:
    return HypersurfaceSpec.from_json(_load_source(args.spec))


def _load_invariants(args) -> InvariantData:
    if getattr(args, "invariants", None) is not None:
        if args.chi is not None or args.eu is not None:
            raise InputParseError("give either --invariants or --chi/--eu, not both")
        return InvariantData.from_json(_load_source(args.invariants))
    if args.chi is None or args.eu is None:
        raise InputParseError("need --chi and --eu (or --invariants)")
    return InvariantData(parse_rational(args.chi), parse_rational(args.eu))


def _require_pn_hypersurface(spec: HypersurfaceSpec, what: str) -> None:
    if spec.r != spec.n - 1:
        raise ValidationError(
            f"{what} needs a hypersurface of P^n itself (r = n-1); got r={spec.r}, n={spec.n}"
        )


def _render(value) -> str:
    if isinstance(value, InvariantData):
        return (
            f"Eu = {format_rational(value.eu)}  chi = {format_rational(value.chi)}  "
            f"rho = {format_rational(value.rho)}  sigma = {format_rational(value.sigma)}"
        )
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return "  ".join(f"{k} = {_render(v)}" for k, v in value.items())
    return str(value)


def _emit(args, inputs: dict, results: dict) -> int:
    if args.format == "json":
        payload = {"inputs": _encode(inputs)}
        for key, value in results.items():
            payload[key] = _encode(value)
        print(json.dumps(payload, indent=2))
    else:
        for key, value in results.items():
            print(f"{key} = {_render(value)}")
    return 0


def _cmd_fulton(args) -> int:
    d = parse_rational(args.d)
    result = charclass.fulton_class(args.n, d)
    return _emit(args, {"n": args.n, "d": d}, {"c_fulton": result})


def _cmd_polar_total(args) -> int:
    spec = _load_spec(args)
    return _emit(args, {"spec": spec.to_json()}, {"total_polar": charclass.total_polar_class(spec)})


def _cmd_mather(args) -> int:
    spec = _load_spec(args)
    if args.method == "double-sum":
        result = charclass.mather_double_sum(spec)
    else:
        result = charclass.mather_from_polar(spec)
    return _emit(args, {"spec": spec.to_json(), "method": args.method}, {"c_mather": result})


def _cmd_interpolate(args) -> int:
    spec = _load_spec(args)
    _require_pn_hypersurface(spec, "the interpolation route")
    alpha = parse_rational(args.alpha)
    c_fulton = charclass.fulton_class(spec.n, spec.d)
    c_mather = charclass.mather_from_polar(spec)
    c_alpha = charclass.interpolated_class(c_fulton, c_mather, spec.d, alpha)
    return _emit(
        args,
        {"spec": spec.to_json(), "alpha": alpha},
        {"c_fulton": c_fulton, "c_mather": c_mather, "c_alpha": c_alpha},
    )


def _cmd_csm(args) -> int:
    spec = _load_spec(args)
    _require_pn_hypersurface(spec, "the interpolation route")
    inv = _load_invariants(args)
    c_fulton = charclass.fulton_class(spec.n, spec.d)
    c_mather = charclass.mather_from_polar(spec)
    c_sm = charclass.csm_from_interpolation(c_fulton, c_mather, spec.d, inv)
    return _emit(
        args,
        {"spec": spec.to_json()},
        {"c_fulton": c_fulton, "c_mather": c_mather, "invariants": inv, "c_sm": c_sm},
    )


def _cmd_csm_polar(args) -> int:
    spec = _load_spec(args)
    inv = _load_invariants(args)
    return _emit(
        args,
        {"spec": spec.to_json()},
        {
            "invariants": inv,
            "total_polar": charclass.total_polar_class(spec),
            "c_sm": charclass.csm_from_polar(spec, inv),
        },
    )


def _cmd_segre_polar(args) -> int:
    spec = _load_spec(args)
    if args.normal is not None:
        normal = BundleData.from_json(_load_source(args.normal))
    elif spec.r == spec.n - 1:
        normal = BundleData.line(spec.n, spec.d)
    else:
        raise ValidationError("--normal bundle data is required when r < n-1")
    s_yx = charclass.segre_from_polar(spec, normal)
    return _emit(
        args,
        {"spec": spec.to_json(), "normal": normal.to_json()},
        {"s_YX": s_yx},
    )


def _cmd_segre_convert(args) -> int:
    inv = _load_invariants(args)
    d = parse_rational(args.d)
    cls = GradedClass.from_json(_load_source(args.segre))
    if args.direction == "yx-to-ym":
        results = {"s_YM": charclass.segre_yx_to_ym(cls, d, inv)}
    else:
        results = {"s_YX": charclass.segre_ym_to_yx(cls, d, inv)}
    return _emit(
        args,
        {"segre": cls.to_json(), "d": d, "direction": args.direction},
        results,
    )


def _cmd_solve_invariants(args) -> int:
    lhs = GradedClass.from_json(_load_source(args.lhs))
    c_y = GradedClass.from_json(_load_source(args.cy))
    d = parse_rational(args.d)
    eu, chi = charclass.solve_invariants(lhs, c_y, d)
    inv = InvariantData(chi, eu)
    return _emit(
        args,
        {"lhs": lhs.to_json(), "c_y": c_y.to_json(), "d": d},
        {"invariants": inv},
    )


def _cmd_multiplicities(args) -> int:
    m, n = charclass.exceptional_multiplicities(
        parse_rational(args.chi), parse_rational(args.eu), args.dim_x, args.dim_y
    )
    return _emit(
        args,
        {"chi": args.chi, "eu": args.eu, "dim_x": args.dim_x, "dim_y": args.dim_y},
        {"multiplicities": {"m": m, "n": n}},
    )


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise InputParseError(f"--param expects key=value, got {pair!r}")
        number = parse_rational(value)
        params[key] = number if "/" in value else int(number)
    return params


def _cmd_run_scenario(args) -> int:
    from . import scenarios  # only here: its import is a cost every other command skips

    report = scenarios.run_scenario(args.name, **_parse_params(args.param))
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_table())
    return 0 if report.passed else 1


def _add_invariant_flags(parser) -> None:
    parser.add_argument("--chi", help="Milnor-fiber Euler characteristic (rational)")
    parser.add_argument("--eu", help="local Euler obstruction (rational)")
    parser.add_argument(
        "--invariants", metavar="SRC", help='invariants JSON {"chi": ..., "eu": ...}'
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmcalc",
        description="Exact characteristic classes of singular projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    spec_help = "hypersurface spec JSON (file path, inline JSON, or - for stdin)"

    p = sub.add_parser("fulton", help="Fulton class of a degree-d hypersurface of P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", required=True)
    p.set_defaults(handler=_cmd_fulton)

    p = sub.add_parser("polar-total", help="signed O(1)-twisted total polar class [P]")
    p.add_argument("--spec", required=True, help=spec_help)
    p.set_defaults(handler=_cmd_polar_total)

    p = sub.add_parser("mather", help="Chern-Mather class from polar classes")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument(
        "--method",
        choices=("cap", "double-sum"),
        default="cap",
        help="cap against c(TP^n), or the explicit double sum",
    )
    p.set_defaults(handler=_cmd_mather)

    p = sub.add_parser("interpolate", help="the class c_(alpha) between Mather and Fulton")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--alpha", required=True, help="interpolation weight (rational)")
    p.set_defaults(handler=_cmd_interpolate)

    p = sub.add_parser("csm", help="CSM class via interpolation at alpha = rho")
    p.add_argument("--spec", required=True, help=spec_help)
    _add_invariant_flags(p)
    p.set_defaults(handler=_cmd_csm)

    p = sub.add_parser("csm-polar", help="CSM class straight from polar data")
    p.add_argument("--spec", required=True, help=spec_help)
    _add_invariant_flags(p)
    p.set_defaults(handler=_cmd_csm_polar)

    p = sub.add_parser(
        "segre-polar", help="Segre class s(Y,X) of the singularity subscheme from polar data"
    )
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--normal", help="normal bundle JSON (defaults to O(d) when r = n-1)")
    p.set_defaults(handler=_cmd_segre_polar)

    p = sub.add_parser("segre-convert", help="convert between s(Y,X) and s(Y,M)")
    p.add_argument(
        "--direction", choices=("yx-to-ym", "ym-to-yx"), required=True
    )
    p.add_argument("--segre", required=True, help="graded class JSON to convert")
    p.add_argument("--d", required=True, help="divisor action (rational)")
    _add_invariant_flags(p)
    p.set_defaults(handler=_cmd_segre_convert)

    p = sub.add_parser(
        "solve-invariants", help="recover (Eu, chi) from class data"
    )
    p.add_argument("--lhs", required=True, help="(1+X)(c_Ma - c_F) as graded class JSON")
    p.add_argument("--cy", required=True, help="pushforward of c(TY') cap [Y'] as JSON")
    p.add_argument("--d", required=True, help="divisor action (rational)")
    p.set_defaults(handler=_cmd_solve_invariants)

    p = sub.add_parser("multiplicities", help="singularity cycle multiplicities (m, n)")
    p.add_argument("--chi", required=True)
    p.add_argument("--eu", required=True)
    p.add_argument("--dim-x", type=int, required=True)
    p.add_argument("--dim-y", type=int, required=True)
    p.set_defaults(handler=_cmd_multiplicities)

    p = sub.add_parser("run-scenario", help="run a named worked example")
    p.add_argument("name", help=", ".join(_SCENARIO_NAMES))
    p.add_argument(
        "--param", action="append", metavar="KEY=VALUE", help="scenario parameter"
    )
    p.set_defaults(handler=_cmd_run_scenario)

    for p in sub.choices.values():
        p.add_argument(
            "--format", choices=("table", "json"), default="table", help="output mode"
        )
    return parser


def run(argv=None) -> int:
    """Parse argv, execute, and return the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except CharClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a defect, not bad input: report it in one line
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR_EXIT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
