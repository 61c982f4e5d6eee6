"""Command-line front end.

Every subcommand reads classes and specs in the JSON wire formats,
dispatches to the exact engine, and renders results either as a short
table (classes printed highest dimension first) or as JSON that can be
piped straight back in.  All configuration is by flags; exit codes are
0 success, 1 failing scenario, 2 parse, 3 validation, 4 degenerate
invariants, 5 inconsistent system, 6 internal error, 7 a failed write to
standard output (a full disk); where the platform has SIGPIPE, ``main``
ends by it when standard output is a closed pipe.

The subcommands are one table in ``_build_parser``: a name, help, a
compute function returning ``(inputs, results)`` and the arguments.  One
dispatcher loads ``--spec`` where a subcommand takes it (passing it in
and echoing it first in ``inputs``) and prints the results as table
lines or JSON; ``run-scenario`` prints its report itself.  Integer flags
take the wire syntax ``[+-]?\\d+``: ``1_0`` is a parse error.  Standard
input (``-``) feeds one input flag only.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from . import charclass
from .charclass import BundleData, HypersurfaceSpec, InvariantData
from .chow import GradedClass, _encode, _render, parse_rational
from .errors import (
    INTERNAL_ERROR_EXIT,
    OUTPUT_ERROR_EXIT,
    CharClassError,
    InputParseError,
    ValidationError,
)

# sorted(scenarios.SCENARIOS), spelled out so that --help needs no scenarios import
_SCENARIO_NAMES = ("cone-over-nodal-curve", "smooth-hypersurface", "tangent-developable")
# the flags _load_source reads, by dest: "-" (stdin) may feed one of them only
_SOURCES = ("spec", "invariants", "normal", "segre", "lhs", "cy")


class _OutputError(CharClassError):
    """A write to standard output failed: the environment's fault, not a defect."""

    exit_code = OUTPUT_ERROR_EXIT


def _emit(text: str) -> None:
    """Print text and flush standard output, so that a buffered write fails
    here as an unbuffered one does; an OSError of either is _OutputError."""
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(f"cannot write output: {exc.strerror or exc}") from exc


def _load_source(value: str) -> dict:
    """Resolve an input source: a file path, '-' for stdin, or inline JSON ('{' or '[' first)."""
    try:
        if value == "-":
            text = sys.stdin.read()
        elif value.lstrip().startswith(("{", "[")):
            text = value
        else:
            with open(value, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or bytes that are not UTF-8
        raise InputParseError(f"cannot read {value!r}: {exc}") from exc
    try:  # JSONDecodeError, an int past the digit limit, or nesting past the recursion limit
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputParseError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputParseError("top-level JSON value must be an object")
    return data


def _wire_int(value: str) -> int:
    """argparse type of the integer flags: a literal with no "/" that
    parse_rational reads, the rule of _parse_params.  It raises
    ArgumentTypeError, which argparse turns into exit 2 with the message
    int would give; a CharClassError would escape parse_args."""
    try:
        if "/" not in value:
            return int(parse_rational(value))
    except InputParseError:  # not a literal, or past the reader's digit bound
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")


def _load_invariants(args) -> InvariantData:
    if args.invariants is not None:
        if args.chi is not None or args.eu is not None:
            raise InputParseError("give either --invariants or --chi/--eu, not both")
        return InvariantData.from_json(_load_source(args.invariants))
    if args.chi is None or args.eu is None:
        raise InputParseError("need --chi and --eu (or --invariants)")
    return InvariantData(parse_rational(args.chi), parse_rational(args.eu))


def _fulton_and_mather(spec: HypersurfaceSpec):
    """c_F and c_Ma for the interpolation route, which takes only a
    hypersurface of P^n itself."""
    if spec.r != spec.n - 1:
        raise ValidationError(
            "the interpolation route needs a hypersurface of P^n itself (r = n-1); "
            f"got r={spec.r}, n={spec.n}"
        )
    return charclass.fulton_class(spec.n, spec.d), charclass.mather_from_polar(spec)


def _cmd_fulton(args):
    d = parse_rational(args.d)
    return {"n": args.n, "d": d}, {"c_fulton": charclass.fulton_class(args.n, d)}


def _cmd_polar_total(args, spec):
    return {}, {"total_polar": charclass.total_polar_class(spec)}


def _cmd_mather(args, spec):
    double_sum = args.method == "double-sum"
    route = charclass.mather_double_sum if double_sum else charclass.mather_from_polar
    return {"method": args.method}, {"c_mather": route(spec)}


def _cmd_interpolate(args, spec):
    c_fulton, c_mather = _fulton_and_mather(spec)
    alpha = parse_rational(args.alpha)
    c_alpha = charclass.interpolated_class(c_fulton, c_mather, spec.d, alpha)
    return {"alpha": alpha}, {"c_fulton": c_fulton, "c_mather": c_mather, "c_alpha": c_alpha}


def _cmd_csm(args, spec):
    c_fulton, c_mather = _fulton_and_mather(spec)
    inv = _load_invariants(args)
    c_sm = charclass.csm_from_interpolation(c_fulton, c_mather, spec.d, inv)
    return {}, {"c_fulton": c_fulton, "c_mather": c_mather, "invariants": inv, "c_sm": c_sm}


def _cmd_csm_polar(args, spec):
    inv = _load_invariants(args)
    total_polar, c_sm = charclass.total_polar_class(spec), charclass.csm_from_polar(spec, inv)
    return {}, {"invariants": inv, "total_polar": total_polar, "c_sm": c_sm}


def _cmd_segre_polar(args, spec):
    if args.normal is not None:
        normal = BundleData.from_json(_load_source(args.normal))
    elif spec.r == spec.n - 1:
        normal = BundleData.line(spec.n, spec.d)
    else:
        raise ValidationError("--normal bundle data is required when r < n-1")
    return {"normal": normal}, {"s_YX": charclass.segre_from_polar(spec, normal)}


def _cmd_segre_convert(args):
    inv = _load_invariants(args)
    d = parse_rational(args.d)
    cls = GradedClass.from_json(_load_source(args.segre))
    if args.direction == "yx-to-ym":
        results = {"s_YM": charclass.segre_yx_to_ym(cls, d, inv)}
    else:
        results = {"s_YX": charclass.segre_ym_to_yx(cls, d, inv)}
    return {"segre": cls, "d": d, "direction": args.direction}, results


def _cmd_solve_invariants(args):
    lhs = GradedClass.from_json(_load_source(args.lhs))
    c_y = GradedClass.from_json(_load_source(args.cy))
    d = parse_rational(args.d)
    eu, chi = charclass.solve_invariants(lhs, c_y, d)
    return {"lhs": lhs, "c_y": c_y, "d": d}, {"invariants": InvariantData(chi, eu)}


def _cmd_multiplicities(args):
    chi, eu = parse_rational(args.chi), parse_rational(args.eu)
    m, n = charclass.exceptional_multiplicities(chi, eu, args.dim_x, args.dim_y)
    inputs = {"chi": chi, "eu": eu, "dim_x": args.dim_x, "dim_y": args.dim_y}
    return inputs, {"multiplicities": {"m": m, "n": n}}


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
    json_mode = args.format == "json"
    _emit(json.dumps(report.to_json(), indent=2) if json_mode else report.render_table())
    return 0 if report.passed else 1


def _pairs(value) -> str:
    """A table line's value: a dict or InvariantData as `k = v` pairs
    joined by two spaces, every leaf through _render."""
    if isinstance(value, InvariantData):
        value = {"Eu": value.eu, "chi": value.chi, "rho": value.rho, "sigma": value.sigma}
    if isinstance(value, dict):
        return "  ".join(f"{k} = {_render(v)}" for k, v in value.items())
    return _render(value)


def _dispatch(args) -> int:
    """Run the parsed subcommand and print its results."""
    if args.subcommand == "run-scenario":  # a report is not a results dict: it prints itself
        return args.compute(args)
    from_stdin = [f"--{f}" for f in _SOURCES if getattr(args, f, None) == "-"]
    if len(from_stdin) > 1:  # checked before any read: the first would drain it
        flags = ", ".join(from_stdin)
        raise InputParseError(f"standard input (-) can feed one flag only, got it for {flags}")
    if "spec" in args:
        spec = HypersurfaceSpec.from_json(_load_source(args.spec))
        inputs, results = args.compute(args, spec)
        inputs = {"spec": spec, **inputs}
    else:
        inputs, results = args.compute(args)
    if args.format == "json":
        _emit(json.dumps(_encode({"inputs": inputs, **results}), indent=2))
    else:
        _emit("\n".join(f"{key} = {_pairs(value)}" for key, value in results.items()))
    return 0


_SPEC_HELP = "hypersurface spec JSON (file path, inline JSON, or - for stdin)"
_SPEC = ("--spec", {"required": True, "help": _SPEC_HELP})
_DIVISOR = ("--d", {"required": True, "help": "divisor action (rational)"})
_INVARIANTS = (
    ("--chi", {"help": "Milnor-fiber Euler characteristic (rational)"}),
    ("--eu", {"help": "local Euler obstruction (rational)"}),
    ("--invariants", {"metavar": "SRC", "help": 'invariants JSON {"chi": ..., "eu": ...}'}),
)
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": _wire_int, "required": True}


def _build_parser() -> argparse.ArgumentParser:
    # built on each run(), so every row names the compute function current at that call
    table = (
        ("fulton", "Fulton class of a degree-d hypersurface of P^n", _cmd_fulton,
            ("--n", _REQUIRED_INT), ("--d", _REQUIRED)),
        ("polar-total", "signed O(1)-twisted total polar class [P]", _cmd_polar_total, _SPEC),
        ("mather", "Chern-Mather class from polar classes", _cmd_mather, _SPEC,
            ("--method", {"choices": ("cap", "double-sum"), "default": "cap",
                          "help": "cap against c(TP^n), or the explicit double sum"})),
        ("interpolate", "the class c_(alpha) between Mather and Fulton", _cmd_interpolate, _SPEC,
            ("--alpha", {"required": True, "help": "interpolation weight (rational)"})),
        ("csm", "CSM class via interpolation at alpha = rho", _cmd_csm, _SPEC, *_INVARIANTS),
        ("csm-polar", "CSM class straight from polar data", _cmd_csm_polar, _SPEC, *_INVARIANTS),
        ("segre-polar", "Segre class s(Y,X) of the singularity subscheme from polar data",
            _cmd_segre_polar, _SPEC,
            ("--normal", {"help": "normal bundle JSON (defaults to O(d) when r = n-1)"})),
        ("segre-convert", "convert between s(Y,X) and s(Y,M)", _cmd_segre_convert,
            ("--direction", {"choices": ("yx-to-ym", "ym-to-yx"), "required": True}),
            ("--segre", {"required": True, "help": "graded class JSON to convert"}),
            _DIVISOR, *_INVARIANTS),
        ("solve-invariants", "recover (Eu, chi) from class data", _cmd_solve_invariants,
            ("--lhs", {"required": True, "help": "(1+X)(c_Ma - c_F) as graded class JSON"}),
            ("--cy", {"required": True, "help": "pushforward of c(TY') cap [Y'] as JSON"}),
            _DIVISOR),
        ("multiplicities", "singularity cycle multiplicities (m, n)", _cmd_multiplicities,
            ("--chi", _REQUIRED), ("--eu", _REQUIRED),
            ("--dim-x", _REQUIRED_INT), ("--dim-y", _REQUIRED_INT)),
        ("run-scenario", "run a named worked example", _cmd_run_scenario,
            ("name", {"help": ", ".join(_SCENARIO_NAMES)}),
            ("--param", {"action": "append", "metavar": "KEY=VALUE",
                         "help": "scenario parameter"})),
    )
    parser = argparse.ArgumentParser(
        prog="csmcalc",
        description="Exact characteristic classes of singular projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, compute, *arguments in table:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("table", "json"), default="table", help="output mode")
        p.set_defaults(compute=compute)
    return parser


def run(argv=None) -> int:
    """Parse argv, execute, and return the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(args)
    except CharClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a defect, not bad input: report it in one line
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR_EXIT


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process, as it ends other filters
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = run()
    if code == OUTPUT_ERROR_EXIT:  # stdout still holds what it could not write: send it to
        # the null device, or the interpreter's flush at exit fails again and exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
