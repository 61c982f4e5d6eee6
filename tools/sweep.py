"""Layer-1 and route timings over a sweep of ambient dimensions.

Writes ``BENCH_<label>.json`` at the root of this checkout:

    python3 tools/sweep.py LABEL [--src DIR]

``--src`` names the ``src`` directory of the engine to time (by default
this checkout's), so that two trees can be swept with one copy of this
script.  For each n in ``SIZES`` the file holds the median
``perf_counter_ns`` of

* ``_convolve`` and ``HSeries.cap`` of c(TP^n) with a one-piece class, a
  dense class of 14-bit entries (``dense-narrow``, the shape of the polar
  route's cap) and one of 400-bit entries (``dense-wide``);
* ``_reduce`` of the raw result of ``div_linear`` at lambda = 24/7 on the
  dense-narrow class;
* every formula route on ``sparse`` polar data (only P_0 and P_1 nonzero)
  and on ``dense`` polar data (every P_k nonzero), with the SHA-256 of the
  route's wire output, which two trees that compute the same answers
  share; and ``HypersurfaceSpec.from_json`` and the Mather class's
  ``to_json``.

A route that reads a class cached on the spec gets a fresh spec for each
call, built outside the timer, so its time includes building that class.
The speed of a shared machine drifts for seconds at a time, so the sweep
makes PASSES passes over all rows, and a row's figure is the median of
its passes' medians: a slow stretch moves one pass of each row it
touches.  The file also records the Python version,
``sys.dont_write_bytecode`` and the processor.  Stdlib only; not part of
the test suite or CI.  A sweep takes about half a minute.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import re
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
SIZES = (3, 10, 24, 30, 60, 120, 240)  # 24: the dense-twist workload's n
PASSES = 7
BUDGET_NS = 40_000_000  # samples of a row in one pass stop after this much timed work ...
LEAST, MOST = 3, 21  # ... once there are LEAST of them, and at MOST
BATCH_NS = 20_000  # a call faster than this is timed in batches of about this length
DEGREE = 4
INVARIANTS = {"chi": "5", "eu": "3"}
ALPHA = Fraction(2, 5)


def median_ns(call, fresh=None) -> tuple[float, int]:
    """Median time of one call in one pass, in ns, and the number of samples.  With
    ``fresh``, each call gets ``fresh()``'s arguments, built untimed, and
    is timed alone; without it, fast calls are timed in batches."""
    gc.collect()
    args = fresh() if fresh else ()
    start = perf_counter_ns()
    call(*args)
    batch = 1 if fresh else max(1, BATCH_NS // max(1, perf_counter_ns() - start))
    samples, spent = [], 0
    while len(samples) < MOST and (len(samples) < LEAST or spent < BUDGET_NS):
        args = fresh() if fresh else ()
        start = perf_counter_ns()
        for _ in range(batch):
            call(*args)
        took = perf_counter_ns() - start
        samples.append(took / batch)
        spent += took
    return statistics.median(samples), len(samples)


def wire_sha256(value) -> str:
    """SHA-256 of a route result's wire form: a class by its to_json, a
    pair of rationals as their strings."""
    wire = value.to_json() if hasattr(value, "to_json") else [str(x) for x in value]
    return hashlib.sha256(json.dumps(wire, sort_keys=True).encode()).hexdigest()


def spec_wire(n, dense, rng) -> dict:
    """A hypersurface (r = n - 1) of degree DEGREE: P_0 = DEGREE [P^(n-1)],
    and P_k a random integer in 1..10^6 in codimension k + 1 for every k
    (dense) or for k = 1 only (sparse)."""

    def single(codim, value):
        coeffs = ["0"] * (n + 1)
        coeffs[codim] = str(value)
        return {"ambient_dim": n, "coeffs_by_codim": coeffs}

    polar = {"0": single(1, DEGREE)}
    for k in range(1, n if dense else min(2, n)):
        polar[str(k)] = single(k + 1, rng.randint(1, 10**6))
    return {"n": n, "r": n - 1, "d": str(DEGREE), "polar": polar}


def kernel_rows(chow, n, rng) -> list[tuple]:
    """(row, call, fresh) for each layer-1 row at n."""
    tangent = chow.tangent_chern(n)
    classes = {
        "one-piece": chow.GradedClass.single(n, 1, DEGREE),
        "dense-narrow": chow.GradedClass._reduce(
            n, [rng.choice((-1, 1)) * rng.getrandbits(14) for _ in range(n + 1)], 1
        ),
        "dense-wide": chow.GradedClass._reduce(
            n, [rng.choice((-1, 1)) * rng.getrandbits(400) for _ in range(n + 1)], 1
        ),
    }
    rows = []
    for operands, cls in classes.items():
        rows += [
            ({"op": "_convolve", "operands": operands, "n": n},
             lambda a=cls._nums: chow._convolve(a, tangent._nums), None),
            ({"op": "cap", "operands": operands, "n": n}, lambda c=cls: tangent.cap(c), None),
        ]

    raw = []  # the arguments div_linear hands to _reduce, caught once
    reduce = chow.GradedClass._reduce
    chow.GradedClass._reduce = classmethod(lambda cls, *args: raw.append(args) or reduce(*args))
    try:
        classes["dense-narrow"].div_linear(Fraction(24, 7))
    finally:
        del chow.GradedClass._reduce
    m, nums, den = raw[0]
    rows.append(({"op": "_reduce", "operands": "div_linear 24/7", "n": n},
                 lambda: chow.GradedClass._reduce(m, nums, den), None))
    return rows


def route_rows(cc, n, data, wire) -> list[tuple]:
    """(row, call, fresh) for each route at n on one kind of polar data,
    the row with the SHA-256 of the route's wire output."""
    inv = cc.InvariantData.from_json(INVARIANTS)
    spec = cc.HypersurfaceSpec.from_json(wire)
    d = spec.d
    c_fulton = cc.fulton_class(n, d)
    c_mather = cc.mather_from_polar(spec)
    normal = cc.BundleData.line(n, d)
    s_yx = cc.segre_from_polar(spec, normal)
    s_ym = cc.segre_yx_to_ym(s_yx, d, inv)
    c_y = spec.fundamental_class.mul_linear(1, 3)  # any class with c_y[1] != 0
    lhs = c_y.mul_linear(inv.eu - inv.chi, (inv.eu - 1) * d)  # planted: solves to inv
    fresh_spec = lambda: (cc.HypersurfaceSpec.from_json(wire),)  # noqa: E731
    routes = {  # name: (call, fresh arguments or None)
        "from_json": (lambda: cc.HypersurfaceSpec.from_json(wire), None),
        "total_polar_class": (cc.total_polar_class, fresh_spec),
        "mather_from_polar": (cc.mather_from_polar, fresh_spec),
        "to_json": (lambda: c_mather.to_json(), None),
        "mather_double_sum": (cc.mather_double_sum, fresh_spec),
        "csm_from_polar": (lambda s: cc.csm_from_polar(s, inv), fresh_spec),
        "fulton_class": (lambda: cc.fulton_class(n, d), None),
        "interpolated_class": (lambda: cc.interpolated_class(c_fulton, c_mather, d, ALPHA), None),
        "csm_from_interpolation": (
            lambda: cc.csm_from_interpolation(c_fulton, c_mather, d, inv), None
        ),
        "solver_lhs": (lambda: cc.solver_lhs(c_mather, c_fulton, d), None),
        "solve_invariants": (lambda: cc.solve_invariants(lhs, c_y, d), None),
        "segre_from_polar": (lambda s: cc.segre_from_polar(s, normal), fresh_spec),
        "segre_yx_to_ym": (lambda: cc.segre_yx_to_ym(s_yx, d, inv), None),
        "segre_ym_to_yx": (lambda: cc.segre_ym_to_yx(s_ym, d, inv), None),
        "mather_from_segre": (lambda: cc.mather_from_segre(s_yx, n, d), None),
        "csm_from_segre": (lambda: cc.csm_from_segre(s_ym, n, d), None),
    }
    rows = []
    for name, (call, fresh) in routes.items():
        row = {"op": "route", "route": name, "data": data, "n": n}
        if name not in ("from_json", "to_json"):
            row["sha256"] = wire_sha256(call(*fresh()) if fresh else call())
        rows.append((row, call, fresh))
    return rows


def processor() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file is BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the engine to time")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("label: letters, digits, '_', '.' and '-' only")
    sys.path.insert(0, str(args.src.resolve()))
    from csmcalc import charclass as cc, chow

    timed = []
    for n in SIZES:
        rng = random.Random(f"sweep-{n}")
        timed += kernel_rows(chow, n, rng)
        for data in ("sparse", "dense"):
            timed += route_rows(cc, n, data, spec_wire(n, data == "dense", rng))
    passes = [[] for _ in timed]
    for k in range(PASSES):
        for (_, call, fresh), got in zip(timed, passes):
            got.append(median_ns(call, fresh))
        print(f"pass {k + 1} of {PASSES}", file=sys.stderr)
    rows = [
        {**row, "median_ns": round(statistics.median(m for m, _ in got)),
         "samples": sum(count for _, count in got)}
        for (row, _, _), got in zip(timed, passes)
    ]
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "python": platform.python_version(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "processor": processor(),
        "cpu_count": os.cpu_count(),
        "sizes": list(SIZES),
        "rows": rows,
    }, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
