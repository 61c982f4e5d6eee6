"""Layer-1, route and scenario timings over a sweep of ambient dimensions.

Writes ``BENCH_<label>.json`` at the root of this checkout:

    python3 tools/sweep.py LABEL [--src DIR] [--against DIR]

``--src`` names the ``src`` directory of the engine to time (by default
this checkout's), so that two trees can be swept with one copy of this
script.  For each n in ``SIZES`` the file holds the median
``perf_counter_ns`` of

* ``_convolve`` and ``HSeries.cap`` of c(TP^n) with a one-piece class, a
  dense class of 14-bit entries (``dense-narrow``, the shape of the polar
  route's cap) and one of 400-bit entries (``dense-wide``);
* ``GradedClass.twist`` to m = n - 1 of the one-piece class at lambda = 1
  and of the dense-narrow class at lambda = 1 and -5/3, and ``HSeries.__mul__``
  of c(TP^n) by itself;
* ``_reduce`` of the raw result of ``div_linear`` at lambda = 24/7 on the
  dense-narrow class; each of these layer-1 rows holds the SHA-256 of its
  wire output;
* every formula route on ``sparse`` polar data (only P_0 and P_1 nonzero)
  and on ``dense`` polar data (every P_k nonzero), with the SHA-256 of the
  route's wire output, which two trees that compute the same answers
  share; and ``HypersurfaceSpec.from_json`` and the Mather class's
  ``to_json``.

It also holds one row per scenario input of the small-batch bench
workload: ``run_scenario(...).to_json()`` in process, with the SHA-256 of
the report.  The data and the routes come from ``tests/route_data.py``,
and the scenario inputs from ``tests/scenario_data.py``, which the tier-1
tests ``tests/test_route_hashes.py`` and ``tests/test_scenario_hashes.py``
share: the hashes in the file are the ones ``tests/route_hashes.json`` and
``tests/scenario_hashes.json`` pin.

``--against`` names the ``src`` directory of a second engine, which is
imported in the same process under the package name ``csmcalc_against``.
Each row is then timed on both engines, one sample of each in turn for
ROUNDS rounds, and the file holds each engine's best sample
(``best_ns``, ``against_best_ns``), their ratio (``against_best_ns /
best_ns``: above 1 where the engine of ``--src`` is faster) and whether
the two answers' hashes agree.  Two sweeps run one after the other can
read a row on an untouched path up to 1.6x apart, because the machine's
speed drifts between them; samples taken in turn share the drift.  The
rows are timed so in PASSES passes over all rows, and a row's ratio is
the median of its passes' ratios: in one pass of ROUNDS rounds, rows of 20-40 us read 0.73-1.19 and rows of a few ms
0.84-1.50 across sweeps of the same two trees, while a drift of a few
seconds moves only the passes it falls in.

A route that reads a class cached on the spec gets a fresh spec for each
call, built outside the timer, so its time includes building that class.
The speed of a shared machine drifts for seconds at a time, so the sweep
makes PASSES passes over all rows, and a row's figure is the median of
its passes' medians: a slow stretch moves one pass of each row it
touches.  The file also records the Python version,
``sys.dont_write_bytecode`` and the processor.  Stdlib only; not part of
the test suite or CI.  A sweep takes about half a minute, and one with
``--against`` about two minutes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import re
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from route_data import DEGREE, SIZES, UNHASHED, draws, route_calls, wire_sha256  # noqa: E402
from scenario_data import BENCHED, report_sha256  # noqa: E402

PASSES = 7
ROUNDS = 15  # samples of each engine per row and pass with --against
BUDGET_NS = 40_000_000  # samples of a row in one pass stop after this much timed work ...
LEAST, MOST = 3, 21  # ... once there are LEAST of them, and at MOST
BATCH_NS = 20_000  # a call faster than this is timed in batches of about this length


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


def kernel_rows(chow, n, data) -> list[tuple]:
    """(row, call, fresh) for each layer-1 row at n, on the dense vectors of data."""
    tangent = chow.tangent_chern(n)
    classes = {"one-piece": chow.GradedClass.single(n, 1, DEGREE)}
    for operands in ("dense-narrow", "dense-wide"):
        classes[operands] = chow.GradedClass._reduce(n, data[operands], 1)
    rows = []
    for operands, cls in classes.items():
        rows += [
            ({"op": "_convolve", "operands": operands, "n": n},
             lambda a=cls._nums: chow._convolve(a, tangent._nums), None),
            ({"op": "cap", "operands": operands, "n": n}, lambda c=cls: tangent.cap(c), None),
        ]
    for operands, lam in (("one-piece", 1), ("dense-narrow", 1), ("dense-narrow", Fraction(-5, 3))):
        rows.append(({"op": "twist", "operands": operands, "lambda": str(lam), "n": n},
                     lambda c=classes[operands], b=chow.LineBundleOnPn(lam): c.twist(b, n - 1),
                     None))
    rows.append(({"op": "mul", "operands": "c(TP^n)", "n": n}, lambda: tangent * tangent, None))

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
    return [({**row, "sha256": wire_sha256(call())}, call, None) for row, call, _ in rows]


def route_rows(cc, n, data, wire) -> list[tuple]:
    """(row, call, fresh) for each route at n on one kind of polar data,
    the row with the SHA-256 of the route's wire output."""
    rows = []
    for name, (call, fresh) in route_calls(cc, n, wire).items():
        row = {"op": "route", "route": name, "data": data, "n": n}
        if name not in UNHASHED:
            row["sha256"] = wire_sha256(call(*fresh()) if fresh else call())
        rows.append((row, call, fresh))
    return rows


def scenario_rows(scenarios) -> list[tuple]:
    """(row, call, None) for each scenario input of the small-batch workload,
    the row with the SHA-256 of the report."""
    rows = []
    for name, params in BENCHED:
        call = lambda name=name, params=params: scenarios.run_scenario(name, **params).to_json()  # noqa: E731
        rows.append(({"op": "scenario", "scenario": name, "params": params,
                      "sha256": report_sha256(call())}, call, None))
    return rows


def all_rows(modules) -> list[tuple]:
    """(row, call, fresh) for every row, on one engine's (chow, charclass, scenarios)."""
    chow, cc, scenarios = modules
    timed = []
    for n in SIZES:
        data = draws(n)
        timed += kernel_rows(chow, n, data)
        for kind in ("sparse", "dense"):
            timed += route_rows(cc, n, kind, data[kind])
    return timed + scenario_rows(scenarios)


def load(src: Path, name: str) -> tuple:
    """The (chow, charclass, scenarios) modules of the engine under src, imported as
    the package name: "csmcalc" from sys.path, any other name from its files."""
    if name == "csmcalc":
        sys.path.insert(0, str(src))
    else:
        init = src / "csmcalc" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)])
        sys.modules[name] = package = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{m}") for m in ("chow", "charclass", "scenarios"))


def sample_ns(call, fresh, batch) -> float:
    """One sample: the time of batch calls, per call, in ns."""
    args = fresh() if fresh else ()
    start = perf_counter_ns()
    for _ in range(batch):
        call(*args)
    return (perf_counter_ns() - start) / batch


def best_pair_ns(ours, theirs) -> tuple[int, int]:
    """Each engine's best sample of one row, over ROUNDS rounds of one sample
    of each in turn, in equal batches: (call, fresh) of both engines."""
    gc.collect()
    for call, fresh in (ours, theirs):  # a first call of each, untimed
        sample_ns(call, fresh, 1)
    batch = 1 if ours[1] else max(1, round(BATCH_NS / max(1, sample_ns(*ours, 1))))
    best = [float("inf"), float("inf")]
    for _ in range(ROUNDS):
        for k, (call, fresh) in enumerate((ours, theirs)):
            best[k] = min(best[k], sample_ns(call, fresh, batch))
    return round(best[0]), round(best[1])


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
    parser.add_argument("--against", type=Path,
                        help="the src directory of a second engine, timed in turn with the first")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("label: letters, digits, '_', '.' and '-' only")
    timed = all_rows(load(args.src.resolve(), "csmcalc"))
    if args.against:
        pairs = list(zip(timed, all_rows(load(args.against.resolve(), "csmcalc_against"))))
        got = [[] for _ in pairs]  # per row, each pass's (best, against)
        for k in range(PASSES):
            for ((_, *ours), (_, *theirs)), passes in zip(pairs, got):
                passes.append(best_pair_ns(ours, theirs))
            print(f"pass {k + 1} of {PASSES}", file=sys.stderr)
        rows = []
        for ((row, *_), (other, *_)), passes in zip(pairs, got):
            rows.append({**row, "best_ns": min(b for b, _ in passes),
                         "against_best_ns": min(a for _, a in passes),
                         "ratio": round(statistics.median(a / b for b, a in passes), 3)})
            if "sha256" in row:
                rows[-1]["same_sha256"] = row["sha256"] == other["sha256"]
    else:
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
        **({"rounds_against": ROUNDS, "passes_against": PASSES} if args.against else {}),
        "rows": rows,
    }, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
