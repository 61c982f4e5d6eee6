"""Benchmark for csmcalc: one seeded workload per run, outputs checked.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload dense-twist --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all           # every workload, one child each

A run is a closed loop with one client in one single-threaded process:
each query starts when the previous one has returned.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes over the same inputs and reports per-layer metrics.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name and unit, the tail percentile with its sample
count, ``failed_frac`` and the output checksum.  Without ``src/csmcalc``
in the checkout the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import workloads as wl
from tracer import Aggregate, Tracer

SETUPS = 7  # set-up is repeated this many times per run; setup_s is the median
CLI_PROBES = 5

# The speed of a shared virtual machine drifts: on a 2-vCPU Xeon guest a
# fixed Fraction loop ran about 1.45x slower for seconds at a time, in CPU
# time too, with no steal time.  So every end-to-end time is scaled to a
# reference speed.  A timed span is cut into segments of at least
# LAP_MIN_NS at the laps the query offers (one per top-level route); a
# fixed Fraction loop is timed before and after each segment, and the
# segment's duration is multiplied by CAL_REF_NS over the mean of those
# two calibration times.  Timed whole, a one-second query straddles
# changes of speed that two snapshots miss.  The raw wall-clock figures
# are printed beside the scaled ones.
CAL_TERMS = 400
CAL_REF_NS = 1_500_000  # about the calibration loop's time on the machine of the baseline
LAP_MIN_NS = 20_000_000
WALL_CAP = 1.25  # bounds a run's wall time when the machine is much slower than reference


def calibration_ns() -> int:
    """Time one run of a fixed Fraction loop that shares no code with the engine."""
    start = perf_counter_ns()
    total = Fraction(0)
    for i in range(1, CAL_TERMS):
        total += Fraction(1, i)
    return perf_counter_ns() - start


class Clock:
    """Times spans in segments, each scaled to reference speed."""

    def __init__(self):
        self.cal = calibration_ns()
        self.start = perf_counter_ns()
        self.raw_ns = 0
        self.scaled_ns = 0.0

    def lap(self) -> None:
        """End the current segment if it has lasted at least ``LAP_MIN_NS``."""
        if perf_counter_ns() - self.start >= LAP_MIN_NS:
            self._close_segment()

    def _close_segment(self) -> None:
        elapsed = perf_counter_ns() - self.start
        cal = calibration_ns()
        self.raw_ns += elapsed
        self.scaled_ns += elapsed * 2 * CAL_REF_NS / (self.cal + cal)
        self.cal = cal
        self.start = perf_counter_ns()

    def span(self, fn, *args):
        """Return ``fn(*args, lap)``; afterwards ``raw_ns`` and ``scaled_ns``
        hold its time, raw and at reference speed."""
        self.raw_ns, self.scaled_ns = 0, 0.0
        self.start = perf_counter_ns()
        try:
            return fn(*args, self.lap)
        finally:
            self._close_segment()


def set_up_once(workload, seed: int, quick: bool, lap):
    eng = wl.load_engine()
    pool = workload.make_pool(seed, quick)
    workload.warm_up(eng)
    return eng, pool


def setup(workload, seed: int, quick: bool):
    """Import the engine, generate the inputs and warm up, ``SETUPS`` times.

    Returns the engine, the pool and the median set-up time in seconds at
    reference speed.
    """
    clock, times = Clock(), []
    for _ in range(SETUPS):
        eng, pool = clock.span(set_up_once, workload, seed, quick)
        times.append(clock.scaled_ns / 1e9)
    return eng, pool, statistics.median(times)


def timed_call(fn, *args):
    """Return (result, or the exception it raised; elapsed ns)."""
    start = perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # a failed query is counted, not fatal
        out = exc
    return out, perf_counter_ns() - start


def measure(workload, eng, pool, seconds: float):
    """Make whole passes over the pool (at least one) while another one,
    as long as the last, fits in ``seconds`` at reference speed and in
    ``WALL_CAP`` times ``seconds`` of wall time.

    Whole passes time each input equally often, and a budget at reference
    speed makes the number of passes, and so of samples, independent of
    the machine's speed at the time.  Returns the answers still to be
    judged (the first answer to each input and any repeat that differs
    from it), the count of repeats identical to the first answer per
    input, the raw latencies (ns), the latencies at reference speed (ns)
    and the wall time.  Keeping identical repeats out of memory keeps
    ``peak_rss_mb`` independent of how many queries a run completes.
    """
    answers, repeats, raw, scaled, first = [], Counter(), [], [], {}
    clock = Clock()
    start = perf_counter()
    last_wall = 0.0
    while not raw or (
        sum(scaled) + sum(scaled[-len(pool):]) <= seconds * 1e9
        and perf_counter() - start + last_wall <= WALL_CAP * seconds
    ):
        pass_start = perf_counter()
        for j, item in enumerate(pool):
            try:
                out = clock.span(workload.query, eng, item)
            except Exception as exc:  # a failed query is counted, not fatal
                out = exc
            raw.append(clock.raw_ns)
            scaled.append(clock.scaled_ns)
            if j in first and out == first[j]:
                repeats[j] += 1
            else:
                first.setdefault(j, out)
                answers.append((j, out))
        last_wall = perf_counter() - pass_start
    return answers, repeats, raw, scaled, perf_counter() - start


class Verdicts:
    """Checks every answer: oracles on the first answer to each input, and
    bit-identity with that first answer for every repeat."""

    def __init__(self, workload, eng, pool):
        self.workload, self.eng, self.pool = workload, eng, pool
        self.first: dict[int, tuple] = {}
        self.attempted = self.failed = 0
        self.broken: Counter = Counter()

    def check(self, answers) -> None:
        """Judge (input index, answer) pairs."""
        for j, out in answers:
            self._tally(self._problems(j, out), 1)

    def add_repeats(self, repeats) -> None:
        """Count answers identical to the first answer to their input."""
        for j, count in repeats.items():
            self._tally(self.first[j][1], count)

    def _tally(self, problems, count) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            for name in problems:
                self.broken[name] += count

    def _problems(self, j, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}"]
        if j in self.first and self.first[j][0] == out:
            return self.first[j][1]
        try:
            problems = self.workload.oracle(self.eng, self.pool[j], out)
        except Exception as exc:  # the oracle's own engine call failed
            problems = [f"oracle raised {type(exc).__name__}"]
        if j in self.first:
            problems = problems + ["differs_from_first_answer"]
        else:
            self.first[j] = (out, problems)
        return problems

    def checksum(self) -> str | None:
        """SHA-256 over the sorted (input, answer) pairs of the pool."""
        if len(self.first) < len(self.pool):
            return None
        pairs = sorted(
            [wl.canonical(item), wl.canonical(self.first[j][0])]
            for j, item in enumerate(self.pool)
        )
        return wl.sha256_text(wl.canonical(pairs))


def tail(latencies_ms):
    """Latency at the highest percentile with at least ten samples beyond it
    (the maximum when there are too few samples), its percentile and the
    number of samples beyond it."""
    ordered = sorted(latencies_ms)
    beyond = 10 if len(ordered) > 10 else 0
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, wl.CliWorkload) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _child_ms(code: str) -> tuple[float, str]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=wl.ROOT, env=wl.cli_env(), stdout=subprocess.PIPE, text=True,
        timeout=60, check=True,
    )
    return (perf_counter() - start) * 1e3, proc.stdout


def cli_probes(eng) -> dict:
    """Interpreter start-up and import timed in fresh children; cli.run in-process."""
    interp = [_child_ms("pass")[0] for _ in range(CLI_PROBES)]
    code = (
        "import time; t = time.perf_counter(); import csmcalc.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    imports = [float(_child_ms(code)[1]) for _ in range(CLI_PROBES)]
    rounds = []
    for _ in range(3):
        start = perf_counter()
        for argv in wl.CLI_COMMANDS:
            wl.cli_inprocess(eng, argv)
        rounds.append((perf_counter() - start) * 1e3 / len(wl.CLI_COMMANDS))
    return {
        "cli.interp_start_ms": (statistics.median(interp), "ms"),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "cli.run_ms": (statistics.median(rounds), "ms"),
    }


def end_to_end(workload, eng, pool, seconds, setup_s):
    answers, repeats, raw, scaled, wall = measure(workload, eng, pool, seconds)
    verdicts = Verdicts(workload, eng, pool)
    verdicts.check(answers)
    verdicts.add_repeats(repeats)
    lat_ms = [ns / 1e6 for ns in scaled]
    raw_ms = [ns / 1e6 for ns in raw]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    metrics = {
        "queries_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "query_ms_p50": (statistics.median(lat_ms), "ms"),
        "query_ms_tail": (tail_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    notes = [
        f"query_ms_tail is p{tail_pct:.2f} of {len(lat_ms)} samples ({beyond} beyond it)",
        f"raw wall clock: queries_per_s {len(raw_ms) / wall:.4f}, "
        f"query_ms_p50 {statistics.median(raw_ms):.4f}, query_ms_tail {tail(raw_ms)[0]:.4f}",
    ]
    return metrics, verdicts, notes


def layered(workload, eng, pool, seconds, setup_s):
    """Run each input untraced, then traced, so both see the same machine
    state; repeat whole passes over the pool while another one fits."""
    verdicts = Verdicts(workload, eng, pool)
    tracer = Tracer(eng)
    agg = Aggregate()
    untraced_ns = traced_ns = traced_queries = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        untraced, traced = [], []
        for j, item in enumerate(pool):
            out, ns = timed_call(workload.inprocess_query, eng, item)
            untraced.append(out)
            untraced_ns += ns
            tracer.install()
            try:
                out, ns = timed_call(tracer.run_query, j, workload.inprocess_query, eng, item)
            finally:
                tracer.uninstall()
            traced.append(out)
            traced_ns += ns
        agg.add(tracer.aggregate())
        traced_queries += len(pool)
        verdicts.check(enumerate(untraced))
        verdicts.check(enumerate(traced))
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    metrics = agg.layer_metrics(traced_queries)
    metrics.update(cli_probes(eng))
    metrics["trace_overhead_frac"] = (traced_ns / untraced_ns - 1, "ratio")
    notes = [
        f"traced {traced_queries} queries; {agg.self_violations} spans with self > total",
        f"setup_s of this run: {setup_s:.4f} s",
    ]
    if agg.self_violations:
        verdicts.broken["span_self_exceeds_total"] += agg.self_violations
    return metrics, verdicts, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False):
    """Run one workload; return (result JSON object, human-readable lines)."""
    workload = wl.WORKLOADS[name]
    eng, pool, setup_s = setup(workload, seed, quick)
    phase = layered if trace else end_to_end
    metrics, verdicts, notes = phase(workload, eng, pool, seconds, setup_s)

    checksum = verdicts.checksum()
    recorded = None if quick else wl.load_recorded()["checksums"].get(name, {}).get(str(seed))
    correct = not verdicts.broken and checksum is not None
    if recorded is not None and checksum != recorded:
        correct = False
        notes.append(f"checksum {checksum} differs from recorded {recorded}")
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}"]
    lines += [f"  {key} = {value!r} {unit}" for key, (value, unit) in metrics.items()]
    lines.append(f"  failed_frac = {verdicts.failed / verdicts.attempted!r} "
                 f"({verdicts.failed} of {verdicts.attempted})")
    lines += [f"  broken: {k} x{v}" for k, v in sorted(verdicts.broken.items())]
    state = "not recorded" if recorded is None else (
        "matches recorded" if checksum == recorded else "DIFFERS from recorded")
    lines.append(f"  checksum = {checksum} ({state})")
    lines += [f"  {note}" for note in notes]
    result = {
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def run_all(args) -> dict:
    """Each workload in its own child process, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False, timeout=900,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with status {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and its children, so that the calibration
        # loop times the core that does the work, also when a child does it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
    except wl.EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
