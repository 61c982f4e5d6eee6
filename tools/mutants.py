"""Mutation sweep: how many one-token edits of the engine the test suite catches.

Run from anywhere, with the source files to mutate as the only arguments:

    python3 tools/mutants.py src/csmcalc/chow.py src/csmcalc/charclass.py > tools/MUTANTS.md

Each mutant changes one site of one file:

* ``+`` and ``-`` swap, as do ``*`` and ``//`` (in ``+=`` and friends too);
* each comparison flips: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
* ``and`` and ``or`` swap;
* an integer constant gains 1.

Every mutant runs the tier-1 suite (``python -m pytest -q -x`` over
``tests/``) in a scratch copy of the checkout, one copy per worker, made
under the system temporary directory (``TMPDIR``) and removed at the end.
Each run draws with one fixed Hypothesis seed and starts with no Hypothesis
example database, so two sweeps of one tree give the same verdicts.
A mutant is killed when the suite fails or errors, and survives when it
passes; one that runs past five times the unmutated suite's time (plus a
minute) is stopped and counted apart.  The report, in Markdown on
standard output, tallies each file and lists every survivor, with the
reason from ``EQUIVALENT`` when the survivor is known to compute exactly
what the original computes, and every mutant that timed out.

Stdlib only, and not part of the test suite or CI: a sweep of ``chow.py``
and ``charclass.py`` takes about 25 minutes with two workers, and one
that adds ``cli.py`` and ``scenarios.py`` longer still.
"""

from __future__ import annotations

import ast
import os
import queue
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2
HYPOTHESIS_SEED = 0
MEMORY_LIMIT = 2 << 30  # address space of one suite run, in bytes
COPIED = ("src", "tests", "bench", "pyproject.toml")  # tests read bench/tracer.py

# (regex of the operator in the source, replacement text, replacement AST op)
BINARY = {
    ast.Add: (r"\+", "-", ast.Sub),
    ast.Sub: (r"-", "+", ast.Add),
    ast.Mult: (r"\*(?!\*)", "//", ast.FloorDiv),
    ast.FloorDiv: (r"//", "*", ast.Mult),
}
COMPARE = {
    ast.Lt: (r"<(?!=)", "<=", ast.LtE),
    ast.LtE: (r"<=", "<", ast.Lt),
    ast.Gt: (r">(?!=)", ">=", ast.GtE),
    ast.GtE: (r">=", ">", ast.Gt),
    ast.Eq: (r"==", "!=", ast.NotEq),
    ast.NotEq: (r"!=", "==", ast.Eq),
    ast.Is: (r"\bis\b(?!\s+not\b)", "is not", ast.IsNot),
    ast.IsNot: (r"\bis\s+not\b", "is", ast.Is),
    ast.In: (r"(?<!not )\bin\b", "not in", ast.NotIn),
    ast.NotIn: (r"\bnot\s+in\b", "in", ast.In),
}
BOOLEAN = {ast.And: (r"\band\b", "or", ast.Or), ast.Or: (r"\bor\b", "and", ast.And)}

_SWEEP = "the fitted quadratics are exact, so every weight of the sweep agrees, this one too"
_READ_PATH = ("speed only: an entry of at most _MAX_DIGITS digits reads to the same number "
              "in the one int pass and entry by entry")
_WIDER_SLOT = "speed only: a packed slot wider than the fewest bytes holds every entry just as well"
_AT_ZERO = ("speed only: c = n - r + k is 0 only when r >= n, and the list reader gives "
            "that class, or refusal, just as the one literal does")
_ZERO_PAIR = "a pair (0, q) is 0 for every q > 0, and the kernel tests b by its numerator alone"

# Survivors that compute exactly what the original computes, by (file,
# function, source of the mutated node, mutation, how many earlier sites of
# the function share that source and mutation).
EQUIVALENT = {
    ("chow.py", "GradedClass.div_linear", "(0, 1)", "1 → 2", 0): _ZERO_PAIR,
    ("charclass.py", "segre_yx_to_ym", "(0, 1)", "1 → 2", 0): _ZERO_PAIR,
    ("charclass.py", "segre_ym_to_yx", "p > 0", "> → >=", 0):
        "sigma = p/q is never 0, since chi = 1 is refused, so p > 0 and p >= 0 agree",
    ("charclass.py", "segre_ym_to_yx", "p > 0", "0 → 1", 0):
        "the sign moves to keep q > 0, and _gather's lcm reads (-q, -1) as it reads (q, 1)",
    ("chow.py", "GradedClass.dual", "self._relative_dim(relative_dim) - n", "- → +", 0):
        "parity: _alternate reads only the parity of shift, and m - n and m + n share it",
    ("charclass.py", "exceptional_multiplicities", "dim_x - dim_y", "- → +", 0):
        "parity: (-1) ** (dim_x - dim_y) equals (-1) ** (dim_x + dim_y)",
    ("charclass.py", "segre_from_polar", "spec.r + 1", "+ → -", 0):
        "parity: dual reads only the parity of its dimension, and r + 1 and r - 1 share it",
    ("charclass.py", "HypersurfaceSpec._fill", "(0, 1)", "1 → 2", 0):
        "an absent polar class is 0 over any q > 0: the spec's one gcd takes q out again",
    ("chow.py", "<module>", "_CHUNK_DIGITS = 600", "600 → 601", 0):
        "_CHUNK_DIGITS: any chunk width below the int-string limit prints and reads the same digits",
    ("chow.py", "_CoeffVector._wire_nums", "len(text) <= _MAX_DIGITS", "<= → <", 0):
        _READ_PATH,
    ("chow.py", "_CoeffVector._wire_nums", "max(map(len, values)) <= _MAX_DIGITS", "<= → <", 0):
        _READ_PATH,
    ("chow.py", "_CoeffVector._wire_nums",
     "len(text) <= _MAX_DIGITS or max(map(len, values)) <= _MAX_DIGITS", "or → and", 0):
        _READ_PATH,
    ("chow.py", "_literal", "len(value) <= _MAX_DIGITS", "<= → <", 0):
        "speed only: a string of exactly _MAX_DIGITS digits reads to the same number by the match",
    ("chow.py", "_CoeffVector._wire_piece", "len(values) == n + 1 > c >= 0", ">= → >", 0):
        _AT_ZERO,
    ("chow.py", "_CoeffVector._wire_piece", "len(values) == n + 1 > c >= 0", "0 → 1", 0):
        _AT_ZERO,
    ("chow.py", "_packed_convolve", "bits + n.bit_length() + 8", "8 → 9", 0): _WIDER_SLOT,
    ("chow.py", "_packed_convolve", "(bits + n.bit_length() + 8) // 8", "// → *", 0): _WIDER_SLOT,
    ("chow.py", "_digits", "value < 0", "< → <=", 0):
        "the chunked path is reached only past the digit limit, where value is not 0",
    ("chow.py", "_digits", "value < 0", "0 → 1", 0):
        "the chunked path is reached only past the digit limit, where value is not 0",
    ("chow.py", "_CoeffVector.__str__", "parts[0][0] > 0", "> → >=", 0):
        "only nonzero coefficients are printed, so c > 0 and c >= 0 agree",
    ("chow.py", "_CoeffVector.__str__", "c > 0", "> → >=", 0):
        "only nonzero coefficients are printed, so c > 0 and c >= 0 agree",
    ("chow.py", "HSeries.inverse", "top > 0", "> → >=", 0):
        "top = A_0^(n+1) with A_0 != 0 is never 0, so top > 0 and top >= 0 agree",
    ("scenarios.py", "_fixture_text", "maxsize=8", "8 → 9", 0):
        "cache bound only: a cache of 8 or 9 fixture texts reads the same fixtures",
    ("scenarios.py", "ScenarioReport.render_table", "default=0", "0 → 1", 0):
        "the default width is taken only for a report with no entries, which prints no entry line",
    ("scenarios.py", "cone_over_nodal_curve", "-1", "1 → 2", 0):
        _SWEEP,
    ("scenarios.py", "cone_over_nodal_curve", "Fraction(2)", "2 → 3", 0):
        _SWEEP,
    ("scenarios.py", "cone_over_nodal_curve", "Fraction(3, 7)", "3 → 4", 0):
        _SWEEP,
    ("scenarios.py", "cone_over_nodal_curve", "Fraction(3, 7)", "7 → 8", 0):
        _SWEEP,
    ("scenarios.py", "cone_over_nodal_curve",
     "[0, d, 1 + 4 * d - d * d, 2 + 3 * d - d * d]", "0 → 1", 0):
        "only the codimension-2 and -3 entries of the published CSM class are compared",
}


def _sites(tree):
    """Each mutation site of a module: (index of the node in ast.walk order,
    which operand slot of the node it is, the node)."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
            yield index, 0, node
        elif isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in COMPARE:
                    yield index, slot, node
        elif isinstance(node, ast.BoolOp):
            yield index, 0, node
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield index, 0, node


def _gaps(node, slot):
    """The (before, after) pairs of operands between which the mutated
    operator stands, and its entry (regex, replacement, AST op) of the tables."""
    if isinstance(node, ast.BinOp):
        return [(node.left, node.right)], BINARY[type(node.op)]
    if isinstance(node, ast.AugAssign):
        pattern, text, op = BINARY[type(node.op)]
        return [(node.target, node.value)], (pattern + "=", text + "=", op)
    if isinstance(node, ast.Compare):
        left = node.left if slot == 0 else node.comparators[slot - 1]
        return [(left, node.comparators[slot])], COMPARE[type(node.ops[slot])]
    return list(zip(node.values, node.values[1:])), BOOLEAN[type(node.op)]


def _mutate_ast(node, slot):
    """Apply the mutation to a node of a fresh tree, for the check of the text edit."""
    if isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.Compare):
        node.ops[slot] = COMPARE[type(node.ops[slot])][2]()
    elif isinstance(node, ast.AugAssign):
        node.op = BINARY[type(node.op)][2]()
    else:
        node.op = (BINARY if isinstance(node, ast.BinOp) else BOOLEAN)[type(node.op)][2]()


class Source:
    """One file's text, with AST positions (UTF-8 byte columns) as string offsets."""

    def __init__(self, path: Path):
        self.text = path.read_text(encoding="utf-8")  # newlines read as "\n" alone
        self.lines = [line + "\n" for line in self.text.split("\n")]
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, lineno, col):
        line = self.lines[lineno - 1].encode("utf-8")
        return self.starts[lineno - 1] + len(line[:col].decode("utf-8"))

    def span(self, node):
        return (self.offset(node.lineno, node.col_offset),
                self.offset(node.end_lineno, node.end_col_offset))

    def mutant(self, node, slot):
        """(mutated text, label, offset of the edit) for one site, or None
        when the operator cannot be placed in the text unambiguously."""
        if isinstance(node, ast.Constant):
            start, end = self.span(node)
            edits = [(start, end, str(node.value + 1))]
            label = f"{node.value} → {node.value + 1}"
        else:
            gaps, (pattern, text, _) = _gaps(node, slot)
            edits = []
            for before, after in gaps:
                lo, hi = self.span(before)[1], self.span(after)[0]
                found = list(re.finditer(pattern, self.text[lo:hi]))
                if len(found) != 1:
                    return None
                edits.append((lo + found[0].start(), lo + found[0].end(), text))
            old = self.text[edits[0][0]:edits[0][1]]
            label = f"{' '.join(old.split())} → {text}"
        out = self.text
        for start, end, text in reversed(edits):
            out = out[:start] + text + out[end:]
        return out, label, edits[0][0]


def _qualname(parents, node):
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
    return ".".join(reversed(names)) or "<module>"


def mutants(path: Path):
    """Every placeable mutant of one file, in source order: (line, function,
    source of the mutated node or of a constant's parent, label, how many
    earlier mutants of the function share that source and label, mutated
    text); and the count of sites whose text edit did not give the intended
    tree."""
    source = Source(path)
    tree = ast.parse(source.text)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found, unplaced = [], 0
    for index, slot, node in _sites(tree):
        made = source.mutant(node, slot)
        expected = ast.parse(source.text)
        _mutate_ast(list(ast.walk(expected))[index], slot)
        if made is None or ast.dump(ast.parse(made[0])) != ast.dump(expected):
            unplaced += 1
            continue
        shown = parents[node] if isinstance(node, ast.Constant) else node  # a constant with its use
        text = ast.get_source_segment(source.text, shown) or ast.get_source_segment(source.text, node)
        segment = " ".join(text.split())  # a default argument's parent has no position
        found.append((made[2], node.lineno, _qualname(parents, node), segment, made[1], made[0]))
    out, seen = [], {}
    for _, line, function, segment, label, text in sorted(found):
        key = function, segment, label
        seen[key] = seen.get(key, -1) + 1
        out.append((line, function, segment, label, seen[key], text))
    return out, unplaced


def _run_suite(copy: Path, timeout: float) -> str:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", f"--hypothesis-seed={HYPOTHESIS_SEED}"]
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no examples from an earlier mutant
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def _copy_checkout() -> Path:
    copy = Path(tempfile.mkdtemp(prefix="mutants-"))
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=ignore)
        elif source.is_file():
            shutil.copy2(source, copy / name)
    return copy


def main(paths) -> int:
    if not paths:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    files = [Path(p).resolve() for p in paths]
    # inherited by every suite run: a mutant that allocates without bound fails alone
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    work, unplaced = [], {}
    originals = {path: path.read_text(encoding="utf-8") for path in files}
    for path in files:
        found, unplaced[path.name] = mutants(path)
        work += [(path, *m) for m in found]
    copies = [_copy_checkout() for _ in range(WORKERS)]
    started = time.monotonic()
    try:
        baseline = []
        for copy in copies:
            begin = time.monotonic()
            if _run_suite(copy, timeout=3600) != "survived":
                print(f"the unmutated suite fails in {copy}", file=sys.stderr)
                return 1
            baseline.append(time.monotonic() - begin)
        timeout = 5 * max(baseline) + 60
        free = queue.Queue()
        for copy in copies:
            free.put(copy)

        def run(item):
            path, line, function, _, label, _, text = item
            copy = free.get()
            target = copy / path.relative_to(ROOT)
            try:
                target.write_text(text, encoding="utf-8")
                outcome = _run_suite(copy, timeout)
            finally:
                target.write_text(originals[path], encoding="utf-8")
                free.put(copy)
            print(f"{outcome:8} {path.name}:{line} {function}: {label}", file=sys.stderr)
            return outcome

        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(run, work))
    finally:
        for copy in copies:
            shutil.rmtree(copy, ignore_errors=True)
    print(_report(paths, files, work, outcomes, unplaced, time.monotonic() - started))
    return 0


def _report(paths, files, work, outcomes, unplaced, seconds) -> str:
    lines = [
        "# Mutation sweep", "",
        f"`python3 tools/mutants.py {' '.join(paths)}`: Python "
        f"{sys.version.split()[0]}, {WORKERS} workers, {seconds / 60:.0f} minutes.",
        f"Each mutant ran `python -m pytest -q -x --hypothesis-seed={HYPOTHESIS_SEED}` over "
        "`tests/` in a scratch copy, with no Hypothesis example database.", "",
        "| file | mutants | killed | timed out | survived: equivalent | survived: not caught "
        "| not placed |",
        "|---|---|---|---|---|---|---|",
    ]
    survivors = []
    for path in files:
        rows = [(item, o) for item, o in zip(work, outcomes) if item[0] == path]
        tally = {"killed": 0, "timeout": 0, "equivalent": 0, "gap": 0}
        for (_, line, function, segment, label, nth, _), outcome in rows:
            if outcome == "killed":
                tally[outcome] += 1
                continue
            reason = EQUIVALENT.get((path.name, function, segment, label, nth))
            if outcome == "timeout":  # listed: under load a survivor can time out too
                tally[outcome] += 1
                verdict = "timed out"
            else:
                tally["equivalent" if reason else "gap"] += 1
                verdict = f"equivalent: {reason}" if reason else "not caught"
            label += f" (#{nth + 1} in the function)" if nth else ""
            survivors.append((path.name, line, function, segment, label, verdict))
        lines.append(f"| `{path.name}` | {len(rows)} | {tally['killed']} | {tally['timeout']} "
                     f"| {tally['equivalent']} | {tally['gap']} | {unplaced[path.name]} |")
    lines += ["", "## Survivors and timeouts", ""]
    if survivors:
        lines += ["| file | line | function | node | mutation | verdict |",
                  "|---|---|---|---|---|---|"]
        lines += [f"| `{f}` | {n} | `{fn}` | `{_short(seg)}` | `{lab}` | {why} |"
                  for f, n, fn, seg, lab, why in survivors]
    else:
        lines.append("None.")
    return "\n".join(lines) + "\n"


def _short(text, width=60):
    return text if len(text) <= width else text[: width - 1] + "…"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
