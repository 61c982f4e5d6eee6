"""The CLI pinned byte for byte.

``cli_golden.json`` lists cases: an argv and what standard input holds,
with the exit code, standard output and standard error the CLI gave for
them.  It covers every subcommand in table and JSON format, and exits 2
(malformed input), 3 (out of range), 4 (degenerate invariants) and 5
(inconsistent system).  ``--help`` and argparse's own errors are left out:
their text differs across Python versions.  The file is data, written once;
a case that no longer matches is a change in behaviour.
"""

import io
import json
from pathlib import Path

import pytest

from csmcalc.cli import run

CASES = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_output_is_pinned(case, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = run(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_battery_covers_every_subcommand_format_and_input_exit(capsys):
    run(["--help"])
    usage = capsys.readouterr().out
    subcommands = usage[usage.index("{") + 1 : usage.index("}")].split(",")
    seen = {(c["argv"][0], "json" if "json" in c["argv"] else "table")
            for c in CASES if c["exit"] == 0}
    assert seen == {(name, fmt) for name in subcommands for fmt in ("table", "json")}
    assert {c["exit"] for c in CASES} == {0, 2, 3, 4, 5}
