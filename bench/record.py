"""Refresh ``recorded.json``: output checksums for seeds 0-20 of every
engine workload, and the stdout SHA-256 of every CLI command.

Run from the root of a checkout with ``python3 bench/record.py`` only when
a change alters the engine's answers on purpose; say why in that change.
Every answer is checked by the workload's oracles before it is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads as wl

SEEDS = range(21)
PATH = Path(__file__).with_name("recorded.json")


def write(recorded: dict) -> None:
    PATH.write_text(json.dumps(recorded, indent=2) + "\n")
    wl.load_recorded.cache_clear()


def main() -> int:
    eng = wl.load_engine()
    cli = {}
    for argv in wl.CLI_COMMANDS:
        code, stdout = wl.cli_subprocess(argv)
        if code != 0:
            print(f"{' '.join(argv)}: exit code {code}", file=sys.stderr)
            return 1
        cli[" ".join(argv)] = wl.sha256_text(stdout)
    # the cli-oneshot oracle reads the stdout digests from the file
    write({**wl.load_recorded(), "cli_stdout_sha256": cli})
    checksums = {}
    for name, workload in wl.WORKLOADS.items():
        checksums[name] = {}
        for seed in SEEDS:
            pool = workload.make_pool(seed)
            verdicts = run.Verdicts(workload, eng, pool)
            verdicts.check((j, workload.query(eng, item)) for j, item in enumerate(pool))
            if verdicts.broken:
                print(f"{name} seed {seed}: broken {dict(verdicts.broken)}", file=sys.stderr)
                return 1
            checksums[name][str(seed)] = verdicts.checksum()
            print(name, seed, checksums[name][str(seed)], flush=True)
    write({"cli_stdout_sha256": cli, "checksums": checksums})
    return 0


if __name__ == "__main__":
    sys.exit(main())
