"""The named scenarios' inputs, and the hash of every report on them.

``tests/test_scenario_hashes.py`` checks each report against
``tests/scenario_hashes.json``, and ``tools/sweep.py`` times the
``BENCHED`` inputs and records the same hashes.  A report's hash is the
SHA-256 of ``json.dumps(report.to_json(), sort_keys=True)``.  The scenarios
module is an argument, so a sweep can run these inputs through another
tree.  Refresh the pinned file only when reports change on purpose, from
the root of a checkout:

    python3 tests/scenario_data.py > tests/scenario_hashes.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

CASES = (
    [("tangent-developable", {})]
    + [("cone-over-nodal-curve", {"d": d}) for d in range(3, 61)]
    + [("smooth-hypersurface", {"n": n, "d": d}) for n in range(1, 13) for d in range(1, 10)]
)
# the scenario inputs of the small-batch bench workload
BENCHED = (
    ("tangent-developable", {}),
    ("cone-over-nodal-curve", {"d": 3}),
    ("cone-over-nodal-curve", {"d": 5}),
    ("cone-over-nodal-curve", {"d": 7}),
    ("smooth-hypersurface", {"n": 3, "d": 4}),
    ("smooth-hypersurface", {"n": 8, "d": 2}),
    ("smooth-hypersurface", {"n": 5, "d": 6}),
)


def case_key(name, params) -> str:
    """"name k=v ...": the key of one input in the pinned file."""
    return " ".join([name, *(f"{k}={v}" for k, v in params.items())])


def report_sha256(report_json) -> str:
    return hashlib.sha256(json.dumps(report_json, sort_keys=True).encode()).hexdigest()


def scenario_reports(scenarios) -> dict:
    """key: (the report's SHA-256, whether it passed), for every input in CASES."""
    out = {}
    for name, params in CASES:
        report = scenarios.run_scenario(name, **params)
        out[case_key(name, params)] = report_sha256(report.to_json()), report.passed
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from csmcalc import scenarios

    hashes = {key: sha for key, (sha, _) in scenario_reports(scenarios).items()}
    print(json.dumps(hashes, indent=1, sort_keys=True))
