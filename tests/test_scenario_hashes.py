"""Every named scenario's report, pinned by its hash.

``scenario_data.py`` lists the inputs: ``tangent-developable``,
``cone-over-nodal-curve`` at d = 3 to 60 and ``smooth-hypersurface`` at
n = 1 to 12 and d = 1 to 9.  ``scenario_hashes.json`` holds the SHA-256 of
each report's JSON as the engine gave it when recorded.  A hash that no
longer matches is a changed report: a changed answer, entry, provenance tag
or input echo.
"""

import json
from pathlib import Path

import scenario_data
from csmcalc import scenarios

PINNED = json.loads(Path(__file__).with_name("scenario_hashes.json").read_text(encoding="utf-8"))


def test_every_scenario_report_is_pinned_and_passes():
    got = scenario_data.scenario_reports(scenarios)
    assert got.keys() == PINNED.keys()
    assert len(PINNED) == 1 + 58 + 12 * 9 == 167
    assert [key for key, (sha, _) in got.items() if PINNED[key] != sha] == []
    assert [key for key, (_, passed) in got.items() if not passed] == []


def test_benched_inputs_are_pinned():
    assert {scenario_data.case_key(*case) for case in scenario_data.BENCHED} <= PINNED.keys()
