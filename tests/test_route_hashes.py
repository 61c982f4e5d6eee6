"""Every formula route's answer at n = 3 to 240, pinned by its hash.

``route_data.py`` draws the sparse and dense polar specs that
``tools/sweep.py`` times and hashes each route's wire output;
``route_hashes.json`` holds the hashes the engine gave when they were
recorded.  The file is data, refreshed only when answers change on purpose:
a hash that no longer matches is a changed answer.
"""

import json
from pathlib import Path

import route_data
from csmcalc import charclass

PINNED = json.loads(Path(__file__).with_name("route_hashes.json").read_text(encoding="utf-8"))


def test_every_route_answer_is_pinned():
    got = route_data.route_hashes(charclass)
    assert got.keys() == PINNED.keys()
    assert [key for key, sha in got.items() if PINNED[key] != sha] == []


def test_pins_cover_every_route_size_and_kind():
    routes = {key.split()[0] for key in PINNED}
    assert len(routes) == 14 and len(PINNED) == 14 * 2 * len(route_data.SIZES) == 196
    assert max(route_data.SIZES) == 240
