"""The shipped fixtures: read once per name, a fresh dict per call, found by package."""

import importlib
import importlib.util
import sys
from pathlib import Path

from csmcalc import scenarios
from csmcalc.scenarios import fixture_json

SPEC = "tangent_developable_spec.json"


def test_each_call_returns_a_fresh_dict():
    first = fixture_json(SPEC)
    first["n"] = 99
    first["polar"].clear()
    again = fixture_json(SPEC)
    assert again["n"] == 3 and again["polar"] and again is not first


def test_the_text_is_read_once_per_name():
    scenarios._fixture_text.cache_clear()
    fixture_json(SPEC)
    fixture_json(SPEC)
    info = scenarios._fixture_text.cache_info()
    assert (info.misses, info.hits) == (1, 1) and info.maxsize is not None


def test_a_copy_under_another_package_name_reads_its_own_fixtures(tmp_path):
    source = Path(scenarios.__file__).parent
    copy = tmp_path / "csmcalc_copy"
    copy.mkdir()
    (copy / "fixtures").mkdir()
    for module in source.glob("*.py"):
        (copy / module.name).write_text(module.read_text(encoding="utf-8"), encoding="utf-8")
    for fixture in (source / "fixtures").glob("*.json"):
        text = fixture.read_text(encoding="utf-8")
        (copy / "fixtures" / fixture.name).write_text(text.replace('"d": "4"', '"d": "5"'))
    spec = importlib.util.spec_from_file_location(
        "csmcalc_copy", copy / "__init__.py", submodule_search_locations=[str(copy)])
    sys.modules["csmcalc_copy"] = package = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(package)
        copied = importlib.import_module("csmcalc_copy.scenarios")
        assert copied.fixture_json(SPEC)["d"] == "5"
        assert fixture_json(SPEC)["d"] == "4"
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "csmcalc_copy"]:
            del sys.modules[name]
