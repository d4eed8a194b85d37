"""The reports of ``predict``, ``eval-icd`` and ``eval-sentences`` on fixed
inputs, byte-compared with the snapshots that ``scripts/make_fixtures.py``
wrote into tests/fixtures/reports/. A change that moves a report fails here
and names the first JSON path that differs."""
import json
import os

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPORTS = os.path.join(FIXTURES, "reports")


@pytest.fixture(scope="module")
def snapshots(fixture_script, tmp_path_factory):
    return fixture_script.report_snapshots(
        FIXTURES, str(tmp_path_factory.mktemp("reports")))


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _parsed(name, text):
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def first_difference(expected, actual, path="$"):
    """The JSON path of the first value in which ``actual`` differs from
    ``expected``, or None. A bool differs from the number of equal value."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys()):
            if key not in expected or key not in actual:
                return f"{path}.{key}"
            found = first_difference(expected[key], actual[key],
                                     f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}[{i}]")
            if found:
                return found
        if len(expected) != len(actual):
            return f"{path}[{min(len(expected), len(actual))}]"
        return None
    if type(expected) is not type(actual) or expected != actual:
        return path
    return None


def test_first_difference_names_the_path():
    assert first_difference({"a": [1, {"b": 2.0}]}, {"a": [1, {"b": 2.0}]}) \
        is None
    assert first_difference({"a": [1, {"b": 2.0}]},
                            {"a": [1, {"b": 2.5}]}) == "$.a[1].b"
    assert first_difference({"a": 1}, {"a": 1, "c": 0}) == "$.c"
    assert first_difference([1, 2], [1]) == "$[1]"
    assert first_difference({"x": 1}, {"x": True}) == "$.x"
    assert first_difference({"x": None}, {"x": 0.0}) == "$.x"


def test_fixture_script_regenerates_report_inputs(fixture_script, tmp_path):
    fixture_script.write_report_inputs(str(tmp_path))
    for name in sorted(os.listdir(tmp_path)):
        assert _read(tmp_path / name) == _read(os.path.join(FIXTURES, name)), \
            name


def test_snapshot_set(snapshots):
    assert sorted(snapshots) == sorted(os.listdir(REPORTS))


@pytest.mark.parametrize("name", sorted(os.listdir(REPORTS)))
def test_report_equals_snapshot(snapshots, name):
    expected = _read(os.path.join(REPORTS, name))
    actual = snapshots[name]
    if actual != expected:
        path = first_difference(_parsed(name, expected),
                                _parsed(name, actual))
        pytest.fail(f"{name}: first difference at {path}" if path else
                    f"{name}: same JSON values, different bytes")
