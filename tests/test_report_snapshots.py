"""The reports of ``predict``, ``eval-icd`` and ``eval-sentences`` on fixed
inputs, byte-compared with the snapshots that ``scripts/make_fixtures.py``
wrote into tests/fixtures/reports/. A change that moves a report fails here
and names the first JSON path that differs; so does a report that moves
with the OpenBLAS kernel numpy loads."""
import contextlib
import io
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIXTURE_SCRIPT

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


def _check_snapshot(name, actual):
    expected = _read(os.path.join(REPORTS, name))
    if actual != expected:
        path = first_difference(_parsed(name, expected),
                                _parsed(name, actual))
        pytest.fail(f"{name}: first difference at {path}" if path else
                    f"{name}: same JSON values, different bytes")


@pytest.mark.parametrize("name", sorted(os.listdir(REPORTS)))
def test_report_equals_snapshot(snapshots, name):
    _check_snapshot(name, snapshots[name])


def _numpy_uses_openblas():
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        np.show_config()
    return "openblas" in shown.getvalue().lower()


def _cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


# prints every snapshot, as JSON, that the fixture script makes
REMAKE = """import importlib.util, json, sys, tempfile
spec = importlib.util.spec_from_file_location("make_fixtures", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
with tempfile.TemporaryDirectory() as workdir:
    print(json.dumps(module.report_snapshots(module.FIXTURES, workdir)))
"""

# Prescott runs on every x86-64 CPU; Haswell, the kernel AMD Zen hosts
# load, needs AVX2 and FMA
HASWELL = pytest.mark.skipif(not {"avx2", "fma"} <= _cpu_flags(),
                             reason="Haswell kernel needs avx2 and fma")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types named here are x86-64's")
@pytest.mark.skipif(not _numpy_uses_openblas(),
                    reason="numpy.show_config() names no OpenBLAS")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("coretype", ["Prescott",
                                      pytest.param("Haswell", marks=HASWELL)])
def test_snapshots_do_not_depend_on_the_blas_kernel(coretype, threads):
    """Every report remade in a subprocess that forces another OpenBLAS
    kernel and thread count equals its snapshot byte for byte."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               OPENBLAS_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", REMAKE, FIXTURE_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    remade = json.loads(done.stdout)
    assert sorted(remade) == sorted(os.listdir(REPORTS))
    for name in sorted(remade):
        _check_snapshot(name, remade[name])
