"""No input makes a command print a traceback.

Each command runs in-process on valid inputs with one mutation: a config or
report key dropped, retyped, added or nested wrong; a CSV cell dropped, a
row repeated, a header renamed, a label or ``visit_time`` garbled; an input
file truncated or garbled; a directory where a file is expected, or a file
where the output directory goes; or a ``--ks``, ``--seed`` or
``--sample-id`` value replaced. The run must end with exit 0, 1 or 2
(argparse's ``SystemExit(2)`` included) and raise nothing else. Every path
is relative to a fresh working directory, and no socket can be opened, so a
mutated URL or path reaches nothing outside it.
"""
import contextlib
import functools
import io
import json
import os
import socket
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ehrbench import gateway, icd
from ehrbench.cli import main
from ehrbench.synthetic import (
    synthetic_cohort,
    write_catalog_csv,
    write_cohort_jsonl,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# what a retyped or added key holds; numbers stay small, so a mutated count
# (resamples, examples) keeps a run short. 10**400 is an int no float holds.
VALUES = [None, True, 0, 1, -1, 3, 0.5, 1e300, float("nan"), float("inf"),
          10**400, "", "x", "stub", [], [1], {}, {"k": 1}]
ADDED_KEYS = ["extra", "n", "seed", "task", "model_name", "output_dir"]
# what a mutated label, visit_time, header or argument holds
CELLS = ["", " ", "x", "2", "-1", "0.5", "1e400", "nan", "inf", "0x10",
         "2020-02-30", "20200131", "2020-01-01T00:00", "p000 ", "P000",
         "\u0663", "1_0", str(2**70), "2,2", "2,,3", "3,x", "-x"]
# flags whose value a mutation may replace
MUTABLE_FLAGS = ("--ks", "--seed", "--sample-id")


@contextlib.contextmanager
def _working_dir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _write(files):
    for name, data in files.items():
        with open(name, "wb") as fh:
            fh.write(data)


def _run(argv):
    """Exit code of ``main(argv)``, its output kept off the terminal."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _json(obj):
    return json.dumps(obj, indent=1).encode()


@functools.lru_cache(maxsize=None)
def _run_files():
    """The valid inputs of predict and prompt-preview, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        cohort = synthetic_cohort(n_patients=20, seed=7)
        write_cohort_jsonl(cohort, os.path.join(tmp, "cohort.jsonl"))
        write_catalog_csv(cohort.catalog, os.path.join(tmp, "catalog.csv"))
        files = {}
        for name in ("cohort.jsonl", "catalog.csv"):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = fh.read()
    files["config.json"] = _json({
        "label": "run",
        "data": {"cohort": "cohort.jsonl", "catalog": "catalog.csv",
                 "task": "mortality"},
        "split": {"train_frac": 0.6, "val_frac": 0.1, "test_frac": 0.3,
                  "seed": 1},
        "prompt": {"include_units": True, "n_icl_examples": 2},
        "endpoint": {"base_url": "stub", "model_name": "noise-1"},
        "bootstrap": {"n": 3, "seed": 0},
        "decode": {"count_unknown_as_missing": False},
        "output_dir": "out",
    })
    return files


@functools.lru_cache(maxsize=None)
def _long_csv_files():
    """predict's valid inputs with the cohort as a long CSV and its labels
    CSV."""
    cohort = synthetic_cohort(n_patients=20, seed=7)
    rows = ["patient_id,visit_time,feature_id,value\n"]
    for rec in cohort.records:
        for i, t in enumerate(rec.visit_times):
            rows += [f"{rec.patient_id},{t},{fid},{series[i]}\n"
                     for fid, series in rec.features.items()
                     if series[i] is not None]
    labels = ["patient_id,task,label\n"] + [
        f"{rec.patient_id},mortality,{rec.label}\n" for rec in cohort.records]
    config = json.loads(_run_files()["config.json"])
    config["data"].update(cohort="cohort.csv", labels="labels.csv")
    return {"config.json": _json(config),
            "catalog.csv": _run_files()["catalog.csv"],
            "cohort.csv": "".join(rows).encode(),
            "labels.csv": "".join(labels).encode()}


@functools.lru_cache(maxsize=None)
def _report_files():
    with tempfile.TemporaryDirectory() as tmp, _working_dir(tmp):
        _write(_run_files())
        assert _run(["predict", "--config", "config.json"]) == 0
        with open("out/report.json", "rb") as fh:
            return {"report.json": fh.read()}


@functools.lru_cache(maxsize=None)
def _icd_files():
    path = os.path.join(FIXTURES, "sibling_codes.order")
    with open(path, "rb") as fh:
        order = fh.read()
    codes = [e.code for e in icd.parse_order_file(path)]
    rows = gateway._stub_embed(codes, 4)
    return {"codes.order": order,
            "emb.jsonl": b"".join(
                json.dumps({"code": c, "embedding": r.tolist()}).encode()
                + b"\n" for c, r in zip(codes, rows))}


@functools.lru_cache(maxsize=None)
def _sentence_files():
    texts = [f"sentence {i}" for i in range(8)]
    rows = gateway._stub_embed(texts, 4)
    return {"pairs.tsv": "".join(f"{texts[i]}\t{texts[i + 4]}\t{i}\n"
                                 for i in range(4)).encode(),
            "emb.jsonl": b"".join(
                json.dumps({"text": t, "embedding": r.tolist()}).encode()
                + b"\n" for t, r in zip(texts, rows))}


# command -> (its valid input files, its argv)
COMMANDS = {
    "predict": (_run_files, ["predict", "--config", "config.json"]),
    "predict-long-csv": (_long_csv_files,
                         ["predict", "--config", "config.json"]),
    "prompt-preview": (_run_files, ["prompt-preview", "--config",
                                    "config.json", "--sample-id", "p000"]),
    "eval-icd": (_icd_files, ["eval-icd", "--order-file", "codes.order",
                              "--embeddings-file", "emb.jsonl", "--ks", "2,3",
                              "--seed", "0", "--output-dir", "out"]),
    "eval-sentences": (_sentence_files, [
        "eval-sentences", "--pairs", "pairs.tsv", "--embeddings-file",
        "emb.jsonl", "--output-dir", "out"]),
    "report-merge": (_report_files, ["report-merge", "report.json",
                                     "report.json", "--output-dir", "out"]),
}


def _key_paths(obj, prefix=()):
    """Every path of keys into the nested JSON objects of ``obj``."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _at(obj, path):
    return functools.reduce(lambda o, k: o[k], path, obj)


@st.composite
def _mutated_json(draw, data):
    """A JSON object with one key dropped, retyped, added or nested wrong:
    moved into another object (or up a level), or its value wrapped."""
    obj = json.loads(data)
    path = draw(st.sampled_from(list(_key_paths(obj))))
    parent, key = _at(obj, path[:-1]), path[-1]
    homes = [p for p in [()] + list(_key_paths(obj))
             if isinstance(_at(obj, p), dict) and p != path[:-1]
             and p[:len(path)] != path]
    kind = draw(st.sampled_from(["drop", "retype", "add", "wrap"]
                                + ["move"] * bool(homes)))
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(VALUES))
    elif kind == "add":
        added = draw(st.sampled_from(ADDED_KEYS))
        parent[added] = draw(st.sampled_from(VALUES))
    elif kind == "move":
        value = parent.pop(key)
        _at(obj, draw(st.sampled_from(homes)))[key] = value
    else:
        parent[key] = draw(st.sampled_from([[parent[key]],
                                            {key: parent[key]}]))
    return _json(obj)


@st.composite
def _csv_mutation(draw, data):
    """A CSV with one cell dropped, one row repeated, or one header or data
    cell replaced; the data cell is a long cohort's ``visit_time`` or a
    labels file's label, if the file has that column."""
    lines = data.splitlines(keepends=True)
    header = lines[0].rstrip(b"\n").split(b",")
    kind = draw(st.sampled_from(["drop", "repeat", "header", "cell"]))
    i = 0 if kind == "header" else draw(st.integers(1, len(lines) - 1))
    if kind == "repeat":
        lines.insert(draw(st.integers(1, len(lines))), lines[i])
        return b"".join(lines)
    cells = lines[i].rstrip(b"\n").split(b",")
    j = draw(st.integers(0, len(cells) - 1))
    if kind == "drop":
        del cells[j]
    else:
        for column in (b"visit_time", b"label"):
            if kind == "cell" and column in header:
                j = header.index(column)
        cells[j] = draw(st.sampled_from(CELLS)).encode()
    lines[i] = b",".join(cells) + b"\n"
    return b"".join(lines)


@st.composite
def _mutation(draw, files, argv):
    """(the input files, whether ``out`` is a file, the argv), with one
    input file or one ``MUTABLE_FLAGS`` value mutated."""
    files, argv = dict(files), list(argv)
    flags = [i + 1 for i, arg in enumerate(argv) if arg in MUTABLE_FLAGS]
    name = draw(st.sampled_from(sorted(files) + ["out"]
                                + ["argv"] * bool(flags)))
    if name == "out":
        return files, True, argv
    if name == "argv":
        argv[draw(st.sampled_from(flags))] = draw(st.sampled_from(CELLS))
        return files, False, argv
    data = files[name]
    kinds = ["truncate", "garble", "directory"]
    if name.endswith((".json", ".jsonl")):
        kinds += ["json"] * 3
    if name.endswith(".csv"):
        kinds += ["csv"] * 3
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        files[name] = data[:draw(st.integers(0, len(data) - 1))]
    elif kind == "garble":
        start = draw(st.integers(0, len(data) - 1))
        chunk = draw(st.binary(min_size=1, max_size=4))
        files[name] = data[:start] + chunk + data[start + len(chunk):]
    elif kind == "directory":
        files[name] = None
    elif kind == "csv":
        files[name] = draw(_csv_mutation(data))
    elif name.endswith(".json"):
        files[name] = draw(_mutated_json(data))
    else:  # one JSON Lines record
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(_mutated_json(lines[i])).replace(b"\n", b"") + b"\n"
        files[name] = b"".join(lines)
    return files, False, argv


@pytest.fixture
def no_network(monkeypatch):
    """No socket opens and no retry waits: a mutated endpoint that is not
    the stub fails at once."""
    def refuse(*args, **kwargs):
        raise ConnectionRefusedError("no network in this test")

    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.setattr(time, "sleep", lambda seconds: None)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_exits_cleanly(no_network, command, data):
    inputs, argv = COMMANDS[command]
    files, out_is_file, argv = data.draw(_mutation(inputs(), argv))
    with tempfile.TemporaryDirectory() as tmp, _working_dir(tmp):
        for name, content in files.items():
            if content is None:
                os.mkdir(name)
            else:
                _write({name: content})
        if out_is_file:
            _write({"out": b""})
        assert _run(argv) in (0, 1, 2)


@pytest.mark.parametrize("section, key", [("bootstrap", "n"),
                                          ("prompt", "n_icl_examples")])
def test_count_past_its_bound_exits_2(no_network, section, key):
    """10**400 as a count, which ``VALUES`` can put in only by chance: the
    config is refused before any data is read or request sent."""
    files = dict(_run_files())
    config = json.loads(files["config.json"])
    config[section][key] = 10**400
    files["config.json"] = _json(config)
    for command in ("predict", "prompt-preview"):
        with tempfile.TemporaryDirectory() as tmp, _working_dir(tmp):
            _write(files)
            assert _run(COMMANDS[command][1]) == 2
            assert not os.path.exists("out")
