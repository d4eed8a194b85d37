import collections
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest

from ehrbench import prompts
from ehrbench.cli import (
    BootstrapSpec,
    _load_embedding_file,
    _score,
    config_fingerprint,
    main,
)
from ehrbench.gateway import PredictionOutcome
from ehrbench.prompts import task_instruction
from ehrbench.synthetic import (
    synthetic_cohort,
    write_catalog_csv,
    write_cohort_jsonl,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_run_config(tmp_path, *, model_name="echo-0.5", n_patients=30,
                     label="run", prompt_overrides=None,
                     endpoint_overrides=None, name="config.json"):
    cohort = synthetic_cohort(n_patients=n_patients, seed=7)
    catalog_path = tmp_path / "catalog.csv"
    cohort_path = tmp_path / "cohort.jsonl"
    write_catalog_csv(cohort.catalog, catalog_path)
    write_cohort_jsonl(cohort, cohort_path)
    endpoint = {"base_url": "stub", "model_name": model_name}
    endpoint.update(endpoint_overrides or {})
    config = {
        "label": label,
        "data": {"cohort": str(cohort_path), "catalog": str(catalog_path),
                 "task": "mortality"},
        "split": {"train_frac": 0.6, "val_frac": 0.1, "test_frac": 0.3,
                  "seed": 42},
        "prompt": dict(prompt_overrides or {}),
        "endpoint": endpoint,
        "bootstrap": {"n": 10, "seed": 0},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


def load_report(tmp_path):
    with open(tmp_path / "out" / "report.json") as fh:
        return json.load(fh)


def strict_json(path):
    """Parse a JSON file that must not hold a bare NaN or Infinity."""
    def no_constants(name):
        raise AssertionError(f"{path} holds bare {name}")

    with open(path) as fh:
        return json.load(fh, parse_constant=no_constants)


class TestFingerprint:
    def test_key_order_insensitive(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_any_field_change_changes_hash(self):
        base = {"x": 1, "y": {"a": 2}}
        assert config_fingerprint(base) != \
            config_fingerprint({"x": 1, "y": {"a": 3}})


class TestPredict:
    def test_echo_pipeline(self, tmp_path):
        config_path, config = write_run_config(tmp_path)
        assert main(["predict", "--config", str(config_path)]) == 0
        report = load_report(tmp_path)
        assert report["label"] == "run"
        assert report["fingerprint"] == config_fingerprint(config)
        assert report["missing_rate"]["percent"] == 0.0
        assert report["status_counts"] == {
            "decoded": report["missing_rate"]["n_test"]}
        # constant 0.5 scores: every resample is all ties
        assert report["metrics"]["auroc"]["mean"] == 0.5
        assert report["metrics"]["auroc"]["std"] == 0.0

    def test_transcript_covers_test_split_sorted(self, tmp_path):
        config_path, config = write_run_config(tmp_path)
        main(["predict", "--config", str(config_path)])
        with open(tmp_path / "out" / "transcript.jsonl") as fh:
            entries = [json.loads(line) for line in fh]
        ids = [e["sample_id"] for e in entries]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == \
            load_report(tmp_path)["missing_rate"]["n_test"]
        for e in entries:
            assert set(e) == {"sample_id", "prompt_sha256", "raw_text",
                              "status", "probability"}

    def test_refuse_all_fallback(self, tmp_path):
        config_path, _ = write_run_config(tmp_path, model_name="refuse")
        assert main(["predict", "--config", str(config_path)]) == 0
        report = load_report(tmp_path)
        assert report["missing_rate"]["percent"] == 0.0
        assert set(report["status_counts"]) == {"fallback_unknown"}
        assert abs(report["metrics"]["auroc"]["mean"] - 0.5) < 1e-12

    def test_garbage_all_missing(self, tmp_path):
        config_path, _ = write_run_config(tmp_path, model_name="garbage")
        assert main(["predict", "--config", str(config_path)]) == 0
        report = load_report(tmp_path)
        assert report["missing_rate"]["percent"] == 100.0
        assert set(report["status_counts"]) == {"missing"}

    def test_deterministic_reports(self, tmp_path):
        config_path, _ = write_run_config(tmp_path, model_name="noise-42")
        main(["predict", "--config", str(config_path)])
        first = (tmp_path / "out" / "report.json").read_text()
        first_transcript = (tmp_path / "out" / "transcript.jsonl").read_text()
        main(["predict", "--config", str(config_path)])
        second = (tmp_path / "out" / "report.json").read_text()
        a, b = json.loads(first), json.loads(second)
        a.pop("timing"), b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert (tmp_path / "out" / "transcript.jsonl").read_text() == \
            first_transcript

    def test_icl_prompts_from_train_stats(self, tmp_path):
        config_path, _ = write_run_config(
            tmp_path, prompt_overrides={"n_icl_examples": 2})
        assert main(["predict", "--config", str(config_path)]) == 0
        assert load_report(tmp_path)["missing_rate"]["percent"] == 0.0

    def test_endpoint_errors_degrade_to_missing_and_fail_threshold(
            self, tmp_path, capsys):
        config_path, _ = write_run_config(
            tmp_path,
            endpoint_overrides={"base_url": "http://127.0.0.1:9",
                                "max_retries": 0, "timeout": 1,
                                "max_in_flight": 8})
        code = main(["predict", "--config", str(config_path)])
        assert code == 1  # every sample errored, above --max-error-frac
        assert "exceeds --max-error-frac" in capsys.readouterr().err
        report = load_report(tmp_path)
        assert set(report["status_counts"]) == {"missing"}
        assert report["n_errors"] == report["missing_rate"]["n_test"]
        code = main(["predict", "--config", str(config_path),
                     "--max-error-frac", "1.0"])
        assert code == 0

    @pytest.mark.parametrize("frac", ["nan", "inf", "-0.1", "1.5", "x"])
    def test_bad_max_error_frac_exits_2(self, tmp_path, capsys, frac):
        config_path, _ = write_run_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--config", str(config_path),
                  "--max-error-frac", frac])
        assert exc.value.code == 2
        assert "--max-error-frac" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_path_rejected(self, tmp_path):
        config_path, config = write_run_config(tmp_path)
        config["data"]["cohort"] = str(tmp_path / "nope.jsonl")
        config_path.write_text(json.dumps(config))
        assert main(["predict", "--config", str(config_path)]) == 2

    def test_seed_required(self, tmp_path):
        config_path, config = write_run_config(tmp_path)
        del config["split"]["seed"]
        config_path.write_text(json.dumps(config))
        assert main(["predict", "--config", str(config_path)]) == 2

    def test_report_csv_row(self, tmp_path):
        config_path, _ = write_run_config(tmp_path)
        main(["predict", "--config", str(config_path)])
        with open(tmp_path / "out" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["label"] == "run"
        assert float(rows[0]["auroc_mean"]) == 0.5


class _CountingHandler(BaseHTTPRequestHandler):
    """An endpoint that counts the requests it is sent and fails each."""

    posts = 0

    def do_POST(self):
        type(self).posts += 1
        self.send_response(500)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def counting_endpoint():
    """A loopback endpoint's URL and a function that counts its requests."""
    _CountingHandler.posts = 0
    server = HTTPServer(("127.0.0.1", 0), _CountingHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    yield (f"http://127.0.0.1:{server.server_port}",
           lambda: _CountingHandler.posts)
    server.shutdown()
    server.server_close()


def test_output_dir_under_a_file_exits_2_before_any_request(
        tmp_path, capsys, counting_endpoint):
    url, posts = counting_endpoint
    config_path, config = write_run_config(
        tmp_path, endpoint_overrides={"base_url": url, "max_retries": 0})
    (tmp_path / "afile").write_text("")
    config["output_dir"] = str(tmp_path / "afile" / "out")
    config_path.write_text(json.dumps(config))
    assert main(["predict", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: [Errno 20] Not a directory: '{config['output_dir']}'\n"
    assert posts() == 0


# (split fractions, the test split's fraction as the error prints it)
EMPTY_TEST_SPLITS = {
    "test_frac_0": ((0.9, 0.1, 0.0), "0"),
    # each class's largest remainder goes to val, so test gets no record
    "largest_remainder": ((0.8, 0.18, 0.02), "0.02"),
}


@pytest.mark.parametrize("name", EMPTY_TEST_SPLITS)
def test_empty_test_split_exits_2(tmp_path, capsys, name):
    (train, val, test), shown = EMPTY_TEST_SPLITS[name]
    config_path, config = write_run_config(tmp_path)
    config["split"].update(train_frac=train, val_frac=val, test_frac=test)
    config_path.write_text(json.dumps(config))
    assert main(["predict", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: the test split of 30 records is empty "
        f"(split.test_frac {shown})\n")
    assert not (tmp_path / "out").exists()


def test_score_reports_auroc_error_beside_auprc():
    """On an all-positive test split AUROC is undefined on every resample;
    its error goes in its place and AUPRC is still scored."""
    records = [SimpleNamespace(patient_id=f"p{i}", label=1) for i in range(5)]
    outcomes = {r.patient_id: PredictionOutcome("decoded", 0.2 * i, "x")
                for i, r in enumerate(records)}
    scores = _score(outcomes, records, BootstrapSpec(n=10, seed=0))
    assert scores["auroc"] == {"error": "5 positives, 0 negatives"}
    assert scores["auprc"] == {"mean": 1.0, "std": 0.0, "n_resamples": 10,
                               "seed": 0}


def _closed_port(config, section, **values):
    """Set ``values`` in a config ``section`` and send requests to a port
    nothing listens on."""
    config[section].update(values)
    config["endpoint"].update(base_url="http://127.0.0.1:9")


# (config key the message must name, edit that breaks it)
BAD_CONFIGS = [
    ("data.task", lambda c: c["data"].pop("task")),
    ("data.task must be one of", lambda c: c["data"].update(task="triage")),
    ("bootstrap.sed", lambda c: c["bootstrap"].update(sed=1)),
    ("decode.count_unknown",
     lambda c: c.update(decode={"count_unknown": True})),
    ("extra", lambda c: c.update(extra=1)),
    ("prompt.task", lambda c: c["prompt"].update(task="mortality")),
    ("split.stratify_on", lambda c: c["split"].update(stratify_on="label")),
    ("prompt", lambda c: c.update(prompt=[])),
    ("prompt.n_icl_examples",
     lambda c: c["prompt"].update(n_icl_examples="2")),
    # a JSONL cohort carries its labels; a labels CSV would be ignored
    ("data.labels", lambda c: c["data"].update(labels=c["data"]["catalog"])),
    # no resamples: the report's mean and std would be NaN
    ("bootstrap.n", lambda c: c["bootstrap"].update(n=0)),
    # numpy.random.default_rng takes no negative seed: a traceback, and for
    # the bootstrap one after every endpoint request was sent
    ("bootstrap.seed", lambda c: c["bootstrap"].update(seed=-1)),
    ("split.seed", lambda c: c["split"].update(seed=-1)),
    # every request would fail, or the first retry's sleep would raise
    ("endpoint.max_retries", lambda c: c["endpoint"].update(max_retries=-1)),
    ("endpoint.timeout", lambda c: c["endpoint"].update(timeout=0)),
    ("endpoint.backoff_base",
     lambda c: c["endpoint"].update(backoff_base=-0.5)),
    # every request would ask for a negative number of tokens
    ("endpoint.max_new_tokens",
     lambda c: c["endpoint"].update(max_new_tokens=-5)),
    # values print with two decimals; this is no longer a setting
    ("prompt.value_decimals",
     lambda c: c["prompt"].update(value_decimals=2)),
    # no scheme: every request would fail and be retried
    ("endpoint.base_url",
     lambda c: c["endpoint"].update(base_url="localhost:9")),
    # json.dumps writes these as the token Infinity, which json.load reads:
    # a socket timeout that overflows, a temperature the request body
    # cannot carry as JSON, a retry sleep that never ends
    ("endpoint.timeout must be finite",
     lambda c: c["endpoint"].update(timeout=float("inf"))),
    ("endpoint.temperature must be finite",
     lambda c: c["endpoint"].update(temperature=float("inf"))),
    ("endpoint.backoff_base must be finite",
     lambda c: c["endpoint"].update(backoff_base=float("inf"))),
    # json.load reads an integer literal of any length as an int, and
    # float() of one no float holds raises OverflowError
    ("endpoint.timeout must be finite, got inf",
     lambda c: c["endpoint"].update(timeout=10**400)),
    ("endpoint.temperature must be finite, got inf",
     lambda c: c["endpoint"].update(temperature=10**400)),
    ("endpoint.backoff_base must be finite, got inf",
     lambda c: c["endpoint"].update(backoff_base=10**400)),
    # a NaN fraction passed every comparison and crashed the split
    ("outside [0, 1]", lambda c: c["split"].update(train_frac=float("nan"))),
    # every sample would be an error, after the data was read
    ("endpoint.model_name",
     lambda c: c["endpoint"].update(model_name="mystery")),
    ("endpoint.model_name",
     lambda c: c["endpoint"].update(model_name="hash-embed-8")),
    # counts that would stall a run or fail it after every request was
    # sent; the closed port shows that none is sent
    ("bootstrap.n must be in [1, 1000000]",
     lambda c: _closed_port(c, "bootstrap", n=10**400)),
    ("config bootstrap: bootstrap.n must be in [1, 1000000]",
     lambda c: _closed_port(c, "bootstrap", n=1_000_001)),
    ("n_icl_examples must be in [0, 100]",
     lambda c: _closed_port(c, "prompt", n_icl_examples=10**400)),
    ("config prompt: n_icl_examples must be in [0, 100]",
     lambda c: _closed_port(c, "prompt", n_icl_examples=101)),
    # finite, but socket.settimeout overflows the platform's time_t on it
    ("config endpoint: endpoint.timeout must be in (0, 86400]",
     lambda c: _closed_port(c, "endpoint", timeout=1e12)),
    # each request in flight holds one OS thread; checked before any starts
    ("config endpoint: endpoint.max_in_flight must be in [1, 256]",
     lambda c: _closed_port(c, "endpoint", max_in_flight=257)),
]


class TestConfigValidation:
    @pytest.mark.parametrize("key, edit", BAD_CONFIGS,
                             ids=[key for key, _ in BAD_CONFIGS])
    def test_bad_config_exits_2_naming_key(self, tmp_path, capsys, key,
                                           edit):
        config_path, config = write_run_config(tmp_path)
        edit(config)
        config_path.write_text(json.dumps(config))
        for command in ("predict", "prompt-preview"):
            argv = [command, "--config", str(config_path)]
            if command == "prompt-preview":
                argv += ["--sample-id", "p000"]
            assert main(argv) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", ["echo-0.25", "echo-anything",
                                       "refuse", "garbage", "noise-"])
    def test_stub_chat_models_accepted(self, tmp_path, model):
        config_path, _ = write_run_config(tmp_path, model_name=model)
        assert main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", "p000"]) == 0

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        config_path, _ = write_run_config(tmp_path)
        config_path.write_text('{"data": ')
        assert main(["predict", "--config", str(config_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


def _end_dates_with(record, last):
    """Stamp ``record``'s visits 2020-01-10, 2020-01-11, ... and the last one
    ``last``."""
    n = len(record["visit_times"])
    record["visit_times"] = [f"2020-01-{10 + i:02d}" for i in range(n - 1)]
    record["visit_times"].append(last)


# edit of a JSONL cohort's records -> what the error must name
BAD_RECORDS = {
    "features_not_object":
        (lambda rs: rs[2].update(features=[80.0]), "line 3"),
    "series_not_list":
        (lambda rs: rs[2]["features"].update(hr=80.0), "line 3"),
    "age_not_number": (lambda rs: rs[2].update(age="old"), "line 3"),
    "visit_time_null":
        (lambda rs: rs[2]["visit_times"].__setitem__(0, None), "line 3"),
    "visit_time_nan":
        (lambda rs: rs[2]["visit_times"].__setitem__(0, math.nan),
         "line 3: record p009: visit_times must be finite"),
    "visit_times_mixed":
        (lambda rs: rs[2]["visit_times"].__setitem__(0, "2020-01-01"),
         "line 3"),
    "labels_not_object":
        (lambda rs: rs[2].update(label=None, labels=1), "line 3"),
    "numeric_value_string":
        (lambda rs: rs[2]["features"]["hr"].__setitem__(0, "80"), "line 3"),
    # date.fromisoformat accepts both from Python 3.11 on, not on 3.10
    "basic_iso_date": (lambda rs: _end_dates_with(rs[2], "20200131"),
                       "line 3: record p009: bad date"),
    "iso_week_date": (lambda rs: _end_dates_with(rs[2], "2020-W05-5"),
                      "line 3: record p009: bad date"),
    # keyed by id, the test split would shrink to one sample
    "duplicate_patient_id":
        (lambda rs: [r.update(patient_id="same") for r in rs],
         "line 2: patient_id 'same' repeats line 1"),
    "patient_id_repeats":
        (lambda rs: rs[2].update(patient_id=rs[0]["patient_id"]),
         "line 3: patient_id 'p003' repeats line 1"),
    "feature_not_in_catalog":
        (lambda rs: rs[2]["features"].update(
            zz=[None] * len(rs[2]["visit_times"])),
         "line 3: feature zz not in catalog"),
    # json reads Infinity and NaN; each would print in the prompt
    "age_infinity":
        (lambda rs: rs[2].update(age=math.inf),
         "line 3: record p009: age inf is not finite"),
    "age_nan": (lambda rs: rs[2].update(age=math.nan),
                "line 3: record p009: age nan is not finite"),
    "value_infinity":
        (lambda rs: rs[2]["features"]["hr"].__setitem__(0, math.inf),
         "line 3: record p009: feature hr value inf is not finite"),
    # and an integer of any length, which no float holds
    "age_too_large_for_float":
        (lambda rs: rs[2].update(age=10**400),
         "line 3: record p009: age inf is not finite"),
    "age_too_negative_for_float":
        (lambda rs: rs[2].update(age=-10**400),
         "line 3: record p009: negative age -inf"),
    "visit_time_too_large_for_float":
        (lambda rs: rs[2]["visit_times"].__setitem__(0, 10**400),
         "line 3: record p009: visit_times must be finite"),
    "value_too_large_for_float":
        (lambda rs: rs[2]["features"]["hr"].__setitem__(0, 10**400),
         "line 3: record p009: feature hr value inf is not finite"),
    # int() would truncate each to 0 or 1
    "label_fraction": (lambda rs: rs[2].update(label=0.7),
                       "line 3: record p009: label 0.7 not in {0,1}"),
    "label_bool": (lambda rs: rs[2].update(label=True),
                   "line 3: record p009: label True not in {0,1}"),
    "labels_task_fraction":
        (lambda rs: rs[2].update(label=None, labels={"mortality": 0.5}),
         "line 3: record p009: label 0.5 not in {0,1}"),
}


@pytest.mark.parametrize("name", BAD_RECORDS)
def test_malformed_cohort_record_exits_2(tmp_path, capsys, name):
    """Each command that reads the cohort stops with one error line."""
    edit, fragment = BAD_RECORDS[name]
    config_path, _ = write_run_config(tmp_path)
    cohort = tmp_path / "cohort.jsonl"
    records = [json.loads(line) for line in cohort.read_text().splitlines()]
    edit(records)
    cohort.write_text("".join(json.dumps(r) + "\n" for r in records))
    for argv in (["predict"], ["prompt-preview", "--sample-id", "p000"]):
        assert main([*argv, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_long_csv_patient_mixing_dates_and_numbers_exits_2(tmp_path, capsys):
    config_path, config = write_run_config(tmp_path)
    cohort, labels = tmp_path / "cohort.csv", tmp_path / "labels.csv"
    cohort.write_text("patient_id,visit_time,feature_id,value\n"
                      "p1,1,hr,80\np1,2020-01-01,hr,81\n")
    labels.write_text("patient_id,task,label\np1,mortality,1\n")
    config["data"].update(cohort=str(cohort), labels=str(labels))
    config_path.write_text(json.dumps(config))
    assert main(["predict", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    # a record's rows may be on any lines, so its error names the file alone
    assert err == (f"error: {cohort}: record p1: visit_times mix ISO dates "
                   "and numbers\n")


@pytest.mark.parametrize("visit_time", [
    "nan", "inf", "-1e400", pytest.param(str(10**400), id="10**400")])
def test_long_csv_non_finite_visit_time_exits_2(tmp_path, capsys, visit_time):
    """float() reads these, and int() the last; each would print as a
    visit time in the prompt."""
    config_path, config = write_run_config(tmp_path)
    cohort, labels = tmp_path / "cohort.csv", tmp_path / "labels.csv"
    cohort.write_text("patient_id,visit_time,feature_id,value\n"
                      f"p1,1,hr,80\np1,{visit_time},hr,81\n")
    labels.write_text("patient_id,task,label\np1,mortality,1\n")
    config["data"].update(cohort=str(cohort), labels=str(labels))
    config_path.write_text(json.dumps(config))
    assert main(["predict", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cohort}: record p1: visit_times must be finite\n"


def test_long_csv_feature_not_in_catalog_exits_2(tmp_path, capsys):
    config_path, config = write_run_config(tmp_path)
    cohort, labels = tmp_path / "cohort.csv", tmp_path / "labels.csv"
    cohort.write_text("patient_id,visit_time,feature_id,value\n"
                      "p1,1,hr,80\np1,2,zz,81\n")
    labels.write_text("patient_id,task,label\np1,mortality,1\n")
    config["data"].update(cohort=str(cohort), labels=str(labels))
    config_path.write_text(json.dumps(config))
    assert main(["predict", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cohort}, line 3: feature zz not in catalog\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
def test_long_csv_non_finite_value_exits_2(tmp_path, capsys, value):
    """float() reads these; an empty cell is the one gap in a series."""
    config_path, config = write_run_config(tmp_path)
    cohort, labels = tmp_path / "cohort.csv", tmp_path / "labels.csv"
    cohort.write_text("patient_id,visit_time,feature_id,value\n"
                      f"p1,1,hr,83\np1,2,hr,{value}\n")
    labels.write_text("patient_id,task,label\np1,mortality,1\n")
    config["data"].update(cohort=str(cohort), labels=str(labels))
    config_path.write_text(json.dumps(config))
    assert main(["predict", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {cohort}: record p1: feature hr value "
                   f"{float(value)} is not finite\n")


def test_icl_examples_shared_by_ordinal_and_hour_records(tmp_path, capsys,
                                                         monkeypatch):
    """Records stamped with integer and with fractional times get one spec
    and one synthesis, and each previews as the prompt that was sent."""
    config_path, _ = write_run_config(
        tmp_path, prompt_overrides={"n_icl_examples": 2})
    cohort = tmp_path / "cohort.jsonl"
    records = [json.loads(line) for line in cohort.read_text().splitlines()]
    for record in records[::2]:
        record["visit_times"] = [t + 0.5 for t in record["visit_times"]]
    cohort.write_text("".join(json.dumps(r) + "\n" for r in records))
    calls = collections.Counter()
    for name in ("icl_spec_from_cohort", "synthesize_icl_examples"):
        def counted(*args, _name=name, _fn=getattr(prompts, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(prompts, name, counted)
    assert main(["predict", "--config", str(config_path)]) == 0
    assert calls == {"icl_spec_from_cohort": 1, "synthesize_icl_examples": 1}
    capsys.readouterr()
    hours = {record["patient_id"] for record in records[::2]}
    with open(tmp_path / "out" / "transcript.jsonl") as fh:
        sent = {entry["sample_id"] in hours: entry
                for entry in map(json.loads, fh)}
    assert set(sent) == {False, True}
    for entry in sent.values():
        assert main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", entry["sample_id"]]) == 0
        text = capsys.readouterr().out[:-1]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            entry["prompt_sha256"]


def test_render_builds_no_record(tmp_path, monkeypatch):
    """Rendering with the LOCF policy fills the series it prints and builds
    no new ``PatientRecord``."""
    from ehrbench.cli import RunPlan
    from ehrbench.ehr import PatientRecord

    config_path, _ = write_run_config(
        tmp_path, prompt_overrides={"missing_policy": "locf",
                                    "n_icl_examples": 2})
    plan = RunPlan(str(config_path))
    test = plan.splits.test.records
    built = []
    check = PatientRecord.__post_init__
    monkeypatch.setattr(PatientRecord, "__post_init__",
                        lambda self: built.append(check(self)))
    prompts_by_id = {rec.patient_id: plan.render(rec) for rec in test}
    assert len(prompts_by_id) == len(test) > 0
    assert built == []


class TestPromptPreview:
    def config_for_fixture(self, tmp_path, which, config_kwargs=None,
                           cohort=None):
        config = {
            "label": "preview",
            "data": {
                "cohort": cohort or os.path.join(FIXTURES,
                                                 f"{which}_cohort.jsonl"),
                "catalog": os.path.join(FIXTURES, f"{which}_catalog.csv"),
                "task": "mortality",
            },
            "split": {"train_frac": 0.0, "val_frac": 0.0, "test_frac": 1.0,
                      "seed": 0},
            "prompt": dict(config_kwargs or {}),
            "endpoint": {"base_url": "stub", "model_name": "echo-0.5"},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_matches_golden(self, tmp_path, capsys):
        config_path = self.config_for_fixture(tmp_path, "lab")
        assert main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", "lab-001"]) == 0
        out = capsys.readouterr().out
        with open(os.path.join(FIXTURES, "golden", "lab_base.txt")) as fh:
            assert out == fh.read() + "\n"

    def test_vitals_golden(self, tmp_path, capsys):
        config_path = self.config_for_fixture(
            tmp_path, "vitals", {"missing_policy": "reserve_nan"})
        assert main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", "vitals-001"]) == 0
        out = capsys.readouterr().out
        with open(os.path.join(FIXTURES, "golden", "vitals_base.txt")) as fh:
            assert out == fh.read() + "\n"

    def preview_vitals_motor(self, tmp_path, series):
        """prompt-preview's exit status on the vitals record with its
        categorical ``gcs_motor`` series set to ``series``."""
        with open(os.path.join(FIXTURES, "vitals_cohort.jsonl")) as fh:
            record = json.loads(fh.read())
        record["features"]["gcs_motor"] = series
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text(json.dumps(record) + "\n")
        config_path = self.config_for_fixture(
            tmp_path, "vitals", {"missing_policy": "reserve_nan"},
            cohort=str(cohort))
        return main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", "vitals-001"])

    @pytest.mark.parametrize("cell", [{"a": 1}, ["x"], True],
                             ids=["object", "list", "bool"])
    def test_categorical_cell_of_another_type_exits_2(self, tmp_path, capsys,
                                                      cell):
        series = ["Flex-withdraws", cell, None, "Localizes Pain"]
        assert self.preview_vitals_motor(tmp_path, series) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cohort.jsonl'}, line 1: categorical "
            "feature gcs_motor must hold strings, numbers or null\n")
        assert not (tmp_path / "out").exists()

    def test_categorical_cells_may_be_strings_numbers_or_null(self, tmp_path,
                                                              capsys):
        series = ["Flex-withdraws", 3.5, None, 4]
        assert self.preview_vitals_motor(tmp_path, series) == 0
        assert ('- Glascow coma scale motor response: "Flex-withdraws, 3.5, '
                'unknown, 4"') in capsys.readouterr().out

    def test_preview_is_the_sent_prompt_with_icl(self, tmp_path, capsys):
        config_path, _ = write_run_config(
            tmp_path, prompt_overrides={"n_icl_examples": 2})
        assert main(["predict", "--config", str(config_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "out" / "transcript.jsonl") as fh:
            entries = [json.loads(line) for line in fh]
        assert entries
        for entry in entries:
            assert main(["prompt-preview", "--config", str(config_path),
                         "--sample-id", entry["sample_id"]]) == 0
            text = capsys.readouterr().out[:-1]
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
                entry["prompt_sha256"]

    def test_long_csv_preview_has_no_demographics(self, tmp_path, capsys):
        """A long-CSV record has no sex or age, so its prompt has no
        sentence on them; the preview is still the prompt sent."""
        config_path, config = write_run_config(tmp_path)
        cohort, labels = tmp_path / "cohort.csv", tmp_path / "labels.csv"
        cohort.write_text("patient_id,visit_time,feature_id,value\n" + "".join(
            f"p{i},{t},hr,{80 + i + t}\n" for i in range(4) for t in (0, 1)))
        labels.write_text("patient_id,task,label\n" + "".join(
            f"p{i},mortality,{i % 2}\n" for i in range(4)))
        config["data"].update(cohort=str(cohort), labels=str(labels))
        config["split"].update(train_frac=0.0, val_frac=0.0, test_frac=1.0)
        config_path.write_text(json.dumps(config))
        assert main(["predict", "--config", str(config_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "out" / "transcript.jsonl") as fh:
            entries = [json.loads(line) for line in fh]
        assert len(entries) == 4
        for entry in entries:
            assert main(["prompt-preview", "--config", str(config_path),
                         "--sample-id", entry["sample_id"]]) == 0
            text = capsys.readouterr().out[:-1]
            assert "aged" not in text
            assert "The patient had 2 visits" in text
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
                entry["prompt_sha256"]

    @pytest.mark.parametrize("sex, age, sentence", [
        ("unknown", 65, "The patient is aged 65 years."),
        ("female", 65, "The patient is a female, aged 65 years."),
        ("unknown", 65.5, "The patient is aged 65.5 years."),
    ])
    def test_demographics_as_written(self, tmp_path, capsys, sex, age,
                                     sentence):
        """A JSON integer age prints as one, and an unknown sex is not
        named."""
        config_path, config = write_run_config(tmp_path)
        (tmp_path / "cohort.jsonl").write_text(json.dumps({
            "patient_id": "p1", "sex": sex, "age": age, "visit_times": [0],
            "features": {"hr": [80.0]}, "label": 1}) + "\n")
        assert main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", "p1"]) == 0
        assert sentence in capsys.readouterr().out.splitlines()

    def test_task_comes_from_data(self, tmp_path, capsys):
        config_path, config = write_run_config(tmp_path)
        config["data"]["task"] = "readmission"
        config_path.write_text(json.dumps(config))
        assert main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", "p000"]) == 0
        out = capsys.readouterr().out
        assert task_instruction("readmission", "in_hospital") in out
        assert task_instruction("mortality", "in_hospital") not in out

    def test_unknown_sample(self, tmp_path, capsys):
        config_path = self.config_for_fixture(tmp_path, "lab")
        assert main(["prompt-preview", "--config", str(config_path),
                     "--sample-id", "nobody"]) == 2
        cohort = os.path.join(FIXTURES, "lab_cohort.jsonl")
        assert capsys.readouterr().err == \
            f"error: sample 'nobody' is not in cohort {cohort}\n"


class TestEvalSentences:
    def write_pairs(self, tmp_path, rows):
        path = tmp_path / "pairs.tsv"
        path.write_text("".join(f"{a}\t{b}\t{g}\n" for a, b, g in rows))
        return path

    def test_embeddings_file_grid(self, tmp_path):
        import math
        rows, table = [], {}
        for i, gold in enumerate((0.0, 1.0, 2.0, 3.0, 4.0)):
            s1, s2 = f"left {i}", f"right {i}"
            angle = (4.0 - gold) * math.pi / 8
            table[s1] = [1.0, 0.0]
            table[s2] = [math.cos(angle), math.sin(angle)]
            rows.append((s1, s2, gold))
        pairs = self.write_pairs(tmp_path, rows)
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"text": t, "embedding": v}) + "\n"
            for t, v in table.items()))
        assert main(["eval-sentences", "--pairs", str(pairs),
                     "--embeddings-file", str(emb),
                     "--output-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_pairs"] == 5
        assert report["grid"]["cosine"]["spearman"] == pytest.approx(1.0)
        with open(tmp_path / "out" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["measure"] for r in rows] == ["cosine", "l1", "l2"]

    def test_stub_embedder_deterministic(self, tmp_path):
        pairs = self.write_pairs(
            tmp_path, [(f"a{i}", f"b{i}", float(i)) for i in range(4)])
        for out in ("out1", "out2"):
            assert main(["eval-sentences", "--pairs", str(pairs),
                         "--model", "hash-embed-32",
                         "--output-dir", str(tmp_path / out)]) == 0
        assert (tmp_path / "out1" / "report.json").read_text() == \
            (tmp_path / "out2" / "report.json").read_text()

    @pytest.mark.parametrize("line", [
        '{"embedding": [1.0]}', '[1.0]', '{"text": "a"}',
        '{"text": "a", "embedding": [1.0, 2.0]}',
        '{"text": "a", "embedding": []}',
        '{"text": "a", "embedding": [NaN]}',
        '{"text": "a", "embedding": ["1.0"]}',
        '{"text": "a", "embedding": [[1.0]]}',
        '{"text": "a", "embedding": 1.0}'])
    def test_malformed_embedding_line(self, tmp_path, capsys, line):
        pairs = self.write_pairs(tmp_path, [("a", "b", 1.0)])
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"text": "b", "embedding": [1.0]}\n\n' + line + "\n")
        assert main(["eval-sentences", "--pairs", str(pairs),
                     "--embeddings-file", str(emb),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_repeated_text_exits_2(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path, [("a", "b", 1.0)])
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"text": "a", "embedding": [1.0]}\n'
                       '{"text": "b", "embedding": [1.0]}\n\n'
                       '{"text": "a", "embedding": [2.0]}\n')
        assert main(["eval-sentences", "--pairs", str(pairs),
                     "--embeddings-file", str(emb),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: {emb}, line 4: text 'a' repeats line 1\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_embeddings_exit_2(self, tmp_path, capsys):
        """Finite vectors whose squares overflow: one error line naming the
        file, no numpy warning, no report."""
        rows = [(f"a{i}", f"b{i}", float(i)) for i in range(4)]
        pairs = self.write_pairs(tmp_path, rows)
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"text": t, "embedding": [1e200 * sign, 1e200 * i]})
            + "\n" for i, (a, b, _) in enumerate(rows)
            for t, sign in ((a, 1), (b, -1))))
        assert main(["eval-sentences", "--pairs", str(pairs),
                     "--embeddings-file", str(emb),
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embeddings from ")
        assert err.count("\n") == 1 and str(emb) in err
        assert not (tmp_path / "out").exists()

    def test_zero_vector_names_its_pair(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path, [("a", "b", 1.0), ("c", "d", 2.0)])
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"text": t, "embedding": [0.0, 0.0] if t == "d"
                        else [1.0, float(i)]}) + "\n"
            for i, t in enumerate("abcd")))
        assert main(["eval-sentences", "--pairs", str(pairs),
                     "--embeddings-file", str(emb),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "error: pair 2: cosine undefined for a zero vector\n"
        assert not (tmp_path / "out").exists()

    def test_no_pairs_with_embeddings_file(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path, [])
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"text": "a", "embedding": [1.0]}\n')
        assert main(["eval-sentences", "--pairs", str(pairs),
                     "--embeddings-file", str(emb),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: {pairs}: no sentence pairs\n"

    def test_embedding_file_keeps_float64_rows(self, tmp_path):
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"text": "a", "embedding": [1, 2.5]}\n')
        (row,) = _load_embedding_file(str(emb)).values()
        assert row.dtype == "float64" and row.tolist() == [1.0, 2.5]

    def test_malformed_row(self, tmp_path, capsys):
        path = tmp_path / "pairs.tsv"
        path.write_text("only two\tfields\n")
        assert main(["eval-sentences", "--pairs", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("gold, message", [
        ("4.5", "gold score 4.5 outside [0, 4]"),
        ("-0.5", "gold score -0.5 outside [0, 4]"),
        ("nan", "gold score nan outside [0, 4]"),
        ("x", "bad gold score 'x'"),
    ], ids=["above", "below", "nan", "not-a-number"])
    def test_bad_gold_score_exits_2(self, tmp_path, capsys, gold, message):
        """The pairs file is checked as it is read, before any embedding."""
        path = self.write_pairs(tmp_path, [("a", "b", 4.0), ("c", "d", gold)])
        assert main(["eval-sentences", "--pairs", str(path),
                     "--model", "hash-embed-nonsense",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}, line 2: {message}\n"


class TestEvalIcd:
    ORDER = os.path.join(FIXTURES, "sibling_codes.order")

    def test_grouped_embeddings_reach_sibling_distance(self, tmp_path):
        emb = tmp_path / "emb.jsonl"
        lines = []
        for chap_idx, chap in enumerate("ABE"):
            for i in range(4):
                one_hot = [1.0 if j == chap_idx else 0.0 for j in range(3)]
                lines.append(json.dumps({"code": f"{chap}00{i}",
                                         "embedding": one_hot}))
        emb.write_text("\n".join(lines) + "\n")
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--embeddings-file", str(emb), "--ks", "3",
                     "--output-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["per_k"]["3"] == 2.0
        assert report["mean"] == 2.0

    def test_embedding_line_without_code(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"text": "A000", "embedding": [1.0]}\n')
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--embeddings-file", str(emb), "--ks", "3",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_repeated_code_exits_2(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"code": code, "embedding": [float(i)]}) + "\n"
            for i, code in enumerate(["A000", "A001", "B000", "A001"])))
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--embeddings-file", str(emb), "--ks", "3",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: {emb}, line 4: code 'A001' repeats line 2\n"

    def test_surplus_clusters_warn_on_stderr(self, tmp_path, capsys):
        """Two distinct vectors for 12 codes: K = 3 and K = 12 end with two
        non-empty clusters, said once each on stderr; stdout and the
        report are as for any run."""
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"code": f"{chap}00{i}",
                        "embedding": [float(i % 2), 1.0]}) + "\n"
            for chap in "ABE" for i in range(4)))
        out = tmp_path / "out"
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--embeddings-file", str(emb), "--ks", "2,3,12",
                     "--output-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: k=3 ended with 2 non-empty clusters\n"
                                "warning: k=12 ended with 2 non-empty "
                                "clusters\n")
        assert captured.out == f"wrote {out}/report.json (12 codes)\n"
        report = strict_json(out / "report.json")
        assert sorted(report) == ["mean", "n_codes", "per_k", "seed"]

    @pytest.mark.parametrize("cap", [1, None], ids=["capped", "default"])
    def test_k_stopped_at_the_cap_warns(self, tmp_path, capsys, monkeypatch,
                                        cap):
        """A K whose centroids still moved at the last iteration says so on
        stderr; stdout and the report are as for any run."""
        from ehrbench import icd

        if cap is not None:
            monkeypatch.setattr(icd, "_MAX_ITER", cap)
        out = tmp_path / "out"
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--model", "hash-embed-8", "--ks", "2,3",
                     "--output-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("" if cap is None else
                                "warning: k=2 stopped at 1 iterations before "
                                "converging\n"
                                "warning: k=3 stopped at 1 iterations before "
                                "converging\n")
        assert captured.out == f"wrote {out}/report.json (12 codes)\n"

    def test_embeddings_of_different_lengths(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"code": f"{chap}00{i}",
                        "embedding": [1.0] if (chap, i) == ("A", 0)
                        else [1.0, 0.0]}) + "\n"
            for chap in "ABE" for i in range(4)))
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--embeddings-file", str(emb), "--ks", "3",
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "2 values" in err

    # 4 max|x|^2 = 5e307 is finite at 2.5e153, but the k-means++ D^2 total
    # over the 12 rows is not
    @pytest.mark.parametrize("value", [1e200, 2.5e153])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_embeddings_exit_2(self, tmp_path, capsys, value):
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"code": f"{chap}00{i}",
                        "embedding": [value * (-1) ** i,
                                      value if i % 3 else -value]}) + "\n"
            for chap in "ABE" for i in range(4)))
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--embeddings-file", str(emb), "--ks", "2,3",
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embeddings from ")
        assert err.count("\n") == 1 and str(emb) in err
        assert not (tmp_path / "out").exists()

    def test_all_singleton_clusters_write_null(self, tmp_path):
        # 12 codes in 12 clusters: no cluster has a pair, so no value
        assert main(["eval-icd", "--order-file", self.ORDER, "--ks", "12",
                     "--output-dir", str(tmp_path / "out")]) == 0
        report = strict_json(tmp_path / "out" / "report.json")
        assert report["per_k"] == {"12": None}
        assert report["mean"] is None
        with open(tmp_path / "out" / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["12", "nan"], ["mean", "nan"]]

    def test_default_ks_rows(self, tmp_path):
        assert main(["eval-icd", "--order-file", self.ORDER,
                     "--ks", "2,3,4",
                     "--output-dir", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows] == ["k", "2", "3", "4", "mean"]

    @pytest.mark.parametrize("ks", ["3,x", "", "0", "-2", "2,,3", "3,3,2"])
    def test_bad_ks_exits_2(self, tmp_path, capsys, ks):
        with pytest.raises(SystemExit) as exc:
            main(["eval-icd", "--order-file", self.ORDER, "--ks", ks,
                  "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--ks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exits_2(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["eval-icd", "--order-file", self.ORDER, "--ks", "2,3",
                  "--seed", seed, "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_order_file(self, tmp_path, capsys):
        assert main(["eval-icd", "--order-file", str(tmp_path / "nope"),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_order_file_is_a_directory(self, tmp_path, capsys):
        assert main(["eval-icd", "--order-file", FIXTURES,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_base_url_without_scheme(self, tmp_path, capsys):
        assert main(["eval-icd", "--order-file", self.ORDER, "--ks", "2",
                     "--base-url", "localhost:9", "--model", "emb",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "endpoint.base_url" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_is_a_file(self, tmp_path, capsys):
        (tmp_path / "out").write_text("")
        assert main(["eval-icd", "--order-file", self.ORDER, "--ks", "2",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_k_above_the_code_count_exits_2_before_embedding(
            self, tmp_path, capsys, counting_endpoint):
        url, posts = counting_endpoint
        assert main(["eval-icd", "--order-file", self.ORDER, "--ks", "2,400",
                     "--base-url", url, "--model", "emb",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: 12 items for k=400\n"
        assert posts() == 0
        assert not (tmp_path / "out").exists()


class TestReportMerge:
    def test_merges_rows(self, tmp_path):
        paths = []
        for label in ("base", "ours"):
            sub = tmp_path / label
            sub.mkdir()
            config_path, _ = write_run_config(sub, label=label)
            main(["predict", "--config", str(config_path)])
            paths.append(str(sub / "out" / "report.json"))
        assert main(["report-merge", *paths,
                     "--output-dir", str(tmp_path / "merged")]) == 0
        with open(tmp_path / "merged" / "merged.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["base", "ours"]
        merged = json.loads(
            (tmp_path / "merged" / "merged.json").read_text())
        assert len(merged) == 2
        assert {m["label"] for m in merged} == {"base", "ours"}


# report.json text -> what the error must name
BAD_REPORTS = {
    "not_json": ('{"label": "a",\n "metrics": }', "line 2"),
    "list": ("[]", "report must be a JSON object"),
    "missing_rate_list": ('{"missing_rate": []}', "missing_rate must"),
    "metrics_number": ('{"metrics": 3}', "metrics must"),
    "auroc_number": ('{"metrics": {"auroc": 0.5}}', "metrics.auroc must"),
    "auprc_list": ('{"metrics": {"auprc": []}}', "metrics.auprc must"),
    # JSON has no such numbers; merged.json could not carry them
    "nan": ('{"metrics": {"auroc": {"mean": NaN}}}', "holds NaN"),
    "infinity": ('{"metrics": {"auroc": {"std": Infinity}}}',
                 "holds Infinity"),
    "minus_infinity": ('{"missing_rate": {"percent": -Infinity}}',
                       "holds -Infinity"),
    # not a predict report: its merged row would be nine empty cells
    "eval_icd": ('{"n_codes": 12, "seed": 0, "per_k": {"2": 1.5}, '
                 '"mean": 1.5}', "key fingerprint is required"),
}


@pytest.mark.parametrize("name", BAD_REPORTS)
def test_report_merge_malformed_report_exits_2(tmp_path, capsys, name):
    text, fragment = BAD_REPORTS[name]
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report-merge", str(path),
                 "--output-dir", str(tmp_path / "merged")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not (tmp_path / "merged").exists()


def _predict_outputs(tmp_path):
    config_path, _ = write_run_config(tmp_path)
    assert main(["predict", "--config", str(config_path)]) == 0
    return tmp_path / "out"


def _merge_outputs(tmp_path):
    report = _predict_outputs(tmp_path) / "report.json"
    out = tmp_path / "merged"
    assert main(["report-merge", str(report), str(report),
                 "--output-dir", str(out)]) == 0
    return out


def _command_outputs(*argv):
    def run(tmp_path):
        out = tmp_path / "out"
        assert main([*argv, "--output-dir", str(out)]) == 0
        return out
    return run


def _one_vector_outputs(tmp_path):
    emb = tmp_path / "emb.jsonl"
    emb.write_text("".join(
        json.dumps({"code": f"{chap}00{i}", "embedding": [0.5, -0.5]}) + "\n"
        for chap in "ABE" for i in range(4)))
    return _command_outputs("eval-icd", "--order-file", TestEvalIcd.ORDER,
                            "--ks", "2,3", "--embeddings-file",
                            str(emb))(tmp_path)


def _sentences_outputs(tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"a{i}\tb{i}\t{i}\n" for i in range(4)))
    return _command_outputs("eval-sentences", "--pairs", str(pairs),
                            "--model", "hash-embed-8")(tmp_path)


# command -> a function that runs it in tmp_path, returning its output dir
REPORT_COMMANDS = {
    "predict": _predict_outputs,
    "eval-sentences": _sentences_outputs,
    "eval-icd": _command_outputs("eval-icd", "--order-file", TestEvalIcd.ORDER,
                                 "--ks", "2,3", "--model", "hash-embed-8"),
    # no cluster holds a pair: every value is undefined
    "eval-icd-all-singletons": _command_outputs(
        "eval-icd", "--order-file", TestEvalIcd.ORDER, "--ks", "12"),
    # every code has one vector: every row ties, and k-means still ends
    "eval-icd-one-vector": _one_vector_outputs,
    "report-merge": _merge_outputs,
}


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_every_json_report_is_strict_json(tmp_path, name):
    out = REPORT_COMMANDS[name](tmp_path)
    written = sorted(out.glob("*.json"))
    assert written
    for path in written:
        strict_json(path)


def _non_utf8(path):
    path.write_bytes(b"\xff\n")
    return str(path)


def _non_utf8_config_input(tmp_path, key):
    config_path, config = write_run_config(tmp_path)
    config["data"][key] = _non_utf8(tmp_path / f"bad_{key}")
    config_path.write_text(json.dumps(config))
    return ["predict", "--config", str(config_path)], config["data"][key]


# input file -> (argv, the file's path); each file holds the byte 0xff
NON_UTF8_INPUTS = {
    "order_file": lambda tmp: (
        ["eval-icd", "--order-file", _non_utf8(tmp / "bad.order")],
        str(tmp / "bad.order")),
    "pairs_tsv": lambda tmp: (
        ["eval-sentences", "--pairs", _non_utf8(tmp / "bad.tsv")],
        str(tmp / "bad.tsv")),
    "embeddings_jsonl": lambda tmp: (
        ["eval-icd", "--order-file",
         os.path.join(FIXTURES, "sibling_codes.order"), "--ks", "2",
         "--embeddings-file", _non_utf8(tmp / "bad.jsonl")],
        str(tmp / "bad.jsonl")),
    "config": lambda tmp: (
        ["predict", "--config", _non_utf8(tmp / "config.json")],
        str(tmp / "config.json")),
    "cohort_jsonl": lambda tmp: _non_utf8_config_input(tmp, "cohort"),
    "catalog_csv": lambda tmp: _non_utf8_config_input(tmp, "catalog"),
    "report_merge": lambda tmp: (
        ["report-merge", _non_utf8(tmp / "report.json")],
        str(tmp / "report.json")),
}


@pytest.mark.parametrize("name", NON_UTF8_INPUTS)
def test_non_utf8_input_exits_2_naming_file(tmp_path, capsys, name):
    argv, path = NON_UTF8_INPUTS[name](tmp_path)
    out = tmp_path / "out"
    if "--config" not in argv:
        argv += ["--output-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert not out.exists()


def _predict_reading(key, long_csv=False):
    """A runner for the ``predict`` input that config key ``data.<key>``
    names: it writes a text as that file, next to good other inputs (a long
    CSV cohort and its labels, or a JSONL cohort), and returns (argv, the
    file's path)."""
    def run(tmp_path, text):
        config_path, config = write_run_config(tmp_path)
        if long_csv:
            config["data"].update(cohort=str(tmp_path / "cohort.csv"),
                                  labels=str(tmp_path / "labels.csv"))
            (tmp_path / "cohort.csv").write_text(
                "patient_id,visit_time,feature_id,value\np1,1,hr,80\n")
            (tmp_path / "labels.csv").write_text(
                "patient_id,task,label\np1,mortality,1\n")
        path = config["data"][key]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        config_path.write_text(json.dumps(config))
        return ["predict", "--config", str(config_path)], path
    return run


def _eval_reading(argv, flag, name):
    """A runner for the eval-command input that ``flag`` names."""
    def run(tmp_path, text):
        path = tmp_path / name
        path.write_text(text)
        return [*argv, flag, str(path),
                "--output-dir", str(tmp_path / "out")], str(path)
    return run


def _order_lines(*codes):
    return "".join(f"{i:<5} {code:<7} 0 {'short':<60} long\n"
                   for i, code in enumerate(codes, start=1))


_CATALOG = "feature_id,display_name,unit,reference_range,kind\n"
_RECORD = json.dumps({"patient_id": "p1", "sex": "male", "age": 60,
                      "visit_times": [0], "features": {"hr": [80.0]},
                      "label": 1}) + "\n"
# input kind -> runner that reads a text as that file
INPUT_KINDS = {
    "catalog": _predict_reading("catalog"),
    "labels": _predict_reading("labels", long_csv=True),
    "long_csv": _predict_reading("cohort", long_csv=True),
    "jsonl": _predict_reading("cohort"),
    "embeddings": _eval_reading(
        ["eval-icd", "--order-file",
         os.path.join(FIXTURES, "sibling_codes.order"), "--ks", "2"],
        "--embeddings-file", "emb.jsonl"),
    "pairs": _eval_reading(["eval-sentences", "--model", "hash-embed-8"],
                           "--pairs", "pairs.tsv"),
    "order": _eval_reading(
        ["eval-icd", "--model", "hash-embed-8", "--ks", "2"],
        "--order-file", "codes.order"),
}
# (input kind, file text, the line the error names, its message)
BAD_INPUT_LINES = {
    "catalog": ("catalog", _CATALOG + "hr,Heart Rate,,,numeric\n"
                "rr,Resp Rate,,,ordinal\n", 3, "feature rr: kind 'ordinal'"),
    "catalog_two_line_cell": (
        "catalog", _CATALOG + 'hr,"Heart\nRate",,,numeric\n'
        "rr,Resp Rate,,,numeric,x\n", 4, "expected 5 cells, got 6"),
    # the reader stops at the end of the file inside the quoted cell
    "catalog_unterminated_cell": (
        "catalog", _CATALOG + 'hr,"Heart Rate,,,numeric\n', 2,
        "expected 5 cells, got 2"),
    "labels": ("labels", "patient_id,task,label\np1,mortality,yes\n", 2,
               "record p1: label 'yes' not in {0,1}"),
    "long_csv": ("long_csv", "patient_id,visit_time,feature_id,value\n"
                 "p1,1,hr,80\np1,soon,hr,81\n", 3,
                 "unparseable visit_time 'soon'"),
    "jsonl": ("jsonl", _RECORD + "[1, 2]\n", 2, "expected a JSON object"),
    "embeddings": ("embeddings", '{"code": "A000", "embedding": [1.0]}\n\n'
                   '{"code": "A001"}\n', 3,
                   'expected a string "code" and an "embedding"'),
    "pairs": ("pairs", "a\tb\t1.0\nc\td\n", 2,
              "expected 3 tab-separated fields, got 2"),
    "order": ("order", _order_lines("A000", "9XX"), 2, "bad code '9XX'"),
    # every keyed file: a repeated key names both lines
    "catalog_repeat": ("catalog", _CATALOG + "hr,Heart Rate,,,numeric\n"
                       "hr,Heart Rate,,,numeric\n", 3,
                       "feature_id 'hr' repeats line 2"),
    "labels_repeat": ("labels", "patient_id,task,label\np1,mortality,1\n"
                      "p1,mortality,0\n", 3,
                      "patient p1: task mortality repeats line 2"),
    "long_csv_repeat": ("long_csv", "patient_id,visit_time,feature_id,value\n"
                        "p1,1,hr,80\np1,1,hr,81\n", 3,
                        "patient p1: feature hr at visit_time '1' repeats "
                        "line 2"),
    "jsonl_repeat": ("jsonl", _RECORD * 2, 2, "patient_id 'p1' repeats line 1"),
    "embeddings_repeat": ("embeddings", "".join(
        json.dumps({"code": code, "embedding": [1.0]}) + "\n"
        for code in ("A000", "A001", "B000", "A001")), 4,
        "code 'A001' repeats line 2"),
    "order_repeat": ("order", _order_lines("A000", "A001", "B000", "A001"), 4,
                     "code 'A001' repeats line 2"),
}


@pytest.mark.parametrize("name", BAD_INPUT_LINES)
def test_bad_input_line_names_file_and_line(tmp_path, capsys, name):
    kind, text, line, message = BAD_INPUT_LINES[name]
    argv, path = INPUT_KINDS[kind](tmp_path, text)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}, line {line}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_empty_pairs_file_exits_2(tmp_path, capsys):
    argv, path = INPUT_KINDS["pairs"](tmp_path, "")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: no sentence pairs\n"
    assert not (tmp_path / "out").exists()


def test_pairs_file_of_blank_lines_exits_2(tmp_path, capsys):
    argv, path = INPUT_KINDS["pairs"](tmp_path, "\n\n\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: no sentence pairs\n"
    assert not (tmp_path / "out").exists()


def test_empty_catalog_names_the_file_alone(tmp_path, capsys):
    argv, path = INPUT_KINDS["catalog"](tmp_path, "")
    assert main(argv) == 2
    header = _CATALOG.strip().split(",")
    assert capsys.readouterr().err == \
        f"error: {path}: catalog header None != {header}\n"


def test_stub_benchmark_script(tmp_path):
    """The README quick start runs end to end under strict config keys."""
    subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "run_stub_benchmark.py"),
         "--output-dir", str(tmp_path), "--n-patients", "30"],
        check=True, capture_output=True)
    with open(tmp_path / "merged" / "merged.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["label"] for r in rows] == ["base", "best"]


def test_module_entry_point_runs_without_warnings(tmp_path):
    """``python -m ehrbench.cli`` runs a module the package does not import
    first, so runpy has nothing to warn about."""
    import ehrbench

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(ehrbench.__file__)))
    subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ehrbench.cli",
         "eval-icd", "--order-file", TestEvalIcd.ORDER, "--ks", "2,3",
         "--model", "hash-embed-8", "--output-dir", str(tmp_path / "out")],
        env=env, check=True, capture_output=True)


@pytest.mark.parametrize("argv", [
    [],
    ["eval-icd", "--order-file", os.path.join(FIXTURES, "sibling_codes.order"),
     "--ks", "2", "--model", "hash-embed-8"],
], ids=["import", "eval-icd"])
def test_offline_commands_skip_requests_import(tmp_path, argv):
    """Only a command that sends over HTTP imports an HTTP client."""
    import ehrbench

    if argv:
        argv = [*argv, "--output-dir", str(tmp_path / "out")]
    code = ("import sys, ehrbench.cli\n"
            "if sys.argv[1:]:\n"
            "    assert ehrbench.cli.main(sys.argv[1:]) == 0\n"
            "print(sorted({'requests', 'urllib.request', 'http.client'}\n"
            "             & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(ehrbench.__file__)))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command, absent", [
    ("eval-icd", {"ehrbench.ehr", "ehrbench.prompts", "ehrbench.metrics"}),
    ("eval-sentences", {"ehrbench.ehr", "ehrbench.prompts", "ehrbench.icd"}),
    ("predict", {"ehrbench.icd"}),
])
def test_commands_import_only_their_modules(tmp_path, command, absent):
    """A command imports the submodules it runs and no other, so a fresh
    process compiles no more of the package than it needs."""
    import ehrbench

    out = str(tmp_path / "out")
    if command == "eval-icd":
        argv = [command, "--order-file", TestEvalIcd.ORDER, "--ks", "2,3",
                "--model", "hash-embed-8", "--output-dir", out]
    elif command == "eval-sentences":
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a b\tc d\t1\ne f\tg h\t2\ni j\tk l\t3\n")
        argv = [command, "--pairs", str(pairs), "--output-dir", out]
    else:
        config_path, _ = write_run_config(tmp_path)
        argv = [command, "--config", str(config_path)]
    code = ("import json, sys, ehrbench.cli\n"
            "assert ehrbench.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(ehrbench.__file__)))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert "ehrbench.gateway" in loaded
    assert not loaded & absent, loaded & absent
