#!/usr/bin/env python3
"""Regenerate the golden prompts, the report snapshots and their inputs.

Reads the two hand-made fixture cohorts (a dated lab-panel patient and a
vitals patient whose visit times are indices) and their feature catalogs,
which are checked-in inputs like ``sibling_codes.order``, and writes the four
golden prompt snapshots that ``GOLDEN`` sets up (base and best settings for
each cohort). Then writes the inputs of the report snapshots (a seeded
40-patient cohort, an order file of a few hundred codes, a sentence-pairs
file) and the reports that ``predict``, ``eval-icd`` and ``eval-sentences``
make from them. Run from the repository root; output lands under
tests/fixtures/.
"""
import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ehrbench import cli, prompts, synthetic  # noqa: E402
from ehrbench.ehr import load_catalog, load_cohort  # noqa: E402

FIXTURES = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                        "tests", "fixtures"))
REPORTS = os.path.join(FIXTURES, "reports")

# The golden prompts: name -> (fixture cohort, PromptConfig, IclExampleSpec
# or None). tests/conftest.py reads this table.
GOLDEN = {
    "lab_base.txt": ("lab", prompts.PromptConfig(), None),
    "lab_best.txt": (
        "lab",
        prompts.PromptConfig(include_units=True, include_ranges=True,
                             n_icl_examples=2),
        prompts.IclExampleSpec(
            group_stats={
                0: {"f01": (2.0, 0.09), "f02": (140.0, 4.0),
                    "f03": (104.0, 0.25)},
                1: {"f01": (8000.0, 9.0e6), "f02": (110.0, 900.0),
                    "f03": (97.0, 36.0)},
            },
            seed=7, n_visits=5, dated=True, start_date="2020-02-09"),
    ),
    "vitals_base.txt": (
        "vitals", prompts.PromptConfig(missing_policy="reserve_nan"), None,
    ),
    "vitals_best.txt": (
        "vitals",
        prompts.PromptConfig(missing_policy="reserve_nan", include_units=True,
                             include_ranges=True, n_icl_examples=1),
        prompts.IclExampleSpec(
            group_stats={0: {"dbp": (80.0, 25.0), "glucose": (150.0, 400.0),
                             "hr": (85.0, 16.0)}},
            seed=11, n_visits=4),
    ),
}


def golden_prompts():
    """name -> the golden prompt that ``GOLDEN`` sets up, rendered from the
    first record of its fixture cohort."""
    records = {}
    for which in ("lab", "vitals"):
        catalog = load_catalog(os.path.join(FIXTURES, f"{which}_catalog.csv"))
        cohort = load_cohort(os.path.join(FIXTURES, f"{which}_cohort.jsonl"),
                             catalog, "mortality")
        records[which] = (cohort.records[0], catalog)
    return {name: prompts.build_prompt(*records[which], config,
                                       icl_spec=icl_spec)
            for name, (which, config, icl_spec) in GOLDEN.items()}


def write_order_file(path, n_broad=300, seed=3):
    """A fixed-width order file with ``n_broad`` codes of four characters or
    fewer, plus 5-character billable codes that ``eval-icd`` drops. Each
    description starts with its code, so no two stub embeddings coincide."""
    rng = random.Random(seed)
    codes = []
    n_written = 0
    for category in (f"{ch}{n:02d}" for n in range(100) for ch in "ABEGJR"):
        if n_written == n_broad:
            break
        codes.append(category)
        n_written += 1
        for s in range(min(rng.randrange(5), n_broad - n_written)):
            codes.append(f"{category}{s}")
            codes.extend(f"{category}{s}{chr(65 + t)}"
                         for t in range(rng.randrange(3)))
            n_written += 1
    with open(path, "w", encoding="utf-8") as fh:
        for order, code in enumerate(codes, start=1):
            short = f"{code} synthetic code {rng.randrange(10_000)}"
            fh.write(f"{order:<5d} {code:<7} {int(len(code) > 4)} "
                     f"{short:<60} {short} for report snapshots\n")


def write_sentence_pairs(path, n_pairs=24, seed=4):
    """Tab-separated sentence pairs with gold scores on a 0.5 grid."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_pairs):
            fh.write(f"sentence {i} about finding {rng.randrange(50)}\t"
                     f"sentence {i} about finding {rng.randrange(50)}\t"
                     f"{rng.randrange(9) / 2}\n")


def write_report_inputs(directory):
    """The inputs of the report snapshots, written into ``directory``."""
    cohort = synthetic.synthetic_cohort(n_patients=40, seed=5)
    synthetic.write_cohort_jsonl(cohort, os.path.join(directory,
                                                      "report_cohort.jsonl"))
    synthetic.write_catalog_csv(cohort.catalog,
                                os.path.join(directory, "report_catalog.csv"))
    write_order_file(os.path.join(directory, "report_codes.order"))
    write_sentence_pairs(os.path.join(directory, "report_pairs.tsv"))


REPORT_PROMPTS = {
    "base": {},
    "best": {"include_units": True, "include_ranges": True,
             "n_icl_examples": 2},
}


def _predict_config(prompt):
    """A ``predict`` config naming its files relative to the working
    directory, so that the report's config and fingerprint do not depend on
    where it runs."""
    return {"label": "snapshot",
            "data": {"cohort": "cohort.jsonl", "catalog": "catalog.csv",
                     "task": "mortality"},
            "split": {"train_frac": 0.5, "val_frac": 0.1, "test_frac": 0.4,
                      "seed": 0},
            "prompt": prompt, "output_dir": "out",
            "endpoint": {"base_url": "stub", "model_name": "noise-42"},
            "bootstrap": {"n": 50, "seed": 0}}


def _without_timing(report_text):
    report = json.loads(report_text)
    report.pop("timing", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"ehrbench {' '.join(argv)} exited {status}")


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def report_snapshots(inputs, workdir):
    """snapshot name -> text: the reports made from the files
    ``write_report_inputs`` wrote into ``inputs``, run in the empty
    directory ``workdir``. A predict ``report.json`` is kept without its
    ``timing``, the one part that varies from run to run."""
    snapshots = {}
    inputs = os.path.abspath(inputs)
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        shutil.copyfile(os.path.join(inputs, "report_cohort.jsonl"),
                        "cohort.jsonl")
        shutil.copyfile(os.path.join(inputs, "report_catalog.csv"),
                        "catalog.csv")
        for name, prompt in REPORT_PROMPTS.items():
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(_predict_config(prompt), fh)
            _run(["predict", "--config", "config.json"])
            snapshots[f"predict_{name}.json"] = _without_timing(
                _read("out/report.json"))
            snapshots[f"predict_{name}.transcript.jsonl"] = _read(
                "out/transcript.jsonl")
        icd_runs = {
            "icd_sibling.json": (os.path.join(FIXTURES, "sibling_codes.order"),
                                 "2,3,12", "hash-embed-33"),
            "icd_codes.json": (os.path.join(inputs, "report_codes.order"),
                               "10,20,30,40,50", "hash-embed-256"),
        }
        for name, (order, ks, model) in icd_runs.items():
            _run(["eval-icd", "--order-file", order, "--ks", ks,
                  "--model", model, "--output-dir", "icd"])
            snapshots[name] = _read("icd/report.json")
        _run(["eval-sentences", "--pairs",
              os.path.join(inputs, "report_pairs.tsv"), "--model",
              "hash-embed-32", "--output-dir", "sentences"])
        snapshots["sentences.json"] = _read("sentences/report.json")
    finally:
        os.chdir(previous)
    return snapshots


def main():
    os.makedirs(os.path.join(FIXTURES, "golden"), exist_ok=True)
    for name, rendered in golden_prompts().items():
        path = os.path.join(FIXTURES, "golden", name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(rendered.text)
        print(f"wrote {path} ({len(rendered.text)} chars)")
    write_report_inputs(FIXTURES)
    os.makedirs(REPORTS, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        snapshots = report_snapshots(FIXTURES, workdir)
    for name, text in snapshots.items():
        path = os.path.join(REPORTS, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(text)} chars)")


if __name__ == "__main__":
    main()
