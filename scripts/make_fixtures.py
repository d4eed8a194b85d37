#!/usr/bin/env python3
"""Regenerate the checked-in test fixtures.

Writes two fixture cohorts (a date-stamped lab-panel patient and an
ordinal-stamped vitals patient), their feature catalogs, and the four golden
prompt snapshots (base and best settings for each cohort). Then writes the
inputs of the report snapshots (a seeded 40-patient cohort, an order file of
a few hundred codes, a sentence-pairs file) and the reports that
``predict``, ``eval-icd`` and ``eval-sentences`` make from them. Run from
the repository root; output lands under tests/fixtures/.
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
from ehrbench.ehr import TIME_DATE, TIME_ORDINAL, load_catalog, load_cohort  # noqa: E402

FIXTURES = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                        "tests", "fixtures"))
REPORTS = os.path.join(FIXTURES, "reports")

# (feature_id, display_name, unit, reference_range, 7 visit values)
# Some display names carry a trailing space on purpose; the golden snapshots
# pin them byte-exactly.
LAB_FEATURES = [
    ("f01", "Hypersensitive cardiac troponinI", "ng/L", "less than 14",
     [19.90] * 7),
    ("f02", "hemoglobin", "g/L", "140 - 180 for men, 120 - 160 for women",
     [136.00, 136.00, 140.00, 130.00, 129.00, 131.00, 131.00]),
    ("f03", "Serum chloride", "mmol/L", "96 - 106",
     [103.10, 103.10, 101.40, 98.50, 98.10, 100.00, 100.00]),
    ("f04", "Prothrombin time", "seconds", "13.1 - 14.125",
     [13.90, 13.90, 13.90, 14.10, 14.10, 12.40, 12.40]),
    ("f05", "procalcitonin", "ng/mL", "less than 0.05", [0.09] * 7),
    ("f06", "eosinophils(%)", "%", "1 - 6",
     [0.60, 0.60, 0.30, 0.20, 1.10, 1.70, 1.70]),
    ("f07", "Interleukin 2 receptor", "pg/mL", "less than 625", [722.00] * 7),
    ("f08", "Alkaline phosphatase", "IU/L", "44 - 147",
     [46.00, 46.00, 54.00, 57.00, 61.00, 71.00, 71.00]),
    ("f09", "albumin", "g/dL", "3.5 - 5.5",
     [33.30, 33.30, 33.20, 32.40, 35.90, 37.60, 37.60]),
    ("f10", "basophil(%)", "%", "0.5 - 1",
     [0.30, 0.30, 0.10, 0.10, 0.30, 0.20, 0.20]),
    ("f11", "Interleukin 10", "pg/mL", "less than 9.8", [9.90] * 7),
    ("f12", "Total bilirubin", "µmol/L", "5.1 - 17",
     [8.30, 8.30, 7.40, 16.60, 9.60, 6.30, 6.30]),
    ("f13", "Platelet count", "x10^9/L", "150 - 450",
     [105.00, 105.00, 214.00, 168.00, 143.00, 141.00, 141.00]),
    ("f14", "monocytes(%)", "%", "2 - 10",
     [10.70, 10.70, 7.20, 4.90, 9.00, 7.90, 7.90]),
    ("f15", "antithrombin", "%", "80 - 120", [84.50] * 7),
    ("f16", "Interleukin 8", "pg/mL", "less than 62", [17.60] * 7),
    ("f17", "indirect bilirubin", "μmol/L", "3.4 - 12.0",
     [4.30, 4.30, 4.50, 11.10, 6.00, 3.70, 3.70]),
    ("f18", "Red blood cell distribution width ", "%",
     "11.5 - 14.5 for men, 12.2 - 16.1 for women",
     [11.90, 11.90, 11.60, 11.90, 11.90, 11.90, 11.90]),
    ("f19", "neutrophils(%)", "%", "45 - 70",
     [65.80, 65.80, 66.50, 84.30, 60.90, 64.30, 64.30]),
    ("f20", "total protein", "g/L", "60 - 83",
     [69.30, 69.30, 67.90, 62.20, 67.20, 67.70, 67.70]),
    ("f21", "Quantification of Treponema pallidum antibodies", "/",
     "less than 1.0", [0.05] * 7),
    ("f22", "Prothrombin activity", "%", "70 - 130",
     [91.00, 91.00, 91.00, 89.00, 89.00, 115.00, 115.00]),
    ("f23", "HBsAg", "IU/mL", "0.0 - 0.01", [0.03] * 7),
    ("f24", "mean corpuscular volume", "fL", "80 - 100",
     [91.80, 91.80, 91.10, 92.70, 93.20, 93.80, 93.80]),
    ("f25", "hematocrit", "%", "40 - 54 for men, 36 - 48 for women",
     [39.20, 39.20, 39.70, 38.00, 36.90, 38.00, 38.00]),
    ("f26", "White blood cell count", "x10^9/L", "4.5 - 11.0",
     [3.57, 3.57, 6.9, 12.58, 9.05, 9.67, 9.67]),
    ("f27", "Tumor necrosis factorα", "pg/mL", "less than 8.1", [8.80] * 7),
    ("f28", "mean corpuscular hemoglobin concentration", "g/L", "320 - 360",
     [347.0, 347.0, 353.0, 342.0, 350.0, 345.0, 345.0]),
    ("f29", "fibrinogen", "g/L", "2 - 4",
     [4.41, 4.41, 4.41, 3.28, 3.28, 3.16, 3.16]),
    ("f30", "Interleukin 1β", "pg/mL", "less than 6.5", [6.90] * 7),
    ("f31", "Urea", "mmol/L", "1.8 - 7.1",
     [8.50, 8.50, 5.00, 7.60, 6.90, 6.50, 6.50]),
    ("f32", "lymphocyte count", "x10^9/L", "1.0 - 4.8",
     [0.80, 0.80, 1.79, 1.32, 2.60, 2.50, 2.50]),
    ("f33", "PH value", "/", "7.35 - 7.45", [6.71] * 7),
    ("f34", "Red blood cell count", "x10^12/L",
     "4.5 - 5.5 for men, 4.0 - 5.0 for women",
     [2.93, 2.93, 4.36, 4.1, 3.96, 4.05, 4.05]),
    ("f35", "Eosinophil count", "x10^9/L", "0.02 - 0.5",
     [0.02, 0.02, 0.02, 0.02, 0.10, 0.16, 0.16]),
    ("f36", "Corrected calcium", "mmol/L", "2.12 - 2.57",
     [2.29, 2.29, 2.53, 2.33, 2.47, 2.44, 2.44]),
    ("f37", "Serum potassium", "mmol/L", "3.5 - 5.0",
     [4.33, 4.33, 4.73, 4.21, 4.61, 5.15, 5.15]),
    ("f38", "glucose", "mmol/L", "3.9 - 5.6",
     [7.35, 7.35, 5.92, 17.18, 6.44, 6.75, 6.75]),
    ("f39", "neutrophils count", "x10^9/L", "2.0 - 8.0",
     [2.33, 2.33, 4.58, 10.61, 5.51, 6.23, 6.23]),
    ("f40", "Direct bilirubin", "µmol/L", "1.7 - 5.1",
     [4.00, 4.00, 2.90, 5.50, 3.60, 2.60, 2.60]),
    ("f41", "Mean platelet volume", "fL", "7.4 - 11.4",
     [11.90, 11.90, 10.90, 10.50, 11.50, 11.30, 11.30]),
    ("f42", "ferritin", "ng/mL", "24 - 336 for men, 11 - 307 for women",
     [675.60, 675.60, 675.60, 675.60, 675.60, 634.90, 634.90]),
    ("f43", "RBC distribution width SD", "fL", "40.0 - 55.0",
     [40.80, 40.80, 39.00, 40.50, 40.70, 41.50, 41.50]),
    ("f44", "Thrombin time", "seconds", "12 - 19",
     [16.90, 16.90, 16.90, 19.20, 19.20, 16.30, 16.30]),
    ("f45", "(%)lymphocyte", "%", "20 - 40",
     [22.60, 22.60, 25.90, 10.50, 28.70, 25.90, 25.90]),
    ("f46", "HCV antibody quantification", "IU/mL", "0.04 - 0.08",
     [0.06] * 7),
    ("f47", "D-D dimer", "mg/L", "0 - 0.5",
     [2.20, 2.20, 2.20, 0.66, 0.66, 0.92, 0.92]),
    ("f48", "Total cholesterol", "mmol/L", "less than 5.17",
     [3.90, 3.90, 3.81, 3.65, 4.62, 4.84, 4.84]),
    ("f49", "aspartate aminotransferase", "U/L", "8 - 33",
     [33.00, 33.00, 35.00, 16.00, 21.00, 23.00, 23.00]),
    ("f50", "Uric acid", "µmol/L",
     "240 - 510 for men, 160 - 430 for women",
     [418.00, 418.00, 281.00, 379.00, 388.00, 376.00, 376.00]),
    ("f51", "HCO3-", "mmol/L", "22 - 29",
     [21.20, 21.20, 26.70, 25.60, 31.00, 28.00, 28.00]),
    ("f52", "calcium", "mmol/L", "2.13 - 2.55",
     [2.02, 2.02, 2.25, 2.04, 2.25, 2.25, 2.25]),
    ("f53", "Amino-terminal brain natriuretic peptide precursor", "pg/mL",
     "0 - 125", [60.0] * 7),
    ("f54", "Lactate dehydrogenase", "U/L", "140 - 280",
     [306.00, 306.00, 250.00, 200.00, 198.00, 206.00, 206.00]),
    ("f55", "platelet large cell ratio ", "%", "15 - 35",
     [39.90, 39.90, 32.10, 29.30, 37.20, 36.90, 36.90]),
    ("f56", "Interleukin 6", "pg/mL", "0 - 7", [26.06] * 7),
    ("f57", "Fibrin degradation products", "μg/mL", "0 - 10", [17.65] * 7),
    ("f58", "monocytes count", "x10^9/L", "0.32 - 0.58",
     [0.38, 0.38, 0.50, 0.62, 0.81, 0.76, 0.76]),
    ("f59", "PLT distribution width", "fL", "9.2 - 16.7",
     [16.30, 16.30, 12.60, 11.90, 14.90, 14.30, 14.30]),
    ("f60", "globulin", "g/L", "23 - 35",
     [36.00, 36.00, 34.70, 29.80, 31.30, 30.10, 30.10]),
    ("f61", "γ-glutamyl transpeptidase", "U/L",
     "7 - 47 for men, 5 - 25 for women",
     [24.00, 24.00, 31.00, 27.00, 42.00, 41.00, 41.00]),
    ("f62", "International standard ratio", "ratio", "0.8 - 1.2",
     [1.06, 1.06, 1.06, 1.08, 1.08, 0.92, 0.92]),
    ("f63", "basophil count(#)", "x10^9/L", "0.01 - 0.02",
     [0.01, 0.01, 0.01, 0.01, 0.03, 0.02, 0.02]),
    ("f64", "mean corpuscular hemoglobin ", "pg", "27 - 31",
     [31.90, 31.90, 32.10, 31.70, 32.60, 32.30, 32.30]),
    ("f65", "Activation of partial thromboplastin time", "seconds",
     "22 - 35", [39.00, 39.00, 39.00, 37.90, 37.90, 38.90, 38.90]),
    ("f66", "Hypersensitive c-reactive protein", "mg/L", "3 - 10",
     [43.10, 43.10, 3.60, 3.60, 2.60, 2.60, 2.60]),
    ("f67", "HIV antibody quantification", "IU/mL", "0.08 - 0.11",
     [0.09] * 7),
    ("f68", "serum sodium", "mmol/L", "135 - 145",
     [137.70, 137.70, 142.90, 139.40, 140.00, 142.70, 142.70]),
    ("f69", "thrombocytocrit", "%", "0.22 - 0.24",
     [0.12, 0.12, 0.23, 0.18, 0.16, 0.16, 0.16]),
    ("f70", "ESR", "mm/hr", "less than 15 for men, less than 20 for women",
     [41.00] * 7),
    ("f71", "glutamic-pyruvic transaminase", "U/L", "0 - 35",
     [16.00, 16.00, 42.00, 29.00, 29.00, 30.00, 30.00]),
    ("f72", "eGFR", "mL/min/1.73m^2", "more than 90",
     [46.60, 46.60, 72.70, 64.80, 74.70, 74.70, 74.70]),
    ("f73", "creatinine", "µmol/L",
     "61.9 - 114.9 for men, 53 - 97.2 for women",
     [130.00, 130.00, 90.00, 99.00, 88.00, 88.00, 88.00]),
]

LAB_VISIT_DATES = ["2020-01-31", "2020-02-04", "2020-02-06", "2020-02-10",
                   "2020-02-15", "2020-02-16", "2020-02-17"]

# (feature_id, display_name, unit, reference_range, kind, 4 visit values)
VITALS_FEATURES = [
    ("crr", "Capillary refill rate", "/", "/", "categorical",
     [None, None, None, None]),
    ("gcs_eye", "Glascow coma scale eye opening", "/", "/", "categorical",
     ["None", "None", "None", "None"]),
    ("gcs_motor", "Glascow coma scale motor response", "/", "/",
     "categorical", ["Flex-withdraws", "Flex-withdraws", None,
                     "Localizes Pain"]),
    ("gcs_total", "Glascow coma scale total", "/", "/", "categorical",
     [None, None, None, None]),
    ("gcs_verbal", "Glascow coma scale verbal response", "/", "/",
     "categorical", ["No Response-ETT", "No Response-ETT", "No Response-ETT",
                     "No Response-ETT"]),
    ("dbp", "Diastolic blood pressure", "mmHg", "less than 80", "numeric",
     [79.42, 77.83, 85.83, 83.25]),
    ("fio2", "Fraction inspired oxygen", "/", "more than 0.21", "numeric",
     [0.50, 0.50, 0.50, 0.50]),
    ("glucose", "Glucose", "mg/dL", "70 - 100", "numeric",
     [172.00, 150.00, 128.00, 147.00]),
    ("hr", "Heart Rate", "bpm", "60 - 100", "numeric",
     [85.42, 84.92, 87.33, 88.42]),
    ("height", "Height", "cm", "/", "numeric",
     [173.00, 173.00, 173.00, 173.00]),
    ("mbp", "Mean blood pressure", "mmHg", "less than 100", "numeric",
     [96.42, 97.58, 109.92, 108.42]),
    ("spo2", "Oxygen saturation", "%", "95 - 100", "numeric",
     [99.50, 100.00, 100.00, 100.00]),
    ("rr", "Respiratory rate", "breaths per minute", "15 - 18", "numeric",
     [22.08, 21.58, 22.00, 22.25]),
    ("sbp", "Systolic blood pressure", "mmHg", "less than 120", "numeric",
     [136.50, 135.42, 152.17, 153.17]),
    ("temp", "Temperature", "degrees Celsius", "36.1 - 37.2", "numeric",
     [37.32, 37.07, 37.36, 37.77]),
    ("weight", "Weight", "kg", "/", "numeric",
     [69.40, 69.40, 68.33, 68.20]),
    ("ph", "pH", "/", "7.35 - 7.45", "numeric",
     [7.48, 7.48, 7.45, 7.43]),
]

# Golden-setting in-context example statistics: outcome group ->
# feature_id -> (mean, variance). Mirrored in tests/conftest.py; the golden
# byte-compare catches any drift.
LAB_ICL_STATS = {
    0: {"f01": (2.0, 0.09), "f02": (140.0, 4.0), "f03": (104.0, 0.25)},
    1: {"f01": (8000.0, 9.0e6), "f02": (110.0, 900.0), "f03": (97.0, 36.0)},
}
VITALS_ICL_STATS = {
    0: {"dbp": (80.0, 25.0), "glucose": (150.0, 400.0), "hr": (85.0, 16.0)},
}

LAB_ICL_SEED = 7
VITALS_ICL_SEED = 11


def write_catalog(path, rows):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_id", "display_name", "unit",
                         "reference_range", "kind"])
        writer.writerows(rows)


def write_lab_fixtures():
    write_catalog(
        os.path.join(FIXTURES, "lab_catalog.csv"),
        [(fid, name, unit, rng, "numeric")
         for fid, name, unit, rng, _ in LAB_FEATURES],
    )
    record = {
        "patient_id": "lab-001",
        "sex": "male",
        "age": 73.0,
        "visit_times": LAB_VISIT_DATES,
        "features": {fid: values for fid, _, _, _, values in LAB_FEATURES},
        "label": 0,
    }
    with open(os.path.join(FIXTURES, "lab_cohort.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def write_vitals_fixtures():
    write_catalog(
        os.path.join(FIXTURES, "vitals_catalog.csv"),
        [(fid, name, unit, rng, kind)
         for fid, name, unit, rng, kind, _ in VITALS_FEATURES],
    )
    record = {
        "patient_id": "vitals-001",
        "sex": "male",
        "age": 50.0,
        "visit_times": [0, 1, 2, 3],
        "features": {fid: values
                     for fid, _, _, _, _, values in VITALS_FEATURES},
        "label": 0,
    }
    with open(os.path.join(FIXTURES, "vitals_cohort.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def golden_prompts():
    lab_catalog = load_catalog(os.path.join(FIXTURES, "lab_catalog.csv"))
    lab = load_cohort(os.path.join(FIXTURES, "lab_cohort.jsonl"),
                      lab_catalog, "mortality").records[0]
    vitals_catalog = load_catalog(os.path.join(FIXTURES,
                                               "vitals_catalog.csv"))
    vitals = load_cohort(os.path.join(FIXTURES, "vitals_cohort.jsonl"),
                         vitals_catalog, "mortality").records[0]

    base = prompts.PromptConfig()
    best_lab = prompts.PromptConfig(include_units=True, include_ranges=True,
                                    n_icl_examples=2)
    vitals_base = prompts.PromptConfig(missing_policy="reserve_nan")
    best_vitals = prompts.PromptConfig(missing_policy="reserve_nan",
                                       include_units=True,
                                       include_ranges=True,
                                       n_icl_examples=1)
    lab_icl = prompts.IclExampleSpec(group_stats=LAB_ICL_STATS,
                                     seed=LAB_ICL_SEED, n_visits=5,
                                     time_kind=TIME_DATE,
                                     start_date="2020-02-09")
    vitals_icl = prompts.IclExampleSpec(group_stats=VITALS_ICL_STATS,
                                        seed=VITALS_ICL_SEED, n_visits=4,
                                        time_kind=TIME_ORDINAL)
    return {
        "lab_base.txt": prompts.build_prompt(lab, lab_catalog, base),
        "lab_best.txt": prompts.build_prompt(lab, lab_catalog, best_lab,
                                             icl_spec=lab_icl),
        "vitals_base.txt": prompts.build_prompt(vitals, vitals_catalog,
                                                vitals_base),
        "vitals_best.txt": prompts.build_prompt(vitals, vitals_catalog,
                                                best_vitals,
                                                icl_spec=vitals_icl),
    }


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
    write_lab_fixtures()
    write_vitals_fixtures()
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
