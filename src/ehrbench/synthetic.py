"""Seeded synthetic cohort generation for demos and offline testing.

Cohorts come from a simple generative story: each patient draws per-feature
trajectories from label-conditioned Gaussians, so labels are weakly
recoverable from the values but nothing is degenerate.
"""
from __future__ import annotations

import numpy as np

from .ehr import (
    CATALOG_HEADER,
    Cohort,
    FeatureCatalogEntry,
    PatientRecord,
)

FEATURES = (
    ("hr", "Heart Rate", "bpm", "60 - 100"),
    ("sbp", "Systolic blood pressure", "mmHg", "less than 120"),
    ("spo2", "Oxygen saturation", "%", "95 - 100"),
    ("glu", "Glucose", "mg/dL", "70 - 100"),
    ("temp", "Temperature", "degrees Celsius", "36.1 - 37.2"),
)

_BASELINES = {"hr": 80.0, "sbp": 120.0, "spo2": 97.0, "glu": 95.0,
              "temp": 36.8}
_LABEL_SHIFT = {"hr": 15.0, "sbp": -12.0, "spo2": -4.0, "glu": 20.0,
                "temp": 0.8}

POSITIVE_FRAC = 0.3
MIN_VISITS, MAX_VISITS = 2, 6
MISSING_FRAC = 0.1  # chance that one cell is missing


def synthetic_catalog():
    return {
        fid: FeatureCatalogEntry(
            feature_id=fid, display_name=name, unit=unit,
            reference_range=rng, kind="numeric",
        )
        for fid, name, unit, rng in FEATURES
    }


def synthetic_cohort(n_patients=40, seed=0):
    """Build a labeled ordinal-time cohort, deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    catalog = synthetic_catalog()
    records = []
    n_pos = max(1, round(n_patients * POSITIVE_FRAC))
    for i in range(n_patients):
        label = 1 if i < n_pos else 0
        n_visits = int(rng.integers(MIN_VISITS, MAX_VISITS + 1))
        features = {}
        for fid, *_ in FEATURES:
            center = _BASELINES[fid] + label * _LABEL_SHIFT[fid]
            series = rng.normal(center, abs(_BASELINES[fid]) * 0.05,
                                size=n_visits)
            cells = [float(round(v, 2)) for v in series]
            for j in range(n_visits):
                if rng.uniform() < MISSING_FRAC:
                    cells[j] = None
            if all(c is None for c in cells):
                cells[0] = float(round(center, 2))
            features[fid] = cells
        records.append(
            PatientRecord(
                patient_id=f"p{i:03d}",
                sex="male" if rng.integers(0, 2) == 0 else "female",
                age=float(round(rng.uniform(35, 90), 1)),
                visit_times=tuple(range(n_visits)),
                features=features,
                label=label,
            )
        )
    # interleave labels so any contiguous slice keeps both classes around
    order = rng.permutation(len(records))
    return Cohort(records=tuple(records[i] for i in order), catalog=catalog)


def write_catalog_csv(catalog, path):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CATALOG_HEADER)
        for e in catalog.values():
            writer.writerow([e.feature_id, e.display_name, e.unit or "",
                             e.reference_range or "", e.kind])


def write_cohort_jsonl(cohort, path):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for rec in cohort.records:
            fh.write(json.dumps({
                "patient_id": rec.patient_id,
                "sex": rec.sex,
                "age": rec.age,
                "visit_times": list(rec.visit_times),
                "features": {k: list(v) for k, v in rec.features.items()},
                "label": rec.label,
            }) + "\n")
