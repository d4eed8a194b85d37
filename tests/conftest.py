import functools
import importlib.util
import os
import pathlib
import sys

import numpy as np
import pytest

from ehrbench.ehr import PatientRecord, load_catalog, load_cohort

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                              "make_fixtures.py")


def pytest_collection_modifyitems(items):
    """A file or socket a test leaves open, or an exception raised in a
    destructor, fails that test."""
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


@functools.cache
def load_fixture_script():
    """scripts/make_fixtures.py as a module, loaded once."""
    saved = list(sys.path)  # the script extends it
    try:
        spec = importlib.util.spec_from_file_location("make_fixtures",
                                                      FIXTURE_SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="session")
def fixture_script():
    return load_fixture_script()


def golden_settings():
    """name -> (cohort fixture name, PromptConfig, IclExampleSpec or None):
    the table scripts/make_fixtures.py renders the golden prompts from."""
    return load_fixture_script().GOLDEN


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def lab_catalog():
    return load_catalog(os.path.join(FIXTURES, "lab_catalog.csv"))


@pytest.fixture(scope="session")
def lab_cohort(lab_catalog):
    return load_cohort(os.path.join(FIXTURES, "lab_cohort.jsonl"),
                       lab_catalog, "mortality")


@pytest.fixture(scope="session")
def lab_record(lab_cohort):
    return lab_cohort.records[0]


@pytest.fixture(scope="session")
def vitals_catalog():
    return load_catalog(os.path.join(FIXTURES, "vitals_catalog.csv"))


@pytest.fixture(scope="session")
def vitals_cohort(vitals_catalog):
    return load_cohort(os.path.join(FIXTURES, "vitals_cohort.jsonl"),
                       vitals_catalog, "mortality")


@pytest.fixture(scope="session")
def vitals_record(vitals_cohort):
    return vitals_cohort.records[0]


def random_record(rng, n_features=None, n_visits=None, categorical_frac=0.2,
                  missing_frac=0.15, pid="r0"):
    """A random multi-visit record plus a matching catalog entry list."""
    from ehrbench.ehr import FeatureCatalog, FeatureCatalogEntry

    n_features = n_features or int(rng.integers(1, 8))
    n_visits = n_visits or int(rng.integers(1, 7))
    entries = []
    features = {}
    for i in range(n_features):
        fid = f"g{i}"
        if rng.uniform() < categorical_frac:
            kind = "categorical"
            pool = ["low", "mid", "high"]
            series = [pool[int(rng.integers(0, 3))] for _ in range(n_visits)]
        else:
            kind = "numeric"
            series = [float(round(rng.uniform(-50, 500), 2))
                      for _ in range(n_visits)]
        series = [None if rng.uniform() < missing_frac else v
                  for v in series]
        entries.append(FeatureCatalogEntry(
            feature_id=fid, display_name=f"Feature {i}", unit=None,
            reference_range=None, kind=kind))
        features[fid] = series
    record = PatientRecord(
        patient_id=pid,
        sex="female" if rng.integers(0, 2) else "male",
        age=float(round(rng.uniform(20, 95), 1)),
        visit_times=tuple(range(n_visits)),
        features=features,
    )
    return record, FeatureCatalog(entries)


def random_scored_samples(rng, n=None, score_pool=None, require_both=True):
    from ehrbench.metrics import ScoredSample

    n = n or int(rng.integers(2, 9))
    while True:
        labels = [int(rng.integers(0, 2)) for _ in range(n)]
        if not require_both or (0 in labels and 1 in labels):
            break
    pool = score_pool if score_pool is not None else None
    samples = []
    for i, label in enumerate(labels):
        if pool is not None:
            score = float(pool[int(rng.integers(0, len(pool)))])
        else:
            score = float(round(rng.uniform(0, 1), 2))
        samples.append(ScoredSample(f"s{i}", score, label))
    return samples


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
