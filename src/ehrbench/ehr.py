"""Longitudinal structured-EHR records: loading, LOCF filling, splits.

Records are immutable after construction. A record's visit times are all
ISO calendar dates (the record is dated), or all numbers: visit indices or
hours since admission. Prompts render either verbatim.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import (
    DegenerateClass,
    InvariantViolation,
    ParseError,
    SchemaMismatch,
    as_float,
    jsonl_objects,
    open_text,
)

SEXES = ("male", "female", "unknown")
TASKS = ("mortality", "readmission")


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_date(text):
    """``text`` as a date if it is written YYYY-MM-DD, else ValueError.
    ``date.fromisoformat`` alone accepts more forms (``20200131``,
    ``2020-W05-5``) from Python 3.11 on than on 3.10."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def _time_keys(patient_id, visit_times):
    """Keys that sort ``visit_times`` into time order: an ISO date as a
    date, a number as itself. One record's times are all dates or all
    numbers."""
    n_dates = sum(isinstance(t, str) for t in visit_times)
    if n_dates == 0:
        if not all(math.isfinite(as_float(t)) for t in visit_times):
            raise InvariantViolation(
                f"record {patient_id}: visit_times must be finite")
        return list(visit_times)
    if n_dates < len(visit_times):
        raise InvariantViolation(
            f"record {patient_id}: visit_times mix ISO dates and numbers")
    try:
        return [_iso_date(t) for t in visit_times]
    except ValueError as exc:
        raise InvariantViolation(
            f"record {patient_id}: bad date: {exc}") from exc


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    sex: str
    age: float | int | None  # None: unknown, as in a long-CSV cohort
    visit_times: tuple
    features: dict
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "visit_times", tuple(self.visit_times))
        object.__setattr__(
            self, "features", {k: tuple(v) for k, v in self.features.items()}
        )
        pid = self.patient_id
        if self.sex not in SEXES:
            raise InvariantViolation(f"record {pid}: sex {self.sex!r} not in {SEXES}")
        age = self.age if self.age is None else as_float(self.age)
        if age is not None and age < 0:
            raise InvariantViolation(f"record {pid}: negative age {age}")
        if age is not None and not math.isfinite(age):
            raise InvariantViolation(f"record {pid}: age {age} is not finite")
        n = len(self.visit_times)
        for fid, series in self.features.items():
            if len(series) != n:
                raise InvariantViolation(
                    f"record {pid}: feature {fid} has {len(series)} slots "
                    f"for {n} visits"
                )
            for v in series:
                # floats first: they are most of a series
                if (isinstance(v, float) and not math.isfinite(v)
                        or isinstance(v, int) and not math.isfinite(
                            as_float(v))):
                    raise InvariantViolation(
                        f"record {pid}: feature {fid} value {as_float(v)} "
                        "is not finite")
        keys = _time_keys(pid, self.visit_times)
        if any(b < a for a, b in zip(keys, keys[1:])):
            raise InvariantViolation(f"record {pid}: visit_times decrease")
        if self.label is not None and self.label not in (0, 1):
            raise InvariantViolation(f"record {pid}: label {self.label!r} not in {{0,1}}")

    @property
    def dated(self):
        """Is every visit time an ISO date string?"""
        return all(isinstance(t, str) for t in self.visit_times)


@dataclass(frozen=True)
class FeatureCatalogEntry:
    feature_id: str
    display_name: str
    unit: str | None
    reference_range: str | None
    kind: str  # "numeric" or "categorical"

    def __post_init__(self):
        if not self.display_name:
            raise InvariantViolation(f"feature {self.feature_id}: empty display_name")
        if self.kind not in ("numeric", "categorical"):
            raise InvariantViolation(
                f"feature {self.feature_id}: kind {self.kind!r}"
            )


class FeatureCatalog:
    """Ordered per-feature metadata; iteration preserves file order."""

    def __init__(self, entries):
        self._entries = {e.feature_id: e for e in entries}

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self):
        return len(self._entries)

    def __contains__(self, feature_id):
        return feature_id in self._entries

    def __getitem__(self, feature_id):
        return self._entries[feature_id]


@dataclass(frozen=True)
class Cohort:
    """Records with distinct patient ids, every feature in ``catalog``:
    ``load_cohort`` checks both as it reads the file."""

    records: tuple
    catalog: FeatureCatalog

    def __len__(self):
        return len(self.records)

    def get(self, patient_id):
        for rec in self.records:
            if rec.patient_id == patient_id:
                return rec
        return None


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float
    seed: int

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if not all(0 <= f <= 1 for f in fracs):  # NaN too
            raise InvariantViolation(f"fractions {fracs} outside [0, 1]")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise InvariantViolation(f"fractions {fracs} do not sum to 1")
        if self.seed < 0:
            raise InvariantViolation("split.seed must be >= 0")


@dataclass(frozen=True)
class CohortSplits:
    train: Cohort
    val: Cohort
    test: Cohort


CATALOG_HEADER = ["feature_id", "display_name", "unit", "reference_range", "kind"]
COHORT_CSV_HEADER = ["patient_id", "visit_time", "feature_id", "value"]
LABELS_CSV_HEADER = ["patient_id", "task", "label"]


def _csv_rows(lines, header, what):
    """Yield every non-blank row of CSV ``Lines`` (``open_text`` with
    ``newline=""``) whose first row is ``header``; a row of another width
    raises ``ParseError``. A quoted cell may span lines, so a row is placed
    at the line it ends on."""
    reader = csv.reader(lines)
    found = next(reader, None)
    if found != header:
        raise SchemaMismatch(f"{what} header {found} != {header}")
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(row)}")
        yield row


def load_catalog(path):
    """Read a feature catalog CSV; no two rows may share a feature_id.

    Empty unit/range cells mean absent; a literal "/" is an explicit none and
    is rendered verbatim downstream.
    """
    entries = []
    with open_text(path, newline="") as lines:
        for fid, name, unit, rng, kind in _csv_rows(lines, CATALOG_HEADER,
                                                    "catalog"):
            lines.once(fid, f"feature_id {fid!r}")
            entries.append(FeatureCatalogEntry(
                feature_id=fid,
                display_name=name,
                unit=unit if unit != "" else None,
                reference_range=rng if rng != "" else None,
                kind=kind,
            ))
    return FeatureCatalog(entries)


def _parse_visit_time(token):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    try:
        _iso_date(token)
        return token
    except ValueError:
        raise ParseError(f"unparseable visit_time {token!r}") from None


def _parse_value(token, kind):
    if token == "":
        return None
    if kind == "categorical":
        return token
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"unparseable numeric value {token!r}") from None


def _parse_label(token, patient_id):
    """Patient ``patient_id``'s 0 or 1 from a CSV cell, or from a JSON number
    or string; a bool, a fraction and any other number are no label."""
    try:
        value = int(token) if isinstance(token, str) else token
    except ValueError:
        value = token
    if isinstance(value, bool) or value not in (0, 1):
        raise InvariantViolation(
            f"record {patient_id}: label {value!r} not in {{0,1}}")
    return int(value)


def _load_labels(path, task):
    labels = {}
    with open_text(path, newline="") as lines:
        for pid, row_task, label in _csv_rows(lines, LABELS_CSV_HEADER,
                                              "labels"):
            lines.once((pid, row_task), f"patient {pid}: task {row_task}")
            if row_task == task:
                labels[pid] = _parse_label(label, pid)
    return labels


def _load_long_csv(path, catalog, task, labels_path):
    labels = _load_labels(labels_path, task) if labels_path else {}
    # patient -> visit_time -> feature -> value, preserving first-seen order
    per_patient = {}
    with open_text(path, newline="") as lines:
        for pid, vt, fid, value in _csv_rows(lines, COHORT_CSV_HEADER,
                                             "cohort"):
            if fid not in catalog:
                raise InvariantViolation(f"feature {fid} not in catalog")
            t = _parse_visit_time(vt)
            cell = _parse_value(value, catalog[fid].kind)
            lines.once((pid, t, fid), f"patient {pid}: feature {fid} at "
                                      f"visit_time {vt.strip()!r}")
            visits = per_patient.setdefault(pid, {})
            visits.setdefault(t, {})[fid] = cell
    records = []
    for pid, visits in per_patient.items():
        key = dict(zip(visits, _time_keys(pid, visits)))
        times = sorted(visits, key=key.get)
        fids = []
        for t in times:
            for fid in visits[t]:
                if fid not in fids:
                    fids.append(fid)
        features = {
            fid: [visits[t].get(fid) for t in times] for fid in fids
        }
        records.append(
            PatientRecord(
                patient_id=pid,
                sex="unknown",
                age=None,
                visit_times=tuple(times),
                features=features,
                label=labels.get(pid),
            )
        )
    return records


# the JSON types a value may have; a bool is not a number here
_JSON_NUMBER = frozenset((int, float))
_JSON_NUMERIC_CELL = _JSON_NUMBER | {type(None)}


def _record_json_error(obj, kinds):
    """Why a JSONL cohort object does not hold one record's fields with the
    JSON types they need, or None. ``kinds``: the catalog's feature ids and
    their kinds."""
    if type(obj["age"]) not in _JSON_NUMBER:
        return '"age" must be a number'
    times = obj["visit_times"]
    if type(times) is not list or not (
            _JSON_NUMBER.issuperset(map(type, times))
            or all(type(t) is str for t in times)):
        return '"visit_times" must be a list of numbers or of ISO dates'
    if not isinstance(obj.get("labels", {}), dict):
        return '"labels" must be an object'
    if not isinstance(obj["features"], dict):
        return '"features" must be an object'
    for fid, series in obj["features"].items():
        if fid not in kinds:
            return f"feature {fid} not in catalog"
        if type(series) is not list:
            return f"feature {fid} must be a list"
        if kinds[fid] == "numeric" and not _JSON_NUMERIC_CELL.issuperset(
                map(type, series)):
            return f"numeric feature {fid} must hold numbers or null"
    return None


def _load_jsonl(path, catalog, task):
    kinds = {e.feature_id: e.kind for e in catalog}
    required = {"patient_id", "sex", "age", "visit_times", "features"}
    records = []
    with open_text(path) as lines:
        for obj in jsonl_objects(lines):
            missing = required - obj.keys()
            if missing:
                raise SchemaMismatch(f"missing fields {sorted(missing)}")
            problem = _record_json_error(obj, kinds)
            if problem:
                raise ParseError(problem)
            pid = str(obj["patient_id"])
            lines.once(pid, f"patient_id {pid!r}")
            label = obj.get("label")
            if label is None and "labels" in obj:
                label = obj["labels"].get(task)
            if label is not None:
                label = _parse_label(label, pid)
            records.append(PatientRecord(
                patient_id=pid,
                sex=obj["sex"],
                age=obj["age"],  # an int stays one, and prints as written
                visit_times=tuple(obj["visit_times"]),
                features=obj["features"],
                label=label,
            ))
    return records


def is_long_csv(path):
    """Is a cohort path a long CSV (labels in a separate CSV), not JSONL?"""
    return str(path).endswith(".csv")


def load_cohort(path, catalog, task, labels_path=None):
    """Load a cohort from long CSV (plus labels CSV) or record-per-line JSON."""
    path = str(path)
    if is_long_csv(path):
        records = _load_long_csv(path, catalog, task, labels_path)
    else:
        records = _load_jsonl(path, catalog, task)
    return Cohort(records=tuple(records), catalog=catalog)


def locf_series(series):
    """Last observation carried forward: each missing slot takes the most
    recent observed value. Slots before the first observation stay missing;
    observed values are untouched. Idempotent."""
    out = []
    last = None
    for v in series:
        if v is not None:
            last = v
        out.append(last)
    return tuple(out)


def _allocate(count, fracs):
    """Largest-remainder allocation of `count` items over split fractions."""
    raw = [count * f for f in fracs]
    base = [int(x) for x in raw]
    short = count - sum(base)
    order = sorted(range(len(fracs)), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:short]:
        base[i] += 1
    return base


def split_cohort(cohort, spec):
    """Shuffled split stratified on the label, deterministic for a fixed seed."""
    fracs = (spec.train_frac, spec.val_frac, spec.test_frac)
    n_nonzero = sum(1 for f in fracs if f > 0)
    by_class = {}
    for idx, rec in enumerate(cohort.records):
        if rec.label is None:
            raise InvariantViolation(
                f"record {rec.patient_id}: unlabeled record cannot be stratified"
            )
        by_class.setdefault(rec.label, []).append(idx)
    if len(by_class) < 2:
        raise DegenerateClass(f"only classes {sorted(by_class)} present")
    rng = np.random.default_rng(spec.seed)
    parts = ([], [], [])
    for cls in sorted(by_class):
        idxs = by_class[cls]
        if len(idxs) < n_nonzero:
            raise DegenerateClass(
                f"class {cls} has {len(idxs)} records for {n_nonzero} splits"
            )
        shuffled = [idxs[i] for i in rng.permutation(len(idxs))]
        counts = _allocate(len(idxs), fracs)
        pos = 0
        for part, c in zip(parts, counts):
            part.extend(shuffled[pos:pos + c])
            pos += c
    cohorts = tuple(
        Cohort(
            records=tuple(cohort.records[i] for i in sorted(part)),
            catalog=cohort.catalog,
        )
        for part in parts
    )
    return CohortSplits(train=cohorts[0], val=cohorts[1], test=cohorts[2])

