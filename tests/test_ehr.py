import csv
import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrbench import errors
from ehrbench.ehr import (
    Cohort,
    PatientRecord,
    SplitSpec,
    load_catalog,
    load_cohort,
    locf_series,
    split_cohort,
)
from ehrbench.synthetic import synthetic_cohort


def make_record(visit_times, series, **kwargs):
    defaults = dict(patient_id="p0", sex="male", age=50.0)
    defaults.update(kwargs)
    return PatientRecord(visit_times=visit_times, features={"f": series},
                         **defaults)


class TestPatientRecord:
    def test_dated(self):
        assert make_record(("2020-01-01", "2020-01-02"), [1.0, 2.0]).dated
        assert not make_record((0, 1, 2), [1.0, 2.0, 3.0]).dated
        assert not make_record((0.0, 12.5), [1.0, 2.0]).dated

    def test_decreasing_times_rejected(self):
        with pytest.raises(errors.InvariantViolation):
            make_record((2, 1), [1.0, 2.0])
        with pytest.raises(errors.InvariantViolation):
            make_record(("2020-01-02", "2020-01-01"), [1.0, 2.0])

    def test_series_length_must_match_visits(self):
        with pytest.raises(errors.InvariantViolation):
            make_record((0, 1, 2), [1.0, 2.0])

    def test_bad_label_rejected(self):
        with pytest.raises(errors.InvariantViolation):
            make_record((0, 1), [1.0, 2.0], label=2)

    def test_bad_sex_rejected(self):
        with pytest.raises(errors.InvariantViolation):
            make_record((0, 1), [1.0, 2.0], sex="m")

    @pytest.mark.parametrize("age", [float("inf"), float("nan")])
    def test_non_finite_age_rejected(self, age):
        with pytest.raises(errors.InvariantViolation,
                           match=f"^record p0: age {age} is not finite$"):
            make_record((0, 1), [1.0, 2.0], age=age)

    def test_negative_age_rejected(self):
        with pytest.raises(errors.InvariantViolation,
                           match="^record p0: negative age -inf$"):
            make_record((0, 1), [1.0, 2.0], age=float("-inf"))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(errors.InvariantViolation,
                           match=f"^record p0: feature f value {value} is "
                                 "not finite$"):
            make_record((0, 1), [1.0, value])

    def test_gaps_and_categories_accepted(self):
        assert len(make_record((0, 1, 2), [None, 2, "high"]).visit_times) == 3

    @pytest.mark.parametrize("text", ["20200131", "2020-W05-5"])
    def test_only_yyyy_mm_dd_is_a_date(self, text):
        # date.fromisoformat accepts both from Python 3.11 on
        with pytest.raises(errors.InvariantViolation,
                           match=f"^record p0: bad date: .*'{text}'"):
            make_record(("2020-01-30", text), (1.0, 2.0))


class TestCatalog:
    def test_load_fixture(self, vitals_catalog):
        assert len(vitals_catalog) == 17
        ph = vitals_catalog["ph"]
        assert ph.unit == "/"
        assert ph.reference_range == "7.35 - 7.45"
        assert vitals_catalog["glucose"].unit == "mg/dL"

    def test_empty_cells_mean_absent(self, tmp_path):
        path = tmp_path / "cat.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature_id", "display_name", "unit",
                            "reference_range", "kind"])
            writer.writerow(["a", "A", "", "", "numeric"])
        catalog = load_catalog(path)
        assert catalog["a"].unit is None
        assert catalog["a"].reference_range is None

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("feature,name\nx,y\n")
        with pytest.raises(errors.ParseError,
                           match=f"^{re.escape(str(path))}, line 1: catalog "
                                 r"header \['feature', 'name'\] != "):
            load_catalog(path)

    def test_preserves_file_order(self, lab_catalog):
        assert type(lab_catalog) is dict
        ids = list(lab_catalog)
        assert ids[0] == "f01"
        assert ids[-1] == "f73"
        assert [e.feature_id for e in lab_catalog.values()] == ids


class TestCohortLoading:
    def test_jsonl_fixture(self, lab_cohort):
        rec = lab_cohort.records[0]
        assert rec.patient_id == "lab-001"
        assert len(rec.visit_times) == 7
        assert rec.dated
        assert rec.features["f03"][0] == 103.10

    def test_long_csv_roundtrip(self, tmp_path):
        cat = tmp_path / "cat.csv"
        cat.write_text(
            "feature_id,display_name,unit,reference_range,kind\n"
            "hr,Heart Rate,bpm,60 - 100,numeric\n"
            "gcs,GCS,,,categorical\n"
        )
        cohort_csv = tmp_path / "cohort.csv"
        cohort_csv.write_text(
            "patient_id,visit_time,feature_id,value\n"
            "p1,0,hr,80.5\n"
            "p1,1,hr,\n"
            "p1,0,gcs,alert\n"
            "p1,1,gcs,drowsy\n"
            "p2,0,hr,99\n"
        )
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "patient_id,task,label\n"
            "p1,mortality,1\n"
            "p2,mortality,0\n"
            "p1,readmission,0\n"
        )
        catalog = load_catalog(cat)
        cohort = load_cohort(cohort_csv, catalog, "mortality",
                             labels_path=labels)
        p1 = cohort.get("p1")
        assert p1.features["hr"] == (80.5, None)
        assert p1.features["gcs"] == ("alert", "drowsy")
        assert p1.label == 1
        assert cohort.get("p2").label == 0

    @pytest.mark.parametrize("which, header", [
        ("catalog", "feature_id,display_name,unit,reference_range,kind"),
        ("labels", "patient_id,task,label"),
        ("cohort", "patient_id,visit_time,feature_id,value"),
    ])
    def test_csv_header_and_row_width(self, tmp_path, which, header):
        """Each CSV loader names its file in a header mismatch, and numbers
        rows from 2 over blank rows when one has the wrong width."""
        cat = tmp_path / "cat.csv"
        cat.write_text("feature_id,display_name,unit,reference_range,kind\n"
                       "hr,Heart Rate,,,numeric\n")
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,visit_time,feature_id,value\n"
                          "p1,0,hr,80\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("patient_id,task,label\np1,mortality,1\n")
        target = {"catalog": cat, "labels": labels, "cohort": cohort}[which]

        def load():
            load_cohort(cohort, load_catalog(cat), "mortality",
                        labels_path=labels)

        where = re.escape(str(target))
        target.write_text(header.replace(",", ";") + "\n")
        with pytest.raises(errors.ParseError,
                           match=f"^{where}, line 1: {which} header"):
            load()
        n_cells = header.count(",") + 1
        target.write_text(f"{header}\n\n{'x,' * n_cells}x\n")
        with pytest.raises(errors.ParseError,
                           match=f"^{where}, line 3: expected {n_cells} "
                                 f"cells, got {n_cells + 1}$"):
            load()

    def test_csv_error_names_the_line_a_row_ends_on(self, tmp_path):
        """A quoted cell may span lines; an error names the file line."""
        cat = tmp_path / "cat.csv"
        cat.write_text("feature_id,display_name,unit,reference_range,kind\n"
                       'hr,"Heart\nRate",,,numeric\n'
                       "rr,Resp Rate,,,numeric,x\n")
        with pytest.raises(errors.ParseError,
                           match=f"^{re.escape(str(cat))}, line 4: expected 5 "
                                 "cells, got 6$"):
            load_catalog(cat)

    def test_unknown_feature_rejected(self, tmp_path):
        cat = tmp_path / "cat.csv"
        cat.write_text("feature_id,display_name,unit,reference_range,kind\n"
                       "hr,Heart Rate,,,numeric\n")
        bad = tmp_path / "cohort.csv"
        bad.write_text("patient_id,visit_time,feature_id,value\n"
                       "p1,0,bogus,1\n")
        with pytest.raises(errors.InvariantViolation):
            load_cohort(bad, load_catalog(cat), "mortality")

    def test_jsonl_line_must_be_object(self, tmp_path, vitals_catalog):
        path = tmp_path / "cohort.jsonl"
        path.write_text("\n[1, 2]\n")
        with pytest.raises(errors.ParseError) as err:
            load_cohort(path, vitals_catalog, "mortality")
        assert str(err.value).startswith(f"{path}, line 2: ")

    def test_jsonl_labels_object_picks_task(self, tmp_path, vitals_catalog):
        path = tmp_path / "cohort.jsonl"
        path.write_text(json.dumps({
            "patient_id": "p1", "sex": "male", "age": 60, "visit_times": [0],
            "features": {"hr": [80.0]},
            "labels": {"mortality": 1, "readmission": 0}}) + "\n")
        for task, label in (("mortality", 1), ("readmission", 0)):
            cohort = load_cohort(path, vitals_catalog, task)
            assert cohort.get("p1").label == label

    @pytest.mark.parametrize("label", [0, 1, 0.0, 1.0, "0", "1"])
    def test_jsonl_label_zero_or_one(self, tmp_path, vitals_catalog, label):
        path = tmp_path / "cohort.jsonl"
        path.write_text(json.dumps({
            "patient_id": "p1", "sex": "male", "age": 60, "visit_times": [0],
            "features": {"hr": [80.0]}, "label": label}) + "\n")
        p1 = load_cohort(path, vitals_catalog, "mortality").get("p1")
        assert p1.label == int(label) and type(p1.label) is int

    @pytest.mark.parametrize("line, error, message", [
        ('{"patient_id": "p1", "sex": "male", "features": {}}',
         errors.ParseError,
         r", line 2: missing fields \['age', 'visit_times'\]$"),
        ('{"patient_id": "p1",', errors.ParseError, ", line 2: "),
    ], ids=["missing_fields", "not_json"])
    def test_jsonl_bad_line(self, tmp_path, vitals_catalog, line, error,
                            message):
        path = tmp_path / "cohort.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(error,
                           match="^" + re.escape(str(path)) + message):
            load_cohort(path, vitals_catalog, "mortality")


def load_long_csv(tmp_path, rows, labels="p1,mortality,1\n"):
    """Load a one-feature long-CSV cohort from its data rows."""
    cat = tmp_path / "cat.csv"
    cat.write_text("feature_id,display_name,unit,reference_range,kind\n"
                   "hr,Heart Rate,,,numeric\n")
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("patient_id,visit_time,feature_id,value\n" + rows)
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text("patient_id,task,label\n" + labels)
    return load_cohort(cohort, load_catalog(cat), "mortality",
                       labels_path=labels_path)


class TestLongCsv:
    @pytest.mark.parametrize("cells, times, dated", [
        (("12.5", "0.5", "3"), (0.5, 3, 12.5), False),
        (("2020-03-01", "2019-12-31", "2020-01-02"),
         ("2019-12-31", "2020-01-02", "2020-03-01"), True),
    ], ids=["hours", "dates"])
    def test_visits_in_time_order_whatever_the_row_order(
            self, tmp_path, cells, times, dated):
        rows = "".join(f"p1,{t},hr,{i}\n" for i, t in enumerate(cells))
        p1 = load_long_csv(tmp_path, rows).get("p1")
        assert p1.visit_times == times
        assert p1.dated == dated
        assert p1.features["hr"] == tuple(
            float(cells.index(str(t))) for t in times)

    @pytest.mark.parametrize("rows, labels, error, message", [
        ("p1,soon,hr,1\n", "p1,mortality,1\n", errors.ParseError,
         r"cohort\.csv, line 2: unparseable visit_time 'soon'$"),
        ("p1,0,hr,1\n", "p1,mortality,yes\n", errors.InvariantViolation,
         r"labels\.csv, line 2: record p1: label 'yes' not in"),
        ("p1,1,hr,80\np1,2,hr,82\np1,1.0,hr,81\n", "p1,mortality,1\n",
         errors.ParseError,
         r"cohort\.csv, line 4: patient p1: feature hr at visit_time '1\.0' "
         "repeats line 2$"),
        ("p1,0,hr,1\n", "p1,mortality,1\np1,readmission,0\np1,mortality,0\n",
         errors.ParseError,
         r"labels\.csv, line 4: patient p1: task mortality repeats line 2$"),
        ("p1,2020-W05-5,hr,1\n", "p1,mortality,1\n", errors.ParseError,
         r"cohort\.csv, line 2: unparseable visit_time '2020-W05-5'$"),
    ], ids=["visit_time", "label", "repeated_cell", "repeated_label",
            "iso_week_date"])
    def test_bad_cell(self, tmp_path, rows, labels, error, message):
        with pytest.raises(error,
                           match="^" + re.escape(f"{tmp_path}/") + message):
            load_long_csv(tmp_path, rows, labels)

    def test_rows_at_one_parsed_time_merge_into_one_visit(self, tmp_path):
        cat = tmp_path / "cat.csv"
        cat.write_text("feature_id,display_name,unit,reference_range,kind\n"
                       "hr,Heart Rate,,,numeric\nrr,Resp Rate,,,numeric\n")
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("patient_id,visit_time,feature_id,value\n"
                          "p1,1,hr,80\np1,2,hr,82\np1,1.0,rr,12\n")
        p1 = load_cohort(cohort, load_catalog(cat), "mortality").get("p1")
        assert p1.visit_times == (1, 2)
        assert p1.features == {"hr": (80.0, 82.0), "rr": (12.0, None)}


class TestLocf:
    def test_basic_fill(self):
        assert locf_series([1.0, None, None, 2.0, None]) == (1.0, 1.0, 1.0,
                                                             2.0, 2.0)

    def test_leading_missing_survives(self):
        assert locf_series([None, None, 3.0]) == (None, None, 3.0)

    @given(st.lists(st.one_of(st.none(), st.floats(allow_nan=False,
                                                   allow_infinity=False)),
                    min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_idempotent_and_preserves_observed(self, series):
        once = locf_series(series)
        assert locf_series(once) == once
        for i, v in enumerate(series):
            if v is not None:
                assert once[i] == v
        # observed count never decreases
        assert sum(v is not None for v in once) >= \
            sum(v is not None for v in series)


class TestSplit:
    def test_partition_and_stratification(self):
        cohort = synthetic_cohort(n_patients=50, seed=3)
        spec = SplitSpec(0.7, 0.1, 0.2, seed=9)
        train, val, test = split_cohort(cohort, spec)
        ids = [r.patient_id for part in (train, val, test)
               for r in part.records]
        assert sorted(ids) == sorted(r.patient_id for r in cohort.records)
        assert len(set(ids)) == len(ids)
        pos_frac = sum(r.label for r in cohort.records) / len(cohort.records)
        for part in (train, val, test):
            n_pos = sum(r.label for r in part.records)
            assert abs(n_pos - pos_frac * len(part.records)) <= 1

    def test_deterministic(self):
        cohort = synthetic_cohort(n_patients=30, seed=3)
        spec = SplitSpec(0.6, 0.2, 0.2, seed=5)
        _, _, a = split_cohort(cohort, spec)
        _, _, b = split_cohort(cohort, spec)
        assert [r.patient_id for r in a.records] == \
            [r.patient_id for r in b.records]

    def test_zero_fraction_gives_empty_split(self):
        cohort = synthetic_cohort(n_patients=20, seed=3)
        train, val, test = split_cohort(cohort,
                                        SplitSpec(0.8, 0.0, 0.2, seed=1))
        assert val.records == ()
        assert len(train.records) + len(test.records) == len(cohort.records)

    def test_split_walks_no_catalog(self, fixtures_dir):
        """``load_cohort`` checks every feature against the catalog; the
        splits it is cut into are not checked again."""
        catalog = load_catalog(f"{fixtures_dir}/report_catalog.csv")
        cohort = load_cohort(f"{fixtures_dir}/report_cohort.jsonl", catalog,
                             "mortality")
        lookups = []

        class Counting(dict):
            def __contains__(self, fid):
                lookups.append(fid)
                return super().__contains__(fid)

            def __getitem__(self, fid):
                lookups.append(fid)
                return super().__getitem__(fid)

        cohort = dataclasses.replace(cohort, catalog=Counting(catalog))
        splits = split_cohort(cohort, SplitSpec(0.6, 0.1, 0.3, seed=0))
        assert sum(len(part.records) for part in splits) == 40
        assert lookups == []

    def test_single_class_rejected(self, vitals_cohort):
        with pytest.raises(errors.InvariantViolation,
                           match=r"^only classes \[0\] present$"):
            split_cohort(vitals_cohort, SplitSpec(0.5, 0.0, 0.5, seed=1))

    def test_class_smaller_than_the_splits_rejected(self):
        records = synthetic_cohort(n_patients=20, seed=3).records
        negatives = [r for r in records if r.label == 0]
        positive = next(r for r in records if r.label == 1)
        cohort = Cohort(records=(*negatives, positive), catalog=None)
        with pytest.raises(errors.InvariantViolation,
                           match="^class 1 has 1 records for 3 splits$"):
            split_cohort(cohort, SplitSpec(0.6, 0.2, 0.2, seed=0))

    def test_fractions_validated(self):
        with pytest.raises(errors.InvariantViolation):
            SplitSpec(0.5, 0.5, 0.5, seed=0)
        with pytest.raises(errors.InvariantViolation):
            SplitSpec(-0.1, 0.6, 0.5, seed=0)
