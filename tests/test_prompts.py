import dataclasses
import os
import warnings

import numpy as np
import pytest

from conftest import golden_settings, random_record
from ehrbench import errors
from ehrbench.ehr import PatientRecord
from ehrbench.prompts import (
    FALLBACK_SENTENCE,
    ICL_HEADER,
    NAN_SENTENCE,
    IclExampleSpec,
    PromptConfig,
    build_prompt,
    icl_spec_from_cohort,
    output_indicator,
    render_context,
    serialize_feature_wise,
    serialize_visit_wise,
    synthesize_icl_examples,
    task_instruction,
    value_tokens,
)
from ehrbench.synthetic import synthetic_cohort


def _cohorts(request, which):
    record = request.getfixturevalue(f"{which}_record")
    catalog = request.getfixturevalue(f"{which}_catalog")
    return record, catalog


class TestGoldenSnapshots:
    @pytest.mark.parametrize("name", sorted(golden_settings()))
    def test_byte_exact(self, name, request, fixtures_dir):
        which, config, icl_spec = golden_settings()[name]
        record, catalog = _cohorts(request, which)
        rendered = build_prompt(record, catalog, config, icl_spec=icl_spec)
        path = os.path.join(fixtures_dir, "golden", name)
        with open(path, encoding="utf-8", newline="") as fh:
            assert rendered.text == fh.read()

    @pytest.mark.parametrize("name", ["lab_best.txt", "vitals_best.txt"])
    def test_icl_section_structure(self, name, request):
        which, config, icl_spec = golden_settings()[name]
        record, catalog = _cohorts(request, which)
        text = build_prompt(record, catalog, config, icl_spec=icl_spec).text
        assert ICL_HEADER in text
        section = text.split(ICL_HEADER, 1)[1]
        for i in range(1, config.n_icl_examples + 1):
            block = section.split(f"Example #{i}:", 1)[1]
            response = block.split("RESPONSE:\n", 1)[1].split("\n", 1)[0]
            p = float(response)
            assert 0.0 <= p <= 1.0
            # alternation starts with the survivor group
            if i % 2 == 1:
                assert p < 0.5
            else:
                assert p >= 0.5


def test_fixture_script_regenerates_golden(fixtures_dir, fixture_script):
    """scripts/make_fixtures.py writes the checked-in golden snapshots byte
    for byte."""
    rendered = fixture_script.golden_prompts()
    golden_dir = os.path.join(fixtures_dir, "golden")
    assert sorted(rendered) == sorted(os.listdir(golden_dir))
    for name, prompt in rendered.items():
        with open(os.path.join(golden_dir, name), encoding="utf-8",
                  newline="") as fh:
            assert prompt.text == fh.read(), name


class TestSerialization:
    def test_feature_line_format(self, lab_record, lab_catalog):
        text = serialize_feature_wise(lab_record, lab_catalog,
                                      PromptConfig())
        assert ('- Serum chloride: "103.10, 103.10, 101.40, 98.50, 98.10, '
                '100.00, 100.00"') in text

    def test_categorical_missing_renders_unknown(self, vitals_record,
                                                 vitals_catalog):
        text = serialize_feature_wise(
            vitals_record, vitals_catalog,
            PromptConfig(missing_policy="reserve_nan"))
        assert ('- Glascow coma scale motor response: "Flex-withdraws, '
                'Flex-withdraws, unknown, Localizes Pain"') in text
        assert ('- Glascow coma scale eye opening: "None, None, None, '
                'None"') in text

    def test_single_value(self):
        rec = PatientRecord("p", "male", 40.0, (0,), {"f": [1.0]})
        from ehrbench.ehr import FeatureCatalogEntry
        cat = {"f": FeatureCatalogEntry("f", "f", None, None, "numeric")}
        text = serialize_feature_wise(rec, cat, PromptConfig())
        assert '- f: "1.00"' in text

    def test_locf_fills_the_rendering_not_the_record(self):
        rec = PatientRecord("p", "male", 40.0, (0, 1, 2),
                            {"f": (None, 5.0, None)})
        from ehrbench.ehr import FeatureCatalogEntry
        cat = {"f": FeatureCatalogEntry("f", "f", None, None, "numeric")}
        text = build_prompt(rec, cat, PromptConfig(missing_policy="locf")).text
        assert '- f: "nan, 5.00, 5.00"' in text
        assert NAN_SENTENCE in text  # the leading slot stays missing
        assert rec.features == {"f": (None, 5.0, None)}

    def test_visit_wise_blocks(self, vitals_record, vitals_catalog):
        text = serialize_visit_wise(
            vitals_record, vitals_catalog,
            PromptConfig(serialization="visit_wise",
                         missing_policy="reserve_nan"))
        assert "Visit 1 (at 0):" in text
        assert "Visit 4 (at 3):" in text
        assert text.count("- Heart Rate:") == 4

    def test_value_token_multisets_match(self, rng):
        for i in range(100):
            record, catalog = random_record(rng, pid=f"r{i}")
            fw = serialize_feature_wise(record, catalog, PromptConfig())
            vw = serialize_visit_wise(
                record, catalog, PromptConfig(serialization="visit_wise"))
            assert sorted(value_tokens(fw)) == sorted(value_tokens(vw))

    def test_feature_wise_strictly_shorter(self, rng):
        for i in range(50):
            record, catalog = random_record(
                rng, n_visits=int(rng.integers(2, 7)), pid=f"r{i}")
            fw = serialize_feature_wise(record, catalog, PromptConfig())
            vw = serialize_visit_wise(
                record, catalog, PromptConfig(serialization="visit_wise"))
            assert len(fw) < len(vw)

    def test_preamble_layouts(self, lab_record, vitals_record, lab_catalog,
                              vitals_catalog):
        lab = serialize_feature_wise(lab_record, lab_catalog, PromptConfig())
        assert lab.startswith(
            "The patient is a male, aged 73.0 years. The patient had 7 "
            "visits that occurred at 2020-01-31,")
        vitals = serialize_feature_wise(vitals_record, vitals_catalog,
                                        PromptConfig())
        assert vitals.startswith(
            "The patient is a male, aged 50.0 years.\n"
            "The patient had 4 visits that occurred at 0, 1, 2, 3.\n"
            "Details of the features for each visit are as follows:")


class TestContext:
    def test_both_flags(self, vitals_catalog):
        text = render_context(vitals_catalog, True, True)
        assert "- pH: Unit: /. Reference range: 7.35 - 7.45." in text
        assert "- Glucose: Unit: mg/dL. Reference range: 70 - 100." in text

    def test_unit_only(self, vitals_catalog):
        text = render_context(vitals_catalog, True, False)
        assert "- Glucose: Unit: mg/dL." in text
        assert "Reference range" not in text

    def test_flags_off_empty(self, vitals_catalog):
        assert render_context(vitals_catalog, False, False) == ""

    def test_absent_fields_omitted(self, tmp_path):
        from ehrbench.ehr import FeatureCatalogEntry
        cat = {
            "a": FeatureCatalogEntry("a", "A", None, None, "numeric"),
            "b": FeatureCatalogEntry("b", "B", "mg", None, "numeric"),
        }
        text = render_context(cat, True, True)
        assert "- A:" not in text
        assert text == "- B: Unit: mg."


class TestBuildPrompt:
    def test_indicator_exactly_once(self, lab_record, lab_catalog):
        text = build_prompt(lab_record, lab_catalog, PromptConfig()).text
        assert text.count(output_indicator("mortality")) == 1
        assert text.count(FALLBACK_SENTENCE) == 1

    def test_doubled_indicator_rejected(self, vitals_record, vitals_catalog):
        """A categorical value that holds the output indicator would give
        the model two places to answer."""
        indicator = output_indicator("mortality")
        record = dataclasses.replace(vitals_record, features={
            **vitals_record.features, "gcs_eye": (indicator,) * 4})
        with pytest.raises(errors.InvariantViolation,
                           match="^output indicator must appear exactly "
                                 "once$"):
            build_prompt(record, vitals_catalog, PromptConfig())

    def test_readmission_instruction(self):
        instr = task_instruction("readmission", "in_hospital")
        assert "probability of readmission within 30 days" in instr
        assert "passes away within 30 days" in instr
        indicator = output_indicator("readmission")
        assert "likelihood of readmission" in indicator
        assert indicator.endswith("RESPONSE:")

    def test_horizon_variants_change_only_instruction(self):
        base = task_instruction("mortality", "in_hospital")
        month = task_instruction("mortality", "one_month")
        assert base != month
        assert "one month" in month

    def test_nan_sentence_iff_nan_rendered(self, vitals_record,
                                           vitals_catalog):
        # vitals fixture has categorical missing only: no nan token
        cfg = PromptConfig(missing_policy="reserve_nan")
        assert NAN_SENTENCE not in build_prompt(vitals_record,
                                                vitals_catalog, cfg).text
        rec = PatientRecord("p", "male", 40.0, (0, 1),
                            {"glucose": [None, 120.0]})
        text = build_prompt(rec, vitals_catalog, cfg).text
        assert '"nan, 120.00"' in text
        assert NAN_SENTENCE in text
        # locf leaves the leading slot missing, so the sentence stays
        locf = build_prompt(rec, vitals_catalog, PromptConfig()).text
        assert NAN_SENTENCE in locf
        rec2 = PatientRecord("p", "male", 40.0, (0, 1),
                             {"glucose": [120.0, None]})
        locf2 = build_prompt(rec2, vitals_catalog, PromptConfig()).text
        assert NAN_SENTENCE not in locf2

    def test_determinism(self, lab_record, lab_catalog):
        cfg = PromptConfig(include_units=True, include_ranges=True,
                           n_icl_examples=2)
        spec = IclExampleSpec(
            group_stats={0: {"f01": (1.0, 1.0)}, 1: {"f01": (9.0, 1.0)}},
            seed=3)
        a = build_prompt(lab_record, lab_catalog, cfg, icl_spec=spec)
        b = build_prompt(lab_record, lab_catalog, cfg, icl_spec=spec)
        assert a.text == b.text

    def test_icl_requires_spec(self, lab_record, lab_catalog):
        with pytest.raises(errors.InvariantViolation,
                           match="^n_icl_examples > 0 but no example spec "
                                 "given$"):
            build_prompt(lab_record, lab_catalog,
                         PromptConfig(n_icl_examples=1))


class TestIclExamples:
    CATALOG = None

    @pytest.fixture(autouse=True)
    def _catalog(self, vitals_catalog):
        self.catalog = vitals_catalog

    def spec(self, **kwargs):
        defaults = dict(
            group_stats={0: {"hr": (80.0, 0.0)}, 1: {"hr": (120.0, 0.0)}},
            seed=5, n_visits=3)
        defaults.update(kwargs)
        return IclExampleSpec(**defaults)

    def test_k_zero_empty(self):
        assert synthesize_icl_examples(self.spec(), 0, self.catalog) == []

    def test_zero_variance_draws_equal_mean(self):
        examples = synthesize_icl_examples(self.spec(), 2, self.catalog)
        assert '- Heart Rate: "80.00, 80.00, 80.00"' in examples[0][0]
        assert '- Heart Rate: "120.00, 120.00, 120.00"' in examples[1][0]

    def test_response_ranges(self):
        for seed in range(20):
            examples = synthesize_icl_examples(
                self.spec(seed=seed), 4, self.catalog)
            for i, (_, response) in enumerate(examples):
                p = float(response)
                if i % 2 == 0:
                    assert 0.0 <= p < 0.5
                else:
                    assert 0.5 <= p <= 1.0

    def test_missing_group_raises(self):
        spec = IclExampleSpec(group_stats={0: {"hr": (80.0, 1.0)}}, seed=1)
        with pytest.raises(errors.InvariantViolation,
                           match="^no statistics for outcome group 1$"):
            synthesize_icl_examples(spec, 2, self.catalog)

    def test_one_paragraph_preamble_even_for_ordinal(self):
        examples = synthesize_icl_examples(self.spec(), 1, self.catalog)
        body = examples[0][0]
        assert "visits that occurred at 0, 1, 2. Details of the features" \
            in body

    def test_spec_from_cohort(self):
        cohort = synthetic_cohort(n_patients=30, seed=4)
        spec = icl_spec_from_cohort(cohort, seed=1)
        for group in (0, 1):
            assert "hr" in spec.group_stats[group]
            mean, var = spec.group_stats[group]["hr"]
            assert var >= 0
        # deceased group has the shifted heart rate
        assert spec.group_stats[1]["hr"][0] > spec.group_stats[0]["hr"][0]


def test_config_validation():
    with pytest.raises(errors.InvariantViolation):
        PromptConfig(serialization="wide")
    with pytest.raises(errors.InvariantViolation):
        PromptConfig(task="triage")
    with pytest.raises(errors.InvariantViolation):
        PromptConfig(n_icl_examples=-1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        PromptConfig(n_icl_examples=4)
    assert any("degrades" in str(w.message) for w in caught)
    # the warning points at the line that built the config
    assert caught[0].filename == __file__
