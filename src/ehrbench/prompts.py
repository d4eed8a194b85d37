"""Five-element prompt assembly for structured-EHR prediction.

A prompt is built from: role sentence, data-format sentence, task
instruction, refusal-fallback sentence, optional per-feature context lines
(units / reference ranges), optional in-context examples, the serialized
patient input, and a trailing output indicator. Golden snapshots under
tests/fixtures/golden pin the byte-exact output at the base and best
ablation settings.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .ehr import TASKS, locf_series
from .errors import InvariantViolation

ROLE_SENTENCE = (
    "You are an experienced doctor in Intensive Care Unit (ICU) treatment."
)

INTRO_SENTENCE = (
    "I will provide you with medical information from multiple Intensive "
    "Care Unit (ICU) visits of a patient, each characterized by a fixed "
    "number of features."
)

DATA_FORMAT_SENTENCES = {
    "feature_wise": (
        "Present multiple visit data of a patient in one batch. Represent "
        "each feature within this data as a string of values, separated by "
        "commas."
    ),
    "visit_wise": (
        "Organize multiple visit data of a patient into separate batches, "
        "each batch corresponding to one visit."
    ),
}

_MORTALITY_HORIZONS = {
    "in_hospital": "not surviving their hospital stay",
    "one_month": "not surviving one month post-discharge",
    "six_months": "not surviving six months post-discharge",
}

FALLBACK_SENTENCE = (
    "In situations where the data does not allow for a reasonable "
    'conclusion, respond with the phrase "I do not know" without any '
    "additional explanation."
)

NAN_SENTENCE = (
    'The value "nan" denotes a feature that was not measured at that visit.'
)

ICL_HEADER = "Here is an example of input information:"

ICL_WARNING_THRESHOLD = 3  # prediction quality degrades beyond this
# Most in-context examples a prompt may hold: each one is synthesized and
# rendered into every prompt of a run.
MAX_ICL_EXAMPLES = 100

VALUE_DECIMALS = 2  # numeric values and ICL responses


def task_instruction(task, horizon):
    if task == "mortality":
        return (
            "Your task is to assess the provided medical data and analyze "
            "the health records from ICU visits to determine the likelihood "
            f"of the patient {_MORTALITY_HORIZONS[horizon]}."
        )
    if task == "readmission":
        return (
            "Your task is to analyze the medical history to predict the "
            "probability of readmission within 30 days post-discharge. "
            "Include cases where a patient passes away within 30 days from "
            "the discharge date."
        )
    raise InvariantViolation(f"unknown task {task!r}")


def response_format_sentence(task):
    outcome = "death" if task == "mortality" else "readmission"
    return (
        "Please respond with only a floating-point number between 0 and 1, "
        f"where a higher number suggests a greater likelihood of {outcome}."
    )


def output_indicator(task):
    return (
        response_format_sentence(task)
        + " Do not include any additional explanation.\nRESPONSE:"
    )


@dataclass(frozen=True)
class PromptConfig:
    serialization: str = "feature_wise"  # or "visit_wise"
    missing_policy: str = "locf"  # or "reserve_nan"
    include_units: bool = False
    include_ranges: bool = False
    n_icl_examples: int = 0
    task: str = "mortality"
    horizon: str = "in_hospital"

    def __post_init__(self):
        if self.serialization not in DATA_FORMAT_SENTENCES:
            raise InvariantViolation(f"serialization {self.serialization!r}")
        if self.missing_policy not in ("reserve_nan", "locf"):
            raise InvariantViolation(f"missing_policy {self.missing_policy!r}")
        if self.task not in TASKS:
            raise InvariantViolation(f"task {self.task!r}")
        if self.horizon not in _MORTALITY_HORIZONS:
            raise InvariantViolation(f"horizon {self.horizon!r}")
        if not 0 <= self.n_icl_examples <= MAX_ICL_EXAMPLES:
            raise InvariantViolation(
                f"n_icl_examples must be in [0, {MAX_ICL_EXAMPLES}]")
        if self.n_icl_examples > ICL_WARNING_THRESHOLD:
            warnings.warn(
                f"{self.n_icl_examples} in-context examples; performance "
                f"degrades beyond {ICL_WARNING_THRESHOLD}",
                stacklevel=3,
            )


@dataclass(frozen=True)
class RenderedPrompt:
    text: str


@dataclass(frozen=True)
class IclExampleSpec:
    """Statistics driving synthetic in-context examples.

    group_stats maps outcome group (0 = survivor, 1 = deceased) to a
    feature_id -> (mean, variance) dict. Responses are drawn uniformly from
    [0, 0.5) for survivors and [0.5, 1] for the deceased group.
    """

    group_stats: dict
    seed: int
    n_visits: int = 4
    dated: bool = False
    start_date: str = "2020-02-01"


def format_value(value, entry):
    if value is None:
        return "unknown" if entry.kind == "categorical" else "nan"
    if entry.kind == "categorical":
        return str(value)
    return f"{value:.{VALUE_DECIMALS}f}"


def _line(name, tokens):
    return f'- {name}: "{", ".join(tokens)}"'


def _preamble(sex, age, visit_times, sep):
    """Sentences joined by ``sep``: " " for dated records and every
    in-context example, "\n" for the rest. The first, on sex and age, is
    left out when the age is None, and names no sex that is unknown."""
    n = len(visit_times)
    times = ", ".join(str(t) for t in visit_times)
    visits_word = "visit" if n == 1 else "visits"
    who = "" if sex == "unknown" else f" a {sex},"
    demographics = () if age is None else (
        f"The patient is{who} aged {age} years.",)
    return sep.join((
        *demographics,
        f"The patient had {n} {visits_word} that occurred at {times}.",
        "Details of the features for each visit are as follows:",
    ))


def _body(preamble, visit_times, rows, layout):
    """The one writer of a patient body: the preamble, then ``rows`` of
    (display name, value tokens) as one line per feature (feature_wise) or
    one block per visit (visit_wise)."""
    lines = [preamble]
    if layout == "feature_wise":
        lines += [_line(name, tokens) for name, tokens in rows]
    else:
        for i, t in enumerate(visit_times):
            lines.append(f"Visit {i + 1} (at {t}):")
            lines += [_line(name, [tokens[i]]) for name, tokens in rows]
    return "\n".join(lines)


def _record_body(record, catalog, config, layout):
    """(body, rows) of one record after the missing policy; rows hold each
    catalog feature of the record, in catalog order, as value tokens."""
    if not record.features:
        raise InvariantViolation(f"record {record.patient_id}: no features")
    features = record.features
    if config.missing_policy == "locf":
        features = {fid: locf_series(s) for fid, s in features.items()}
    rows = [
        (entry.display_name,
         [format_value(v, entry) for v in features[entry.feature_id]])
        for entry in catalog.values() if entry.feature_id in features
    ]
    sep = " " if record.dated else "\n"
    preamble = _preamble(record.sex, record.age, record.visit_times, sep)
    return _body(preamble, record.visit_times, rows, layout), rows


def serialize_feature_wise(record, catalog, config):
    """One line per feature: `- <name>: "<v1>, <v2>, ...">`."""
    return _record_body(record, catalog, config, "feature_wise")[0]


def serialize_visit_wise(record, catalog, config):
    """One block per visit, every feature's value at that visit."""
    return _record_body(record, catalog, config, "visit_wise")[0]


def render_context(catalog, include_units, include_ranges):
    """Per-feature unit / reference-range lines; empty when both flags off."""
    if not (include_units or include_ranges):
        return ""
    lines = []
    for entry in catalog.values():
        segments = []
        if include_units and entry.unit is not None:
            segments.append(f"Unit: {entry.unit}.")
        if include_ranges and entry.reference_range is not None:
            segments.append(f"Reference range: {entry.reference_range}.")
        if segments:
            lines.append(f"- {entry.display_name}: " + " ".join(segments))
    return "\n".join(lines)


def synthesize_icl_examples(spec, k, catalog):
    """Generate k (input_text, response_text) pairs from group statistics.

    Feature values are Gaussian draws per outcome group; responses fall in
    [0, 0.5) for group 0 and [0.5, 1] for group 1. Examples alternate groups
    starting with the survivor group. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    examples = []
    for i in range(k):
        group = i % 2
        if group not in spec.group_stats:
            raise InvariantViolation(
                f"no statistics for outcome group {group}")
        stats = spec.group_stats[group]
        sex = "male" if rng.integers(0, 2) == 0 else "female"
        age = round(float(rng.uniform(40, 90)), 1)
        times = tuple(range(spec.n_visits))
        if spec.dated:
            start = date.fromisoformat(spec.start_date) + timedelta(days=i)
            times = tuple((start + timedelta(days=2 * j)).isoformat()
                          for j in times)
        rows = []
        for entry in catalog.values():
            if entry.feature_id in stats:
                mean, var = stats[entry.feature_id]
                draws = rng.normal(mean, np.sqrt(var), size=spec.n_visits)
                rows.append((entry.display_name,
                             [f"{v:.{VALUE_DECIMALS}f}" for v in draws]))
        if group == 0:
            # a survivor's response stays below 0.5 after rounding
            p = min(float(rng.uniform(0.0, 0.5)), 0.5 - 10 ** -VALUE_DECIMALS)
        else:
            p = float(rng.uniform(0.5, 1.0))
        # example bodies always use the one-paragraph preamble, dated or not
        body = _body(_preamble(sex, age, times, " "), times, rows,
                     "feature_wise")
        examples.append(("Input information of a patient:\n" + body,
                         f"{p:.{VALUE_DECIMALS}f}"))
    return examples


def icl_spec_from_cohort(cohort, seed, dated=False):
    """Per-group (mean, variance) of every numeric feature over all visits."""
    values = {0: {}, 1: {}}
    for rec in cohort.records:
        if rec.label not in (0, 1):
            continue
        for fid, series in rec.features.items():
            if cohort.catalog[fid].kind != "numeric":
                continue
            observed = [v for v in series if v is not None]
            values[rec.label].setdefault(fid, []).extend(observed)
    group_stats = {
        g: {
            fid: (float(np.mean(vs)), float(np.var(vs)))
            for fid, vs in feats.items()
            if vs
        }
        for g, feats in values.items()
        if feats
    }
    return IclExampleSpec(group_stats=group_stats, seed=seed, dated=dated)


def build_prompt(record, catalog, config, icl_spec=None, icl_examples=None):
    """Assemble the full prompt in canonical section order.

    Layout follows whether the record is dated, like the preamble: prompts
    for dated records keep the task instruction and the response format
    sentence as separate paragraphs; the rest join them into one. The nan
    sentence is added when a value token of the patient body is "nan".

    In-context examples are synthesized from ``icl_spec`` unless
    ``icl_examples`` already holds them, so a run rendering many prompts
    can synthesize them once.
    """
    instruction = task_instruction(config.task, config.horizon)
    response_sentence = response_format_sentence(config.task)
    task_sections = [instruction, response_sentence]
    if not record.dated:
        task_sections = [" ".join(task_sections)]
    sections = [
        ROLE_SENTENCE,
        INTRO_SENTENCE,
        DATA_FORMAT_SENTENCES[config.serialization],
        *task_sections,
        FALLBACK_SENTENCE,
    ]
    body, rows = _record_body(record, catalog, config, config.serialization)
    if any("nan" in tokens for _, tokens in rows):
        sections.append(NAN_SENTENCE)
    context = render_context(catalog, config.include_units, config.include_ranges)
    if context:
        sections.append(context)
    if config.n_icl_examples > 0:
        if icl_examples is None:
            if icl_spec is None:
                raise InvariantViolation(
                    "n_icl_examples > 0 but no example spec given")
            icl_examples = synthesize_icl_examples(
                icl_spec, config.n_icl_examples, catalog)
        blocks = [
            f"Example #{i}:\n{input_text}\n\nRESPONSE:\n{response}"
            for i, (input_text, response) in enumerate(icl_examples, start=1)
        ]
        # the header sits directly above the first example
        sections.append(ICL_HEADER + "\n" + "\n\n".join(blocks))
    sections.append("Input information of a patient:\n" + body)
    indicator = output_indicator(config.task)
    sections.append(indicator)
    text = "\n\n".join(sections)
    if text.count(indicator) != 1:  # a catalog or record string holds it
        raise InvariantViolation("output indicator must appear exactly once")
    return RenderedPrompt(text=text)


def value_tokens(serialized_text):
    """All quoted value tokens of a rendering, for multiset comparisons."""
    tokens = []
    for line in serialized_text.split("\n"):
        if line.startswith("- ") and line.endswith('"') and ': "' in line:
            inner = line.split(': "', 1)[1][:-1]
            tokens.extend(tok.strip() for tok in inner.split(","))
    return tokens
