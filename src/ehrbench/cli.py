"""Command-line entry points: predict, prompt-preview, eval-sentences,
eval-icd, report-merge.

A run is described by one JSON config with sections {label, data, split,
prompt, endpoint, bootstrap, decode, output_dir}; an unknown, missing or
mistyped key stops the run before any data is read. The config is
fingerprinted (sha256 of its key-sorted JSON) and echoed into every report so
results stay attributable. One writer makes every report: atomic writes
(temp file + rename), and strict JSON with an undefined value as null.
"""
from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
import typing
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

# ehr, prompts, metrics and icd are imported by the commands that use them,
# so a command loads (and, without bytecode caching, compiles) only its own
from . import gateway
from .errors import (
    EhrBenchError,
    InvariantViolation,
    ParseError,
    jsonl_objects,
    open_text,
)


def config_fingerprint(config_dict):
    """sha256 of the key-sorted compact JSON form; insensitive to key order."""
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Top level of a run config; each dict is one section below."""

    data: dict
    split: dict
    prompt: dict
    endpoint: dict
    output_dir: str
    label: str = ""
    bootstrap: dict = field(default_factory=dict)
    decode: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DataSpec:
    cohort: str
    catalog: str
    task: str
    labels: str | None = None

    def __post_init__(self):
        from . import ehr

        if self.task not in ehr.TASKS:
            raise InvariantViolation(
                f"data.task must be one of {ehr.TASKS}, got {self.task!r}")
        for p in (self.cohort, self.catalog, self.labels):
            if p is not None and not os.path.exists(p):
                raise InvariantViolation(
                    f"referenced path does not exist: {p}")
        if self.labels is not None and not ehr.is_long_csv(self.cohort):
            raise InvariantViolation(
                "data.labels applies only to a long-CSV cohort; a JSONL "
                "cohort carries its labels in its records")


# Most resamples a bootstrap may take: they are drawn after every request
# was sent, so a count past this would stall or fail a run only then.
MAX_BOOTSTRAP_N = 1_000_000


@dataclass(frozen=True)
class BootstrapSpec:
    n: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BOOTSTRAP_N:
            raise InvariantViolation(
                f"bootstrap.n must be in [1, {MAX_BOOTSTRAP_N}]")
        if self.seed < 0:
            raise InvariantViolation("bootstrap.seed must be >= 0")


@dataclass(frozen=True)
class DecodeSpec:
    count_unknown_as_missing: bool = False


def _type_ok(value, hint):
    """Does a JSON value fit a field annotation? An int fits a float field;
    a bool fits only a bool field."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


def _section(name, cls, values, **derived):
    """Build ``cls`` from one config section; every key must be a field.

    ``derived`` fields are set by the run itself and are not config keys.
    """
    where = f"{name}." if name else ""
    if not isinstance(values, dict):
        raise InvariantViolation(
            f"config {name or 'file'} must be a JSON object, "
            f"got {type(values).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)
              if f.name not in derived}
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if key not in fields:
            raise InvariantViolation(
                f"unknown config key {where}{key} (allowed: "
                f"{', '.join(fields)})")
        if not _type_ok(value, hints[key]):
            expected = getattr(hints[key], "__name__", hints[key])
            raise InvariantViolation(
                f"config key {where}{key} must be {expected}, got {value!r}")
    for key, f in fields.items():
        if key not in values and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise InvariantViolation(f"config key {where}{key} is required")
    try:
        return cls(**values, **derived)
    except (TypeError, ValueError, InvariantViolation) as exc:
        raise InvariantViolation(f"config {name}: {exc}") from None


def _load_config(path):
    """Read and validate a run config -> (dict as written, section objects)."""
    from . import ehr, prompts

    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"config {path} is not valid JSON: {exc}") \
                from None
    top = _section("", RunConfig, raw)
    data = _section("data", DataSpec, top.data)
    endpoint = _section("endpoint", gateway.EndpointConfig, top.endpoint)
    if endpoint.is_stub:  # an unknown stub chat model raises here
        gateway.stub_complete("", endpoint.model_name)
    sections = SimpleNamespace(
        data=data,
        split=_section("split", ehr.SplitSpec, top.split),
        prompt=_section("prompt", prompts.PromptConfig, top.prompt,
                        task=data.task),
        endpoint=endpoint,
        bootstrap=_section("bootstrap", BootstrapSpec, top.bootstrap),
        decode=_section("decode", DecodeSpec, top.decode),
    )
    return raw, sections


def load_run_config(path):
    """Validate a run config without loading its data; returns the dict."""
    return _load_config(path)[0]


class RunPlan:
    """A validated config, its cohort, and how every prompt is rendered.

    ``predict`` and ``prompt-preview`` both render through ``render``, so a
    preview is the prompt that is sent. The cohort is split on first use;
    in-context examples come from the train split and are synthesized once
    for dated records and once for the rest, the one difference in how
    ``prompts`` lays them out.
    """

    def __init__(self, config_path):
        from . import ehr

        self.raw, self.config = _load_config(config_path)
        data = self.config.data
        self.catalog = ehr.load_catalog(data.catalog)
        self.cohort = ehr.load_cohort(data.cohort, self.catalog, data.task,
                                      labels_path=data.labels)
        self._icl_examples = {}

    @functools.cached_property
    def splits(self):
        from . import ehr

        return ehr.split_cohort(self.cohort, self.config.split)

    def _examples(self, dated):
        from . import prompts

        if dated not in self._icl_examples:
            train, _, _ = self.splits
            spec = prompts.icl_spec_from_cohort(
                train, seed=self.config.split.seed, dated=dated)
            self._icl_examples[dated] = prompts.synthesize_icl_examples(
                spec, self.config.prompt.n_icl_examples, self.catalog)
        return self._icl_examples[dated]

    def render(self, record):
        from . import prompts

        cfg = self.config.prompt
        examples = (self._examples(record.dated)
                    if cfg.n_icl_examples > 0 else None)
        return prompts.build_prompt(record, self.catalog, cfg,
                                    icl_examples=examples)


def _write_report(out_dir, stem, report, header, rows, transcript=None):
    """Create ``out_dir`` and atomically write ``<stem>.json`` (strict JSON:
    every NaN, an undefined value, as null), ``<stem>.csv`` (``header``,
    then ``rows``) and, if given, the ``transcript.jsonl`` text."""
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(header)
    writer.writerows(rows)
    files = {f"{stem}.json": json.dumps(_nan_to_null(report), indent=2,
                                        sort_keys=True, allow_nan=False) + "\n",
             f"{stem}.csv": table.getvalue()}
    if transcript is not None:
        files["transcript.jsonl"] = transcript
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
            os.replace(tmp, os.path.join(out_dir, name))
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


def _nan_to_null(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nan_to_null(v) for v in value]
    return value


def _score(outcomes, records, boot):
    """Bootstrapped AUROC/AUPRC; a missing answer scores 0.5."""
    from . import metrics

    labels = {rec.patient_id: rec.label for rec in records}
    samples = [
        metrics.ScoredSample(
            sample_id=sid,
            score=o.probability if o.probability is not None else 0.5,
            label=labels[sid],
        )
        for sid, o in sorted(outcomes.items())
    ]
    results = metrics.bootstrap_pass(samples, ("auroc", "auprc"),
                                     n=boot.n, seed=boot.seed)
    return {name: {"error": str(result)} if isinstance(result, Exception)
            else vars(result) for name, result in results.items()}


REPORT_COLUMNS = ["label", "fingerprint", "n_test", "n_decoded",
                  "missing_rate_percent", "auroc_mean", "auroc_std",
                  "auprc_mean", "auprc_std"]


def _report_row(report, path):
    """One ``REPORT_COLUMNS`` row of the predict report at ``path``; each
    part it reads must be a JSON object, and the keys that only a predict
    report has must be present."""
    def part(where, value):
        if not isinstance(value, dict):
            raise InvariantViolation(
                f"report {path}: {where} must be a JSON object, "
                f"got {type(value).__name__}")
        return value

    rate = part("missing_rate", part("report", report).get("missing_rate", {}))
    scores = part("metrics", report.get("metrics", {}))
    stats = {name: part(f"metrics.{name}", scores.get(name, {}))
             for name in ("auroc", "auprc")}
    for key in ("fingerprint", "missing_rate", "metrics"):
        if key not in report:
            raise InvariantViolation(
                f"report {path}: key {key} is required in a predict report")
    return [report.get("label", ""), report["fingerprint"],
            rate.get("n_test", ""), rate.get("n_decoded", ""),
            rate.get("percent", ""),
            *(stats[name].get(stat) for name in stats
              for stat in ("mean", "std"))]


def cmd_predict(args):
    plan = RunPlan(args.config)
    _, _, test_split = plan.splits
    test = test_split.records
    if not test:
        raise InvariantViolation(
            f"the test split of {len(plan.cohort.records)} records is empty "
            f"(split.test_frac {plan.config.split.test_frac:g})")
    out_dir = plan.raw["output_dir"]
    os.makedirs(out_dir, exist_ok=True)  # fail before the first request
    t0 = time.monotonic()
    rendered = {rec.patient_id: plan.render(rec).text for rec in test}
    results = gateway.complete_batch(rendered, plan.config.endpoint,
                                     args.max_error_frac)
    outcomes, transcript, n_errors = {}, [], 0
    for sid, result in sorted(results.items()):
        if isinstance(result, Exception):
            n_errors += 1
            o = outcomes[sid] = gateway.PredictionOutcome(
                "missing", None, f"<error: {result}>")
        else:
            o = outcomes[sid] = gateway.decode_probability(result)
        sha = hashlib.sha256(rendered[sid].encode("utf-8")).hexdigest()
        transcript.append(json.dumps(
            {**vars(o), "sample_id": sid, "prompt_sha256": sha},
            sort_keys=True) + "\n")
    del rendered  # free the prompts before the bootstrap
    rate = gateway.missing_rate(
        outcomes.values(),
        count_unknown_as_missing=plan.config.decode.count_unknown_as_missing)
    metric_results = _score(outcomes, test, plan.config.bootstrap)

    report = {
        "label": plan.raw.get("label", ""),
        "fingerprint": config_fingerprint(plan.raw),
        "config": plan.raw,
        "missing_rate": {
            "n_test": rate.n_test,
            "n_decoded": rate.n_decoded,
            "percent": rate.missing_rate_percent,
        },
        "status_counts": dict(
            collections.Counter(o.status for o in outcomes.values())),
        "metrics": metric_results,
        "n_errors": n_errors,
        "timing": {"seconds": time.monotonic() - t0},
    }
    _write_report(out_dir, "report", report, REPORT_COLUMNS,
                  [_report_row(report, os.path.join(out_dir, "report.json"))],
                  transcript="".join(transcript))
    error_frac = n_errors / len(outcomes)
    if error_frac > args.max_error_frac:
        print(f"error fraction {error_frac:.3f} exceeds "
              f"--max-error-frac {args.max_error_frac}", file=sys.stderr)
        return 1
    print(f"wrote {out_dir}/report.json "
          f"(missing rate {rate.missing_rate_percent:.2f}%)")
    return 0


def cmd_prompt_preview(args):
    plan = RunPlan(args.config)
    record = plan.cohort.get(args.sample_id)
    if record is None:
        raise InvariantViolation(f"sample {args.sample_id!r} is not in "
                                 f"cohort {plan.config.data.cohort}")
    print(plan.render(record).text)
    return 0


def _load_sentence_pairs(path):
    pairs = []
    with open_text(path) as lines:
        for line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got "
                                 f"{len(cells)}")
            try:
                gold = float(cells[2])
            except ValueError:
                raise ParseError(f"bad gold score {cells[2]!r}") from None
            if not 0.0 <= gold <= 4.0:
                raise ParseError(f"gold score {gold} outside [0, 4]")
            pairs.append((cells[0], cells[1], gold))
        if not pairs:
            lines.read_whole()
            raise ParseError("no sentence pairs")
    return pairs


def _load_embedding_file(path, key="text"):
    """JSONL of {key: ..., "embedding": [...]} -> {key: float64 row}.

    Every embedding passes ``gateway.embedding_row``, as long as the first
    line's, and no two lines hold the same ``key``.
    """
    table = {}
    dim = None
    with open_text(path) as lines:
        for obj in jsonl_objects(lines):
            if not isinstance(obj.get(key), str) or "embedding" not in obj:
                raise ParseError(f'expected a string "{key}" and an "embedding"')
            lines.once(obj[key], f"{key} {obj[key]!r}")
            try:
                row = gateway.embedding_row(obj["embedding"], dim)
            except ValueError as exc:
                raise ParseError(f'"embedding" {exc}') from None
            dim = row.size
            table[obj[key]] = row
    return table


def _embeddings(args, keys, texts, key, n_summed):
    """(n, d) floats, one row per key: the ``--embeddings-file`` line whose
    ``key`` field holds it, or else the endpoint's embedding of its text.
    ``n_summed`` is the most terms one sum of squares adds downstream."""
    if args.embeddings_file:
        table = _load_embedding_file(args.embeddings_file, key=key)
        missing = [k for k in keys if k not in table]
        if missing:
            raise InvariantViolation(
                f"{len(missing)} of {len(keys)} {key}s lack embeddings, "
                f"e.g. {missing[0]!r}")
        vectors = np.stack([table[k] for k in keys])
    else:
        vectors = gateway.embed(texts, gateway.EndpointConfig(
            base_url=args.base_url, model_name=args.model))
    # With m the largest |value| and d the width, a squared l1 distance
    # between two rows is at most (2dm)^2, and every other square made from
    # rows (|x|^2, x.y, a squared l2 distance, a k-means++ D^2) at most
    # 4dm^2; so a sum of n_summed of them, the rows of the D^2 total or the
    # pairs of a correlation, is at most 4 n_summed (dm)^2. pearson
    # multiplies that sum by the gold scores' own, so it is held below
    # sqrt(float max), which leaves the gold side the same room. pearson
    # sums with math.fsum, which raises OverflowError on a sum that a dot
    # product would round to inf, so the bound also keeps that traceback away.
    limit = np.finfo(float).max ** 0.25 / (2 * vectors.shape[1]
                                           * math.sqrt(n_summed))
    largest = max(vectors.max(), -vectors.min())
    if largest > limit:
        raise InvariantViolation(
            f"embeddings from {args.embeddings_file or 'model ' + args.model}"
            f" reach |value| {largest:.3g}, above {limit:.3g}, past which "
            "sums of their squares could overflow")
    return vectors


def cmd_eval_sentences(args):
    from . import metrics

    pairs = _load_sentence_pairs(args.pairs)
    texts = list(dict.fromkeys(s for s1, s2, _ in pairs for s in (s1, s2)))
    vectors = _embeddings(args, texts, texts, "text", len(pairs))
    index = {text: i for i, text in enumerate(texts)}
    left = vectors[[index[s1] for s1, _, _ in pairs]]
    right = vectors[[index[s2] for _, s2, _ in pairs]]
    grid = metrics.sentence_matching_eval(left, right, [p[2] for p in pairs])
    columns = ["pearson_distance", "pearson", "spearman", "kendall"]
    _write_report(args.output_dir, "report",
                  {"n_pairs": len(pairs), "grid": grid},
                  ["measure", *columns],
                  [[measure, *(row[c] for c in columns)]
                   for measure, row in grid.items()])
    print(f"wrote {args.output_dir}/report.json ({len(pairs)} pairs)")
    return 0


def cmd_eval_icd(args):
    from . import icd

    entries = icd.filter_broad_codes(icd.parse_order_file(args.order_file))
    tree = icd.build_tree(entries)
    codes = [e.code for e in entries]
    icd.check_ks(len(codes), args.ks)  # before any embedding is paid for
    embeddings = _embeddings(
        args, codes, [e.long_desc or e.short_desc for e in entries], "code",
        len(codes))
    result = icd.hierarchy_benchmark(tree, codes, embeddings, ks=args.ks,
                                     seed=args.seed)
    per_k = result["per_k"]
    for k, n in result["non_empty"].items():
        if n < k:
            print(f"warning: k={k} ended with {n} non-empty clusters",
                  file=sys.stderr)
        if k in result["capped"]:
            print(f"warning: k={k} stopped at {icd._MAX_ITER} iterations "
                  "before converging", file=sys.stderr)
    _write_report(args.output_dir, "report", {
        "n_codes": len(codes),
        "seed": args.seed,
        "per_k": {str(k): v for k, v in per_k.items()},
        "mean": result["mean"],
    }, ["k", "avg_code_distance"],
        [*per_k.items(), ("mean", result["mean"])])
    print(f"wrote {args.output_dir}/report.json ({len(codes)} codes)")
    return 0


def _load_report(path):
    """A ``report.json`` as JSON; ``NaN`` or ``Infinity`` is rejected."""
    def non_finite(token):
        raise ParseError(f"report {path} holds {token}, which is not a "
                         "finite number")

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=non_finite)
        except ValueError as exc:
            raise ParseError(f"report {path} is not valid JSON: {exc}") \
                from None


def cmd_report_merge(args):
    merged = [_load_report(path) for path in args.reports]
    rows = [_report_row(report, path)
            for report, path in zip(merged, args.reports)]
    _write_report(args.output_dir, "merged", merged, REPORT_COLUMNS, rows)
    print(f"wrote {args.output_dir}/merged.csv ({len(merged)} reports)")
    return 0


def _checked(parse, ok, expected):
    """An argparse type: ``parse(text)`` if that parses and ``ok`` holds,
    else exit 2 saying what was ``expected``."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return convert


_ks = _checked(lambda text: tuple(int(k) for k in text.split(",")),
               lambda ks: min(ks) >= 1 and len(set(ks)) == len(ks),
               "comma-separated distinct integers >= 1")
# numpy.random.default_rng takes no negative seed
_seed = _checked(int, lambda seed: seed >= 0, "an integer >= 0")
_fraction = _checked(float, lambda frac: 0 <= frac <= 1, "a number in [0, 1]")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ehrbench",
        description="Benchmark LLM endpoints on structured-EHR prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="run the full predict pipeline")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--max-error-frac", type=_fraction, default=0.05,
                   help="nonzero exit if hard endpoint errors exceed this "
                        "fraction, in [0, 1] (default 0.05)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("prompt-preview",
                       help="print the exact prompt for one sample")
    p.add_argument("--config", required=True)
    p.add_argument("--sample-id", required=True)
    p.set_defaults(func=cmd_prompt_preview)

    p = sub.add_parser("eval-sentences",
                       help="sentence-similarity correlation grid")
    p.add_argument("--pairs", required=True,
                   help="TSV: sentence1<TAB>sentence2<TAB>gold")
    p.add_argument("--embeddings-file",
                   help='JSONL of {"text", "embedding"} (default: endpoint)')
    p.add_argument("--base-url", default=gateway.STUB_BASE_URL)
    p.add_argument("--model", default="hash-embed-64")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_eval_sentences)

    p = sub.add_parser("eval-icd",
                       help="diagnosis-code clustering distance report")
    p.add_argument("--order-file", required=True,
                   help="fixed-width code order file")
    p.add_argument("--embeddings-file",
                   help='JSONL of {"code", "embedding"} (default: endpoint '
                        "embeds code descriptions)")
    p.add_argument("--base-url", default=gateway.STUB_BASE_URL)
    p.add_argument("--model", default="hash-embed-64")
    p.add_argument("--ks", type=_ks, default="10,20,30,40,50",
                   help="comma-separated distinct cluster counts, each >= 1")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_eval_icd)

    p = sub.add_parser("report-merge", help="merge run reports into one table")
    p.add_argument("reports", nargs="+", help="report.json paths")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_report_merge)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, EhrBenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
