"""Independent oracles for the commands' outputs.

Each function raises ``CheckFailed`` with a reason when the program's output
disagrees with a reference computed here from the raw input files.
"""
from __future__ import annotations

import json
import math

import numpy as np

from server import answer_for

# redraws of a one-class resample before giving up, as metrics.bootstrap does
MAX_REDRAWS = 100


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def strip_timing(report):
    """A predict report without its timing fields, as canonical JSON."""
    return json.dumps({k: v for k, v in report.items() if k != "timing"},
                      sort_keys=True)


# -- predict ---------------------------------------------------------------

def _ref_auroc(scores, labels):
    pos, neg = scores[labels == 1], scores[labels == 0]
    if not len(pos) or not len(neg):
        return None
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    # twice the Mann-Whitney U is an integer, so u is exact
    u = int(2 * below.sum() + ties.sum()) / 2
    return u / (len(pos) * len(neg))


def _ref_auprc(scores, labels):
    n_pos = int(labels.sum())
    if not n_pos:
        return None
    values, group = np.unique(-scores, return_inverse=True)
    totals = np.cumsum(np.bincount(group, minlength=len(values)))
    positives = np.bincount(group, weights=labels, minlength=len(values))
    precision = np.cumsum(positives) / totals
    return float(np.sum(precision * positives / n_pos))


def _ref_bootstrap_mean(metric, scores, labels, n, seed):
    """Mean over resamples drawn as default_rng([seed, i]).integers(0, m, m)."""
    m = len(scores)
    values = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        for _ in range(MAX_REDRAWS + 1):
            idx = rng.integers(0, m, size=m)
            value = metric(scores[idx], labels[idx])
            if value is not None:
                values.append(value)
                break
        else:
            raise CheckFailed(f"resample {i} never had both classes")
    return float(np.asarray(values, dtype=float).mean())


def check_predict_report(report, transcript_lines, cohort_path, boot):
    """Counts, the server's answers, and metric means against the reference."""
    rows = sorted((json.loads(line) for line in transcript_lines),
                  key=lambda r: r["sample_id"])
    require(report["n_errors"] == 0, f"n_errors = {report['n_errors']}")
    require(report["missing_rate"]["percent"] == 0,
            f"missing rate {report['missing_rate']['percent']}%")
    require(report["missing_rate"]["n_test"] == len(rows),
            "transcript length differs from n_test")
    for row in rows:
        require(row["raw_text"] == answer_for(row["prompt_sha256"]),
                f"{row['sample_id']}: answer is not the server's")
    label_of = {}
    with open(cohort_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            label_of[rec["patient_id"]] = rec["label"]
    scores = np.array([0.5 if r["probability"] is None else r["probability"]
                       for r in rows], dtype=float)
    labels = np.array([label_of[r["sample_id"]] for r in rows])
    auroc = _ref_bootstrap_mean(_ref_auroc, scores, labels, boot["n"],
                                boot["seed"])
    auprc = _ref_bootstrap_mean(_ref_auprc, scores, labels, boot["n"],
                                boot["seed"])
    got = report["metrics"]
    require(got["auroc"]["mean"] == auroc,
            f"auroc mean {got['auroc']['mean']!r} != reference {auroc!r}")
    require(abs(got["auprc"]["mean"] - auprc) <= 1e-12,
            f"auprc mean {got['auprc']['mean']!r} vs reference {auprc!r}")


# -- eval-icd --------------------------------------------------------------

def read_broad_codes(order_file):
    """(code, description) of every code of length <= 4, in file order."""
    out = []
    with open(order_file, encoding="utf-8") as fh:
        for line in fh:
            code = line[6:13].strip()
            if code and len(code) <= 4:
                out.append((code, line[77:].strip() or line[16:76].strip()))
    return out


def ancestor_walk_mean_distance(codes, labels):
    """Mean over clusters (first-seen order) of mean pairwise tree distance.

    A code's parent is its longest proper prefix (3 characters or more)
    present in ``codes``, else its chapter letter; chapters hang off a
    virtual root. Distances walk both ancestor paths to their meeting point.
    """
    present = set(codes)

    def parent(code):
        if len(code) == 1:
            return ""
        for cut in range(len(code) - 1, 2, -1):
            if code[:cut] in present:
                return code[:cut]
        return code[0]

    paths = {}
    for code in codes:
        path, node = [code], code
        while node:
            node = parent(node)
            path.append(node)
        paths[code] = path

    def distance(a, b):
        depth_in_a = {node: i for i, node in enumerate(paths[a])}
        for j, node in enumerate(paths[b]):
            if node in depth_in_a:
                return depth_in_a[node] + j
        raise CheckFailed(f"{a} and {b} share no ancestor")

    clusters = {}
    for code, label in zip(codes, labels):
        clusters.setdefault(label, []).append(code)
    means = []
    for members in clusters.values():
        if len(members) < 2:
            continue
        total = sum(distance(members[i], members[j])
                    for i in range(len(members))
                    for j in range(i + 1, len(members)))
        means.append(total / (len(members) * (len(members) - 1) // 2))
    return sum(means) / len(means) if means else float("nan")


def check_icd_report(report, order_file, seed, k, model):
    from ehrbench import gateway, icd

    require(all(math.isfinite(v) for v in report["per_k"].values()),
            f"non-finite per_k {report['per_k']}")
    codes, texts = zip(*read_broad_codes(order_file))
    require(report["n_codes"] == len(codes),
            f"n_codes {report['n_codes']} != {len(codes)}")
    embeddings = gateway.embed(list(texts), gateway.EndpointConfig(
        model_name=model))
    labels = icd.kmeans(embeddings, k, seed=[seed, k]).labels
    expected = ancestor_walk_mean_distance(list(codes), labels)
    got = report["per_k"][str(k)]
    require(got == expected, f"K={k}: {got!r} != ancestor-walk {expected!r}")


# -- eval-sentences --------------------------------------------------------

def check_sentence_grid(report, pairs_path, embeddings_path):
    from scipy import stats

    table = {}
    with open(embeddings_path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            table[obj["text"]] = np.asarray(obj["embedding"], dtype=float)
    pairs = []
    with open(pairs_path, encoding="utf-8") as fh:
        for line in fh:
            s1, s2, gold = line.rstrip("\n").split("\t")
            pairs.append((table[s1], table[s2], float(gold)))
    gold = np.array([g for _, _, g in pairs])
    measures = {
        "cosine": lambda a, b: float(a @ b) / (float(np.linalg.norm(a))
                                               * float(np.linalg.norm(b))),
        "l1": lambda a, b: float(np.abs(a - b).sum()),
        "l2": lambda a, b: float(np.linalg.norm(a - b)),
    }
    require(report["n_pairs"] == len(pairs), "n_pairs differs")
    for name, fn in measures.items():
        predicted = np.array([fn(a, b) for a, b, _ in pairs])
        r = stats.pearsonr(predicted, gold)[0]
        expected = {
            "pearson": r,
            "spearman": stats.spearmanr(predicted, gold)[0],
            "kendall": stats.kendalltau(predicted, gold, variant="b")[0],
            "pearson_distance": math.sqrt(1.0 - r),
        }
        for key, value in expected.items():
            got = report["grid"][name][key]
            require(abs(got - value) <= 1e-12,
                    f"{name}/{key}: {got!r} vs scipy {value!r}")
