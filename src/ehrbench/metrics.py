"""Supervised and correlation metrics with bootstrap uncertainty.

AUROC uses the pairwise (Mann-Whitney) formulation with explicit 0.5 tie
credit. AUPRC is average precision with tied scores grouped into a single
threshold step. Kendall is the tie-adjusted tau-b; Spearman uses average
ranks.

All of them count over tie groups: the values are sorted once by
``np.unique`` and each value gets its group. AUROC and AUPRC then take
per-group positive and negative counts (``np.bincount``) and finish with a
cumsum over the groups, O(n log n) for the sort and O(n) after it. Both
accept a ``TieGroups`` view and per-sample integer ``weights``, so a
bootstrap resample is scored as the multiplicity of each sample instead of
a new list; the counts stay integer-valued floats, so the result equals
the metric on the expanded list bit for bit. Average ranks come from the
cumsum of group sizes, and Kendall counts discordant pairs by merge sort
(Knight 1966), O(n log n). Bootstrap resample i draws its index sequence
from ``numpy.random.default_rng([seed, i])``, which is the documented
contract reference implementations may rely on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantInput,
    EmptyInput,
    InvariantViolation,
    NoPositives,
    OutOfRange,
    SingleClass,
    ZeroVector,
)


@dataclass(frozen=True)
class ScoredSample:
    sample_id: str
    score: float
    label: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvariantViolation(f"score {self.score} outside [0, 1]")
        if self.label not in (0, 1):
            raise InvariantViolation(f"label {self.label!r} not in {{0,1}}")


@dataclass(frozen=True)
class BootstrapResult:
    mean: float
    std: float
    n_resamples: int
    seed: int

    def __post_init__(self):
        if self.std < 0:
            raise InvariantViolation("std must be >= 0")


@dataclass(frozen=True)
class SimilarityPair:
    vec_a: tuple
    vec_b: tuple
    gold_score: float

    def __post_init__(self):
        object.__setattr__(self, "vec_a", tuple(self.vec_a))
        object.__setattr__(self, "vec_b", tuple(self.vec_b))
        if len(self.vec_a) != len(self.vec_b):
            raise InvariantViolation("vector dimensions differ")
        if not 0.0 <= self.gold_score <= 4.0:
            raise InvariantViolation(f"gold score {self.gold_score} outside [0, 4]")


def _tie_groups(values):
    """(group of each value, size of each group); groups in ascending order."""
    _, group, counts = np.unique(np.asarray(values), return_inverse=True,
                                 return_counts=True)
    return group, counts


def _tied_pairs(counts):
    """Number of pairs that share a tie group."""
    return int((counts * (counts - 1) // 2).sum())


def _average_ranks(values):
    """1-based average ranks, ties share the mean rank."""
    group, counts = _tie_groups(np.asarray(values, dtype=float))
    ends = np.cumsum(counts)
    # a group holding ranks start+1 .. end gets their mean, a half-integer
    return ((2 * ends - counts + 1) / 2.0)[group]


@dataclass(frozen=True)
class TieGroups:
    """Scored samples grouped by tied score, the view auroc/auprc count on.

    ``group[i]`` is sample i's tie group, numbered in ascending score order;
    ``label[i]`` its label. Build it once with ``TieGroups.of`` and pass
    per-sample weights to score any resample of the same samples.
    """

    group: np.ndarray
    label: np.ndarray
    n_groups: int

    @classmethod
    def of(cls, samples):
        group, counts = _tie_groups([s.score for s in samples])
        label = np.array([s.label for s in samples], dtype=float)
        return cls(group=group, label=label, n_groups=len(counts))


def _group_counts(samples, weights):
    """(positives, negatives) per tie group, each sample counted by weight."""
    view = samples if isinstance(samples, TieGroups) else TieGroups.of(samples)
    if weights is None:
        weights = np.ones(len(view.label))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != view.label.shape:
        raise InvariantViolation(
            f"{weights.shape} weights for {len(view.label)} samples")
    pos = np.bincount(view.group, weights=weights * view.label,
                      minlength=view.n_groups)
    total = np.bincount(view.group, weights=weights, minlength=view.n_groups)
    return pos, total - pos


def auroc(samples, weights=None):
    """P(score_pos > score_neg) + 0.5 P(score_pos = score_neg).

    ``samples`` is a sequence of ``ScoredSample`` or a ``TieGroups``;
    ``weights`` counts sample i ``weights[i]`` times, a whole number
    (default once each).
    """
    pos, neg = _group_counts(samples, weights)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass(f"{n_pos} positives, {n_neg} negatives")
    below = np.cumsum(neg) - neg
    # counts are integer-valued floats, so twice the Mann-Whitney U is exact
    twice_u = float(pos @ (2.0 * below + neg))
    return (twice_u / 2.0) / (n_pos * n_neg)


def auprc(samples, weights=None):
    """Average precision with tied scores collapsed into one threshold.

    Takes the same ``samples`` and ``weights`` as ``auroc``.
    """
    pos, neg = _group_counts(samples, weights)
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise NoPositives("no positive samples")
    pos, total = pos[::-1], (pos + neg)[::-1]
    hit = pos > 0
    precision = np.cumsum(pos)[hit] / np.cumsum(total)[hit]
    # summed one term at a time in threshold order, as a loop over the
    # thresholds would; np.sum adds pairwise and can differ in the last bit
    return float(np.cumsum(precision * pos[hit] / n_pos)[-1])


_MAX_REDRAWS = 100


def bootstrap(metric, samples, n=10, seed=0):
    """Resample-with-replacement uncertainty for a metric.

    Resample i uses indices ``default_rng([seed, i]).integers(0, m, m)``
    and is scored as ``metric(TieGroups.of(samples), weights=...)`` with
    each sample's multiplicity in the resample as its weight. Resamples on
    which the metric is undefined (a class vanished) are redrawn a bounded
    number of times, then raised. ``std`` is the population standard
    deviation of the resample values.
    """
    if not samples:
        raise EmptyInput("no samples")
    m = len(samples)
    view = TieGroups.of(samples)
    values = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        for attempt in range(_MAX_REDRAWS + 1):
            idx = rng.integers(0, m, size=m)
            try:
                values.append(
                    metric(view, weights=np.bincount(idx, minlength=m)))
                break
            except (SingleClass, NoPositives):
                if attempt == _MAX_REDRAWS:
                    raise
    values = np.asarray(values, dtype=float)
    return BootstrapResult(
        mean=float(values.mean()),
        std=float(values.std()),
        n_resamples=n,
        seed=seed,
    )


def _check_paired(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise InvariantViolation("input lengths differ")
    if len(xs) < 2:
        raise InvariantViolation("need at least 2 points")
    return xs, ys


def pearson(xs, ys):
    xs, ys = _check_paired(xs, ys)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        raise ConstantInput("pearson undefined for constant input")
    return float(dx @ dy) / denom


def spearman(xs, ys):
    xs, ys = _check_paired(xs, ys)
    return pearson(_average_ranks(xs), _average_ranks(ys))


def kendall(xs, ys):
    """Tau-b: tie-adjusted Kendall correlation, O(n log n) (Knight 1966)."""
    xs, ys = _check_paired(xs, ys)
    n = len(xs)
    gx, cx = _tie_groups(xs)
    gy, cy = _tie_groups(ys)
    # one key per (x group, y group); its sorted order sorts by x, then y
    joint = gx * len(cy) + gy
    _, cxy = _tie_groups(joint)
    n0 = n * (n - 1) // 2
    n1, n2, n3 = _tied_pairs(cx), _tied_pairs(cy), _tied_pairs(cxy)
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        raise ConstantInput("kendall undefined for constant input")
    # sorted by (x, y), the pairs with y out of order are the discordant ones
    swaps = _merge_sort_swaps((np.sort(joint) % len(cy)).tolist())
    return (n0 - n1 - n2 + n3 - 2 * swaps) / denom


def _merge_sort_swaps(seq):
    """Number of pairs i < j with seq[i] > seq[j], by bottom-up merge sort."""
    n = len(seq)
    swaps = 0
    width = 1
    while width < n:
        merged = []
        for lo in range(0, n, 2 * width):
            left = seq[lo:lo + width]
            right = seq[lo + width:lo + 2 * width]
            i = j = 0
            while i < len(left) and j < len(right):
                if right[j] < left[i]:
                    merged.append(right[j])
                    swaps += len(left) - i
                    j += 1
                else:
                    merged.append(left[i])
                    i += 1
            merged += left[i:]
            merged += right[j:]
        seq = merged
        width *= 2
    return swaps


def similarity(vec_a, vec_b, measure):
    """Cosine similarity or L1/L2 distance between two vectors."""
    a = np.asarray(vec_a, dtype=float)
    b = np.asarray(vec_b, dtype=float)
    if a.shape != b.shape:
        raise InvariantViolation("vector dimensions differ")
    if measure == "cosine":
        na = float(np.linalg.norm(a))
        nb = float(np.linalg.norm(b))
        if na == 0.0 or nb == 0.0:
            raise ZeroVector("cosine undefined for a zero vector")
        return float(a @ b) / (na * nb)
    if measure == "l1":
        return float(np.abs(a - b).sum())
    if measure == "l2":
        return float(np.linalg.norm(a - b))
    raise InvariantViolation(f"unknown measure {measure!r}")


def pearson_distance(r):
    """sqrt(1 - r) transform of a correlation r in [-1, 1]."""
    if not -1.0 <= r <= 1.0:
        raise OutOfRange(f"correlation {r} outside [-1, 1]")
    return math.sqrt(1.0 - r)


MEASURES = ("cosine", "l1", "l2")
CORRELATIONS = {"pearson": pearson, "spearman": spearman, "kendall": kendall}


def sentence_matching_eval(pairs):
    """3 similarity measures x 3 correlations grid plus Pearson distance."""
    if len(pairs) < 2:
        raise InvariantViolation("need at least 2 pairs")
    gold = [p.gold_score for p in pairs]
    grid = {}
    for measure in MEASURES:
        predicted = [similarity(p.vec_a, p.vec_b, measure) for p in pairs]
        row = {
            name: corr(predicted, gold) for name, corr in CORRELATIONS.items()
        }
        row["pearson_distance"] = pearson_distance(row["pearson"])
        grid[measure] = row
    return grid
