"""Supervised and correlation metrics with bootstrap uncertainty.

AUROC uses the pairwise (Mann-Whitney) formulation with explicit 0.5 tie
credit. AUPRC is average precision with tied scores grouped into a single
threshold step. Kendall is the tie-adjusted tau-b; Spearman uses average
ranks.

All of them count over tie groups: the values are sorted once by
``np.unique`` and each value gets its group. AUROC and AUPRC put sample i
in bin 2 * group + label and count rows of sample indices with one
``np.bincount``: the identity row for the metric itself, one row per
resample in the bootstrap. Each row's per-group positive and negative
counts are whole numbers and finish with a cumsum over the groups, so a
resample's value equals the metric on the resampled list bit for bit;
O(n log n) for the sort and O(n) after it. Average ranks come from the
cumsum of group sizes, and Kendall counts discordant pairs by merge sort
(Knight 1966), O(n log n). Bootstrap resample i draws its index sequence
from ``numpy.random.default_rng([seed, i])``, which is the documented
contract reference implementations may rely on. ``bootstrap_pass`` draws
each resample once for AUROC and AUPRC together and scores a chunk of
resamples at a time.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NoPositives, SingleClass


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


def _sample_bins(samples):
    """(bin of each sample, number of tie groups): sample i falls in bin
    2 * group + label, its tie group numbered in ascending score order."""
    group, counts = _tie_groups([s.score for s in samples])
    label = np.array([s.label for s in samples], dtype=np.intp)
    return 2 * group + label, len(counts)


def _count_rows(bins, n_groups, idx):
    """(positives, negatives) per tie group for each row of ``idx``, an
    (r, m) array of sample indices: one ``np.bincount`` over every row."""
    rows, n_bins = len(idx), 2 * n_groups
    row_bins = bins[idx] + n_bins * np.arange(rows)[:, None]
    counts = np.bincount(row_bins.ravel(), minlength=rows * n_bins)
    counts = counts.reshape(rows, n_groups, 2)
    return counts[..., 1], counts[..., 0]


def _auroc_rows(pos, neg):
    """AUROC of each row of whole-number per-group counts (groups in
    ascending score order), and whether it is defined: both classes present.
    """
    n_pos, n_neg = pos.sum(1), neg.sum(1)
    below = np.cumsum(neg, axis=1) - neg
    # the counts are whole numbers, so twice the Mann-Whitney U is exact
    twice_u = (pos * (2 * below + neg)).sum(1)
    defined = (n_pos > 0) & (n_neg > 0)
    return twice_u / 2.0 / np.maximum(n_pos * n_neg, 1), defined


def _auprc_rows(pos, neg):
    """AUPRC of each row of whole-number per-group counts (groups in
    ascending score order), and whether it is defined: a positive present.
    """
    n_pos = pos.sum(1)
    pos, total = pos[:, ::-1], (pos + neg)[:, ::-1]
    # a group without positives adds a term of 0; the floor of 1 only keeps
    # its precision finite where nothing is above the threshold yet
    precision = np.cumsum(pos, axis=1) / np.maximum(np.cumsum(total, axis=1), 1)
    terms = precision * pos / np.maximum(n_pos, 1)[:, None]
    # summed one term at a time in threshold order, as a loop over the
    # thresholds would (adding a 0 changes no bit); np.sum adds pairwise and
    # can differ in the last bit
    return np.cumsum(terms, axis=1)[:, -1], n_pos > 0


# name -> the metric on each row of per-group counts
_ROW_METRICS = {"auroc": _auroc_rows, "auprc": _auprc_rows}


def _value(name, bins, n_groups, idx):
    """Metric ``name`` on the samples of ``idx``, one (1, m) index row;
    raises where the metric is undefined."""
    pos, neg = _count_rows(bins, n_groups, idx)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if name == "auprc" and n_pos == 0:
        raise NoPositives("no positive samples")
    if name == "auroc" and (n_pos == 0 or n_neg == 0):
        raise SingleClass(f"{n_pos} positives, {n_neg} negatives")
    return float(_ROW_METRICS[name](pos, neg)[0][0])


def auroc(samples):
    """P(score_pos > score_neg) + 0.5 P(score_pos = score_neg)."""
    bins, n_groups = _sample_bins(samples)
    return _value("auroc", bins, n_groups, np.arange(len(bins))[None])


def auprc(samples):
    """Average precision with tied scores collapsed into one threshold."""
    bins, n_groups = _sample_bins(samples)
    return _value("auprc", bins, n_groups, np.arange(len(bins))[None])


_MAX_REDRAWS = 100
# resamples scored together; a chunk holds _CHUNK x m resample indices and
# _CHUNK x 2 x groups counts, so this bounds the pass's memory
_CHUNK = 16


def _redraw(name, bins, n_groups, rng):
    """Metric ``name`` on the first of ``rng``'s next resamples where it is
    defined; raises after ``_MAX_REDRAWS`` undefined ones."""
    m = len(bins)
    for attempt in range(1, _MAX_REDRAWS + 1):
        try:
            return _value(name, bins, n_groups,
                          rng.integers(0, m, size=m)[None])
        except (SingleClass, NoPositives):
            if attempt == _MAX_REDRAWS:
                raise


def bootstrap_pass(samples, names, n=10, seed=0):
    """Bootstrap the metrics ``names`` ("auroc", "auprc") over one set of
    resamples.

    Resample i is drawn once, as indices ``default_rng([seed, i]).integers(0,
    m, m)``, and scored by every metric. ``_CHUNK`` resamples at a time are
    counted per tie group and class with one ``np.bincount`` and scored row
    by row; the counts are whole numbers, so each value equals the metric on
    the resampled list bit for bit. A metric undefined on a resample (a class
    vanished) redraws it from its own copy of that resample's generator, at
    most ``_MAX_REDRAWS`` times. Returns {name: ``BootstrapResult``, or the
    ``SingleClass``/``NoPositives`` of the resample whose redraws ran out}.
    ``std`` is the population standard deviation of the resample values.
    """
    if not samples:
        raise InvariantViolation("no samples")
    m = len(samples)
    bins, n_groups = _sample_bins(samples)
    values = {name: np.empty(n) for name in names}
    failed = {}
    for start in range(0, n, _CHUNK):
        rngs = [np.random.default_rng([seed, i])
                for i in range(start, min(start + _CHUNK, n))]
        idx = np.array([rng.integers(0, m, size=m) for rng in rngs])
        pos, neg = _count_rows(bins, n_groups, idx)
        for name in names:
            if name in failed:
                continue
            scores, defined = _ROW_METRICS[name](pos, neg)
            try:
                for r in np.flatnonzero(~defined):
                    scores[r] = _redraw(name, bins, n_groups,
                                        copy.deepcopy(rngs[r]))
            except (SingleClass, NoPositives) as exc:
                failed[name] = exc
            values[name][start:start + len(rngs)] = scores
    return {name: failed[name] if name in failed else BootstrapResult(
                mean=float(values[name].mean()), std=float(values[name].std()),
                n_resamples=n, seed=seed)
            for name in names}


def bootstrap(metric, samples, n=10, seed=0):
    """Resample-with-replacement uncertainty for ``auroc`` or ``auprc``.

    ``bootstrap_pass`` for the one metric: the same resamples and values.
    Raises the ``SingleClass``/``NoPositives`` of a resample whose redraws
    ran out.
    """
    result = bootstrap_pass(samples, (metric.__name__,), n=n, seed=seed)
    result = result[metric.__name__]
    if isinstance(result, Exception):
        raise result
    return result


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
        raise InvariantViolation("pearson undefined for constant input")
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
        raise InvariantViolation("kendall undefined for constant input")
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


def _row_dots(a, b):
    """``a[i] @ b[i]`` for each row i of two (n, d) arrays: a stack of
    vector products, each the one-pair dot."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def similarities(a, b, measure):
    """Cosine similarity or L1/L2 distance between each row of ``a`` and the
    same row of ``b``, two (n, d) arrays; row i gets the arithmetic of one
    pair, a norm being the square root of the row's own dot."""
    if a.shape != b.shape:
        raise InvariantViolation("vector dimensions differ")
    if measure == "cosine":
        na, nb = np.sqrt(_row_dots(a, a)), np.sqrt(_row_dots(b, b))
        zero = np.flatnonzero((na == 0.0) | (nb == 0.0))
        if zero.size:
            raise InvariantViolation(f"pair {zero[0] + 1}: cosine undefined "
                                     "for a zero vector")
        return _row_dots(a, b) / (na * nb)
    if measure == "l1":
        return np.abs(a - b).sum(axis=1)
    if measure == "l2":
        diff = a - b
        return np.sqrt(_row_dots(diff, diff))
    raise InvariantViolation(f"unknown measure {measure!r}")


def pearson_distance(r):
    """sqrt(1 - r) transform of a correlation r in [-1, 1]."""
    if not -1.0 <= r <= 1.0:
        raise InvariantViolation(f"correlation {r} outside [-1, 1]")
    return math.sqrt(1.0 - r)


MEASURES = ("cosine", "l1", "l2")
CORRELATIONS = {"pearson": pearson, "spearman": spearman, "kendall": kendall}


def sentence_matching_eval(a, b, gold):
    """3 similarity measures x 3 correlations grid plus Pearson distance;
    pair i is row i of ``a`` and of ``b`` with gold score ``gold[i]``."""
    if len(gold) < 2:
        raise InvariantViolation("need at least 2 pairs")
    grid = {}
    for measure in MEASURES:
        predicted = similarities(a, b, measure)
        row = {
            name: corr(predicted, gold) for name, corr in CORRELATIONS.items()
        }
        row["pearson_distance"] = pearson_distance(row["pearson"])
        grid[measure] = row
    return grid
