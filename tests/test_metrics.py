import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scored_samples
from ehrbench import errors, metrics
from ehrbench.metrics import (
    ScoredSample,
    _average_ranks,
    auprc,
    auroc,
    bootstrap,
    bootstrap_pass,
    kendall,
    pearson,
    pearson_distance,
    sentence_matching_eval,
    similarities,
    spearman,
)


def auroc_oracle(samples):
    """Exact pairwise probability with half credit for ties."""
    total = Fraction(0)
    pos = [s for s in samples if s.label == 1]
    neg = [s for s in samples if s.label == 0]
    for p in pos:
        for q in neg:
            if p.score > q.score:
                total += 1
            elif p.score == q.score:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


def auprc_oracle(samples):
    """Exact average precision stepping through distinct thresholds."""
    n_pos = sum(s.label for s in samples)
    thresholds = sorted({s.score for s in samples}, reverse=True)
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for t in thresholds:
        kept = [s for s in samples if s.score >= t]
        tp = sum(s.label for s in kept)
        precision = Fraction(tp, len(kept))
        recall = Fraction(tp, n_pos)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestAuroc:
    def test_perfect_ranking(self):
        samples = [ScoredSample("a", 0.9, 1), ScoredSample("b", 0.8, 1),
                   ScoredSample("c", 0.2, 0), ScoredSample("d", 0.1, 0)]
        assert auroc(samples) == 1.0

    def test_inverted_ranking(self):
        samples = [ScoredSample("a", 0.1, 1), ScoredSample("b", 0.9, 0)]
        assert auroc(samples) == 0.0

    def test_all_tied_is_half(self):
        samples = [ScoredSample(f"s{i}", 0.5, i % 2) for i in range(8)]
        assert auroc(samples) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(errors.UndefinedMetric):
            auroc([ScoredSample("a", 0.5, 1), ScoredSample("b", 0.6, 1)])

    def test_matches_oracle_with_ties(self, rng):
        for _ in range(300):
            samples = random_scored_samples(
                rng, score_pool=[0.0, 0.25, 0.5, 0.75, 1.0])
            assert abs(auroc(samples) - float(auroc_oracle(samples))) \
                < 1e-12

    def test_monotone_transform_invariance(self, rng):
        for _ in range(100):
            samples = random_scored_samples(rng)
            squashed = [ScoredSample(s.sample_id, s.score ** 3, s.label)
                        for s in samples]
            assert auroc(samples) == pytest.approx(auroc(squashed),
                                                   abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        samples = [ScoredSample("a", 0.9, 1), ScoredSample("b", 0.1, 0)]
        assert auprc(samples) == 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(errors.UndefinedMetric):
            auprc([ScoredSample("a", 0.5, 0)])

    def test_matches_oracle_with_ties(self, rng):
        for _ in range(300):
            samples = random_scored_samples(
                rng, score_pool=[0.0, 0.25, 0.5, 0.75, 1.0])
            assert abs(auprc(samples) - float(auprc_oracle(samples))) \
                < 1e-12

    def test_all_tied_equals_prevalence(self):
        samples = [ScoredSample(f"s{i}", 0.5, int(i < 3)) for i in range(10)]
        assert auprc(samples) == pytest.approx(0.3)


def _odd_one_out(odd):
    """Twenty samples of label 1 - odd at scores 0, 0.1 and 0.2, and one of
    label ``odd`` at 0.15, between them."""
    return [ScoredSample("odd", 0.15, odd)] + [
        ScoredSample(f"s{i}", 0.1 * (i % 3), 1 - odd) for i in range(20)]


def _reference_bootstrap(metric, samples, n, seed):
    """The bootstrap as a loop over resampled lists: (mean, std, number of
    redraws), or (error type, message) of a resample whose redraws ran out.
    """
    values, redraws = [], 0
    for i in range(n):
        r = np.random.default_rng([seed, i])
        for _ in range(1 + metrics._MAX_REDRAWS):
            idx = r.integers(0, len(samples), size=len(samples))
            try:
                values.append(metric([samples[j] for j in idx]))
                break
            except errors.UndefinedMetric as exc:
                error = (type(exc), str(exc))
            redraws += 1
        else:
            return error
    return float(np.mean(values)), float(np.std(values)), redraws


class TestBootstrap:
    def test_constant_metric_zero_std(self):
        samples = [ScoredSample(f"s{i}", 0.5, i % 2) for i in range(20)]
        result = bootstrap(auroc, samples, n=10, seed=0)
        assert result.mean == 0.5
        assert result.std == 0.0

    def test_reference_resampler_reproduction(self):
        rng = np.random.default_rng(77)
        samples = random_scored_samples(rng, n=30)
        result = bootstrap(auroc, samples, n=10, seed=4)
        values = []
        for i in range(10):
            r = np.random.default_rng([4, i])
            while True:
                idx = r.integers(0, len(samples), size=len(samples))
                resample = [samples[j] for j in idx]
                labels = {s.label for s in resample}
                if labels == {0, 1}:
                    break
            values.append(auroc(resample))
        assert result.mean == float(np.mean(values))
        assert result.std == float(np.std(values))

    def test_redraws_class_losing_resamples(self, rng):
        # one positive among many: resamples frequently lose the class
        samples = [ScoredSample("p", 0.9, 1)] + [
            ScoredSample(f"n{i}", 0.1, 0) for i in range(20)]
        result = bootstrap(auroc, samples, n=10, seed=1)
        assert result.n_resamples == 10
        assert 0.0 <= result.mean <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(errors.InvariantViolation, match="^no samples$"):
            bootstrap(auroc, [], n=10, seed=0)

    @pytest.mark.parametrize("metric", [auroc, auprc],
                             ids=["auroc", "auprc"])
    @pytest.mark.parametrize("cohort",
                             ["random", "one_positive", "one_negative"])
    def test_equals_per_resample_reference_loop(self, metric, cohort):
        if cohort == "random":
            samples = random_scored_samples(np.random.default_rng(78), n=40)
        else:
            # the odd sample scores between the others, so every resample's
            # value depends on which of them it drew; resamples often lose
            # it: auprc redraws when no positive is left, auroc when a class
            # is gone
            samples = _odd_one_out(int(cohort == "one_positive"))
        mean, std, redraws = _reference_bootstrap(metric, samples, 25, 6)
        result = bootstrap(metric, samples, n=25, seed=6)
        assert result.mean == mean
        assert result.std == std
        # scored beside the other metric, each redraws from its own copy
        shared = bootstrap_pass(samples, ("auroc", "auprc"), n=25, seed=6)
        assert shared[metric.__name__] == result
        if cohort == "one_positive" or (cohort, metric) == \
                ("one_negative", auroc):
            assert redraws > 0

    def test_equals_resampled_lists_on_random_cohorts(self, rng):
        # small tied cohorts, some with one class only: then the redraws of
        # a resample run out and both raise the same error
        for _ in range(300):
            samples = random_scored_samples(
                rng, n=int(rng.integers(1, 15)),
                score_pool=[0.0, 0.25, 0.5, 0.75, 1.0], require_both=False)
            n, seed = int(rng.integers(1, 20)), int(rng.integers(0, 100))
            for metric in (auroc, auprc):
                want = _reference_bootstrap(metric, samples, n, seed)
                try:
                    result = bootstrap(metric, samples, n=n, seed=seed)
                except errors.UndefinedMetric as exc:
                    assert (type(exc), str(exc)) == want
                else:
                    assert (result.mean, result.std) == want[:2]

    @pytest.mark.parametrize("cohort, n, redrawn", [
        ("random", 25, set()),
        # a resample often loses the positive, which both metrics need
        ("one_positive", 25, {"auroc", "auprc"}),
        # a resample often loses the negative, which only auroc needs
        ("one_negative", 25, {"auroc"}),
        ("random", 2 * metrics._CHUNK + 3, set()),
    ], ids=["random", "one_positive", "one_negative", "partial_chunk"])
    def test_shared_pass_equals_one_metric_calls(self, monkeypatch, cohort,
                                                 n, redrawn):
        if cohort == "random":
            samples = random_scored_samples(np.random.default_rng(79), n=40)
        else:
            # the odd sample scores between the others, so every resample's
            # value depends on which of them it drew
            samples = _odd_one_out(int(cohort == "one_positive"))
        seen = set()
        redraw = metrics._redraw

        def counted(name, *args):
            seen.add(name)
            return redraw(name, *args)

        monkeypatch.setattr(metrics, "_redraw", counted)
        shared = bootstrap_pass(samples, ("auroc", "auprc"), n=n, seed=6)
        assert seen == redrawn
        for metric in (auroc, auprc):
            alone = bootstrap(metric, samples, n=n, seed=6)
            got = shared[metric.__name__]
            assert (got.mean, got.std, got.n_resamples) == \
                (alone.mean, alone.std, n)


def pearson_oracle(xs, ys):
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    num = np.sum((xs - xs.mean()) * (ys - ys.mean()))
    den = math.sqrt(np.sum((xs - xs.mean()) ** 2)
                    * np.sum((ys - ys.mean()) ** 2))
    return num / den


def kendall_oracle(xs, ys):
    n = len(xs)
    num = 0
    for i in range(n):
        for j in range(i + 1, n):
            num += np.sign(xs[i] - xs[j]) * np.sign(ys[i] - ys[j])
    tx = sum(1 for i in range(n) for j in range(i + 1, n)
             if xs[i] == xs[j])
    ty = sum(1 for i in range(n) for j in range(i + 1, n)
             if ys[i] == ys[j])
    n0 = n * (n - 1) / 2
    return num / math.sqrt((n0 - tx) * (n0 - ty))


def average_ranks_oracle(v):
    """1-based ranks, walking each run of tied values."""
    v = np.asarray(v, float)
    order = np.argsort(v)
    r = np.empty(len(v))
    i = 0
    srt = v[order]
    while i < len(v):
        j = i
        while j + 1 < len(v) and srt[j + 1] == srt[i]:
            j += 1
        r[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return r


def spearman_oracle(xs, ys):
    return pearson_oracle(average_ranks_oracle(xs),
                          average_ranks_oracle(ys))


def _random_vectors(rng, allow_ties=True):
    n = int(rng.integers(3, 11))
    pool = [0.0, 1.0, 2.5, 4.0] if allow_ties else None
    if allow_ties and rng.uniform() < 0.5:
        xs = [float(pool[int(rng.integers(0, 4))]) for _ in range(n)]
        ys = [float(pool[int(rng.integers(0, 4))]) for _ in range(n)]
    else:
        xs = [float(round(rng.uniform(-5, 5), 3)) for _ in range(n)]
        ys = [float(round(rng.uniform(-5, 5), 3)) for _ in range(n)]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return _random_vectors(rng, allow_ties)
    return xs, ys


class TestCorrelations:
    def test_match_direct_definitions(self, rng):
        for _ in range(200):
            xs, ys = _random_vectors(rng)
            assert pearson(xs, ys) == pytest.approx(pearson_oracle(xs, ys),
                                                    abs=1e-9)
            assert spearman(xs, ys) == pytest.approx(
                spearman_oracle(xs, ys), abs=1e-9)
            assert kendall(xs, ys) == pytest.approx(
                kendall_oracle(xs, ys), abs=1e-9)

    def test_rank_metrics_monotone_invariant(self, rng):
        for _ in range(100):
            xs, ys = _random_vectors(rng)
            warped = [math.exp(0.5 * x) for x in xs]
            assert spearman(warped, ys) == pytest.approx(spearman(xs, ys),
                                                         abs=1e-9)
            assert kendall(warped, ys) == pytest.approx(kendall(xs, ys),
                                                        abs=1e-9)

    def test_sign_flip(self, rng):
        for _ in range(100):
            xs, ys = _random_vectors(rng)
            neg = [-x for x in xs]
            assert pearson(neg, ys) == pytest.approx(-pearson(xs, ys),
                                                     abs=1e-9)
            assert spearman(neg, ys) == pytest.approx(-spearman(xs, ys),
                                                      abs=1e-9)
            assert kendall(neg, ys) == pytest.approx(-kendall(xs, ys),
                                                     abs=1e-9)

    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, xs) == pytest.approx(1.0)
        assert spearman(xs, [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0)
        assert kendall(xs, xs) == pytest.approx(1.0)

    def test_pearson_of_linear_data_stays_in_bounds(self, rng):
        """Rounding puts an unclipped r past +-1 on about a quarter of these
        draws, which pearson_distance then rejects."""
        for _ in range(2000):
            x = rng.normal(size=int(rng.integers(2, 50)))
            y = rng.normal() * x + rng.normal()
            if len(set(y.tolist())) > 1:
                assert abs(pearson(x, y)) <= 1.0

    def test_pearson_clip_keeps_nan(self):
        assert math.isnan(pearson([0.0, 1.0, math.nan], [0.0, 1.0, 2.0]))

    def test_constant_input_rejected(self):
        # spearman is pearson on the ranks
        for fn, name in ((pearson, "pearson"), (spearman, "pearson"),
                         (kendall, "kendall")):
            with pytest.raises(errors.InvariantViolation,
                               match=f"^{name} undefined for constant input$"):
                fn([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(errors.InvariantViolation):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_average_ranks_equal_loop_on_ties(self, rng):
        for n in (1, 2, 3, 10, 57, 200):
            for pool in (1, 3, 8):
                values = rng.integers(0, pool, size=n) * 0.5
                ranks = _average_ranks(values)
                assert ranks.tolist() == \
                    average_ranks_oracle(values).tolist()

    def test_kendall_equals_pairwise_oracle_on_ties(self, rng):
        for n in (2, 3, 5, 17, 64, 200):
            for _ in range(3):
                xs = (rng.integers(0, 5, size=n) * 0.5).tolist()
                ys = (rng.integers(0, 4, size=n) * 1.5).tolist()
                if len(set(xs)) < 2 or len(set(ys)) < 2:
                    continue
                assert kendall(xs, ys) == kendall_oracle(xs, ys)

    def test_kendall_tau_b_matches_scipy_at_n3000(self, rng):
        stats = pytest.importorskip("scipy.stats")
        xs = rng.integers(0, 9, size=3000) * 0.5
        ys = np.round(xs + rng.normal(0, 1.5, size=3000), 1)
        want = stats.kendalltau(xs, ys, variant="b")[0]
        assert abs(kendall(xs, ys) - want) <= 1e-12


def similarity_reference(vec_a, vec_b, measure):
    """One pair's value, as eval-sentences computed it pair by pair; every
    sum is numpy's sum of elementwise products, never a BLAS dot."""
    a = np.asarray(vec_a, dtype=float)
    b = np.asarray(vec_b, dtype=float)
    if measure == "cosine":
        na = math.sqrt(float((a * a).sum()))
        nb = math.sqrt(float((b * b).sum()))
        if na == 0.0 or nb == 0.0:
            raise errors.InvariantViolation(
                "cosine undefined for a zero vector")
        return float((a * b).sum()) / (na * nb)
    if measure == "l1":
        return float(np.abs(a - b).sum())
    return math.sqrt(float(((a - b) * (a - b)).sum()))


def similarity(vec_a, vec_b, measure):
    """``similarities`` of one pair."""
    return float(similarities(np.array([vec_a], dtype=float),
                              np.array([vec_b], dtype=float), measure)[0])


class TestSimilarity:
    def test_cosine(self):
        assert similarity([1, 0], [1, 0], "cosine") == pytest.approx(1.0)
        assert similarity([1, 0], [0, 1], "cosine") == pytest.approx(0.0)
        assert similarity([1, 0], [-1, 0], "cosine") == pytest.approx(-1.0)

    def test_l1_l2(self):
        assert similarity([0, 0], [3, 4], "l1") == 7.0
        assert similarity([0, 0], [3, 4], "l2") == 5.0

    def test_zero_vector_rejected(self):
        with pytest.raises(errors.InvariantViolation,
                           match="^pair 1: cosine undefined for a zero "
                                 "vector$"):
            similarity([0, 0], [1, 2], "cosine")

    def test_dimension_mismatch(self):
        with pytest.raises(errors.InvariantViolation):
            similarities(np.ones((1, 1)), np.ones((1, 2)), "l2")

    def test_unknown_measure(self):
        with pytest.raises(errors.InvariantViolation):
            similarity([1], [1], "hamming")

    @pytest.mark.parametrize("measure", metrics.MEASURES)
    @pytest.mark.parametrize("d", [1, 2, 3, 32, 257, 768])
    def test_rows_equal_one_pair_at_a_time(self, rng, measure, d):
        """Every row, bit for bit, the one-pair arithmetic; rows of mixed
        magnitude and repeated rows included."""
        n = 40
        a = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        b = rng.normal(size=(n, d))
        b[::7] = a[::7]
        got = similarities(a, b, measure)
        assert got.tolist() == [similarity_reference(a[i], b[i], measure)
                                for i in range(n)]

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_zero_row_names_its_pair(self, rng, side):
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        (a if side == "a" else b)[3] = 0.0
        with pytest.raises(errors.InvariantViolation,
                           match="^pair 4: cosine undefined for a zero "
                                 "vector$"):
            similarities(a, b, "cosine")
        # the distances are defined for a zero row
        similarities(a, b, "l1")


class TestPearsonDistance:
    def test_reference_values(self):
        assert round(pearson_distance(0.61), 2) == 0.62
        assert round(pearson_distance(0.57), 2) == 0.66

    def test_bounds(self):
        assert pearson_distance(1.0) == 0.0
        assert pearson_distance(-1.0) == pytest.approx(math.sqrt(2))
        with pytest.raises(errors.InvariantViolation,
                           match=r"^correlation 1.1 outside \[-1, 1\]$"):
            pearson_distance(1.1)

    @given(st.floats(min_value=-1.0, max_value=0.999))
    def test_strictly_decreasing(self, r):
        assert pearson_distance(r) > pearson_distance(r + 0.001)


class TestSentenceMatchingEval:
    def test_monotone_fixture_cosine_pearson_one(self):
        # vec_b = vec_a scaled: cosine similarity 1 everywhere is constant,
        # so use pairs whose cosine tracks gold linearly instead
        golds = [0.0, 1.0, 2.0, 3.0, 4.0]
        angles = [(4.0 - gold) * math.pi / 8 for gold in golds]
        a = np.array([[1.0, 0.0]] * len(golds))
        b = np.array([[math.cos(t), math.sin(t)] for t in angles])
        grid = sentence_matching_eval(a, b, golds)
        assert grid["cosine"]["spearman"] == pytest.approx(1.0)
        assert grid["cosine"]["kendall"] == pytest.approx(1.0)
        assert grid["cosine"]["pearson"] > 0.95
        assert set(grid) == {"cosine", "l1", "l2"}
        for row in grid.values():
            assert set(row) == {"pearson", "spearman", "kendall",
                                "pearson_distance"}
            assert row["pearson_distance"] == pytest.approx(
                math.sqrt(1 - row["pearson"]))

    def test_one_pair_rejected(self):
        with pytest.raises(errors.InvariantViolation, match="2 pairs"):
            sentence_matching_eval(np.ones((1, 2)), np.ones((1, 2)), [1.0])
