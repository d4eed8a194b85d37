import collections
import math
import os
import tracemalloc

import numpy as np
import pytest

from ehrbench import errors, icd
from ehrbench.icd import (
    _MAX_ITER,
    _TOL,
    ROOT,
    IcdTree,
    avg_code_distance,
    build_tree,
    filter_broad_codes,
    hierarchy_benchmark,
    icd_distance,
    kmeans,
    parse_order_file,
)


@pytest.fixture(scope="module")
def sibling_entries(fixtures_dir=None):
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "sibling_codes.order")
    return parse_order_file(path)


@pytest.fixture(scope="module")
def sibling_tree(sibling_entries):
    return build_tree(filter_broad_codes(sibling_entries))


def one_hot_embeddings(codes):
    groups = sorted({c[0] for c in codes})
    return [[1.0 if c[0] == g else 0.0 for g in groups] for c in codes]


class TestParsing:
    def test_fixture_parses(self, sibling_entries):
        assert len(sibling_entries) == 12
        first = sibling_entries[0]
        assert first.code == "A000"
        assert first.order_num == 1
        assert not first.is_header
        assert first.short_desc.startswith("Synthetic category")
        assert first.long_desc.endswith("clustering tests")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "codes.order"
        line = f"{1:<5} {'A000':<7} 0 {'short':<60} long"
        path.write_text(line + "\n\n")
        assert len(parse_order_file(path)) == 1

    def test_bad_order_number(self, tmp_path):
        path = tmp_path / "codes.order"
        path.write_text(f"{'x':<5} {'A000':<7} 0 {'s':<60} l\n")
        with pytest.raises(errors.ParseError) as err:
            parse_order_file(path)
        assert str(err.value).startswith(f"{path}, line 1: ")

    def test_order_must_increase(self, tmp_path):
        path = tmp_path / "codes.order"
        lines = [f"{2:<5} {'A000':<7} 0 {'s':<60} l",
                 f"{1:<5} {'A001':<7} 0 {'s':<60} l"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.ParseError) as err:
            parse_order_file(path)
        assert str(err.value).startswith(f"{path}, line 2: ")

    def test_bad_code_and_flag(self, tmp_path):
        path = tmp_path / "codes.order"
        path.write_text(f"{1:<5} {'9XX':<7} 0 {'s':<60} l\n")
        with pytest.raises(errors.ParseError):
            parse_order_file(path)
        path.write_text(f"{1:<5} {'A000':<7} 2 {'s':<60} l\n")
        with pytest.raises(errors.ParseError):
            parse_order_file(path)

    def test_filter_broad_codes(self, sibling_entries, tmp_path):
        assert len(filter_broad_codes(sibling_entries)) == 12
        path = tmp_path / "codes.order"
        lines = [f"{1:<5} {'A00':<7} 1 {'s':<60} l",
                 f"{2:<5} {'A0001':<7} 0 {'s':<60} l"]
        path.write_text("\n".join(lines) + "\n")
        kept = filter_broad_codes(parse_order_file(path))
        assert [e.code for e in kept] == ["A00"]


class TestTree:
    def test_parenting(self, sibling_tree, sibling_entries):
        assert sibling_tree.parent("A000") == "A"   # no A00 in the fixture
        assert sibling_tree.parent("A") == ROOT
        codes = [e.code for e in sibling_entries]
        nodes = {n for code in codes for n in sibling_tree.ancestors(code)}
        assert nodes == {*codes, "A", "B", "E", ROOT}  # codes + chapters

    def test_nearest_prefix_parent(self):
        entries_codes = ["A00", "A000", "A0001", "A09"]
        tree = build_tree([_FakeEntry(c) for c in entries_codes])
        assert tree.parent("A0001") == "A000"
        assert tree.parent("A000") == "A00"
        assert tree.parent("A09") == "A"

    def test_filtering_cannot_orphan(self):
        # A0001 survives even if A000 is absent: parents to A00
        tree = build_tree([_FakeEntry(c) for c in ["A00", "A0001"]])
        assert tree.parent("A0001") == "A00"


class _FakeEntry:
    def __init__(self, code):
        self.code = code


def bfs_distance(parent, a, b):
    adj = collections.defaultdict(set)
    for child, par in parent.items():
        if par is not None:
            adj[child].add(par)
            adj[par].add(child)
    seen = {a: 0}
    queue = collections.deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            return seen[node]
        for nxt in adj[node]:
            if nxt not in seen:
                seen[nxt] = seen[node] + 1
                queue.append(nxt)
    raise AssertionError("disconnected")


def random_parent_map(rng, n):
    parent = {ROOT: None}
    nodes = [ROOT]
    for i in range(n):
        name = f"n{i}"
        parent[name] = nodes[int(rng.integers(0, len(nodes)))]
        nodes.append(name)
    return parent


class TestDistance:
    def test_sibling_and_cross_chapter(self, sibling_tree):
        assert icd_distance(sibling_tree, "A000", "A001") == 2
        assert icd_distance(sibling_tree, "A000", "B000") == 4
        assert icd_distance(sibling_tree, "A000", "A000") == 0

    def test_unknown_code(self, sibling_tree):
        with pytest.raises(errors.InvariantViolation,
                           match="^code 'Z999' is not in the tree$"):
            icd_distance(sibling_tree, "A000", "Z999")

    def test_parent_of_unknown_code(self, sibling_tree):
        with pytest.raises(errors.InvariantViolation,
                           match="^code 'A0' is not in the tree$"):
            sibling_tree.parent("A0")

    def test_matches_bfs_oracle_on_random_trees(self, rng):
        for _ in range(10):
            parent = random_parent_map(rng, int(rng.integers(5, 40)))
            tree = IcdTree(parent)
            nodes = [n for n in parent if n != ROOT]
            for _ in range(30):
                a, b = (nodes[int(rng.integers(0, len(nodes)))]
                        for _ in range(2))
                assert icd_distance(tree, a, b) == bfs_distance(parent, a, b)

    def test_symmetry(self, sibling_tree):
        for a in ("A000", "B001", "E003"):
            for b in ("A002", "E000"):
                assert icd_distance(sibling_tree, a, b) == \
                    icd_distance(sibling_tree, b, a)


class TestKmeans:
    def test_recovers_separated_groups(self, sibling_tree, sibling_entries):
        codes = [e.code for e in sibling_entries]
        assignment = kmeans(one_hot_embeddings(codes), k=3, seed=0)
        by_cluster = collections.defaultdict(set)
        for code, label in zip(codes, assignment.labels):
            by_cluster[label].add(code[0])
        assert all(len(chapters) == 1 for chapters in by_cluster.values())
        assert len(by_cluster) == 3

    def test_deterministic(self, sibling_entries):
        codes = [e.code for e in sibling_entries]
        points = one_hot_embeddings(codes)
        a = kmeans(points, k=3, seed=42)
        b = kmeans(points, k=3, seed=42)
        assert a.labels == b.labels
        assert a.centroids == b.centroids

    def test_k_equals_n(self):
        points = [[float(i), 0.0] for i in range(5)]
        assignment = kmeans(points, k=5, seed=1)
        assert sorted(set(assignment.labels)) == list(range(5))

    def test_too_few_items(self):
        with pytest.raises(errors.InvariantViolation,
                           match="^2 items for k=3$"):
            kmeans([[0.0], [1.0]], k=3, seed=0)

    def test_overflowing_squared_distances_raise(self):
        with np.errstate(all="ignore"), \
                pytest.raises(errors.InvariantViolation, match="overflow"):
            kmeans([[1e200], [-1e200], [0.0]], k=2, seed=0)

    def test_labels_in_range(self, rng):
        points = rng.normal(size=(40, 3))
        assignment = kmeans(points, k=6, seed=9)
        assert all(0 <= c < 6 for c in assignment.labels)
        assert len(assignment.labels) == 40


def direct_pp_init(points, k, rng):
    """k-means++ seeding with a full direct-form distance pass per centre,
    as it was first written. Returns the centroids and D^2 after each
    centre past the first."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    dist2 = ((points - centroids[0]) ** 2).sum(axis=1)
    steps = []
    for c in range(1, k):
        total = dist2.sum()
        if total == 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=dist2 / total))
        centroids[c] = points[idx]
        dist2 = np.minimum(dist2, ((points - centroids[c]) ** 2).sum(axis=1))
        steps.append(dist2)
    return centroids, steps


def direct_kmeans(embeddings, k, seed):
    """k-means over the full n x k x d difference tensor, as ``kmeans`` was
    first written: the reference its labels, centroids and iteration count
    must equal. Also returns how many empty clusters were reseeded."""
    points = np.asarray(embeddings, dtype=float)
    centroids, _ = direct_pp_init(points, k, np.random.default_rng(seed))
    return direct_lloyd(points, centroids)


def direct_lloyd(points, centroids):
    """Lloyd iterations from ``centroids`` in the direct form, every centroid
    recomputed every iteration -> labels, centroids, iterations run and the
    number of empty clusters reseeded. After the member means, the empty
    clusters in index order take the points farthest from their assigned
    centroid, one each, by distance and then index; a point whose distance
    is within ``icd._rounding_tol`` (over the centroids the labels were
    assigned among) of 0 is never taken."""
    n, k = len(points), len(centroids)
    reseeds = 0
    for iterations in range(1, _MAX_ITER + 1):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dist2.argmin(axis=1)
        new_centroids = centroids.copy()
        empty = []
        for c in range(k):
            members = points[labels == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
            else:
                empty.append(c)
        own = dist2[np.arange(n), labels]
        tol = icd._rounding_tol((points ** 2).sum(axis=1),
                                (centroids ** 2).sum(axis=1).max(),
                                points.shape[1])
        farthest = sorted((i for i in range(n) if own[i] > tol[i]),
                          key=lambda i: (-own[i], i))
        for c, i in zip(empty, farthest):
            reseeds += 1
            new_centroids[c] = points[i]
            labels[i] = c
        shift = float(np.sqrt(((new_centroids - centroids) ** 2)
                              .sum(axis=1)).max())
        centroids = new_centroids
        if shift < _TOL:
            break
    return (tuple(int(x) for x in labels), tuple(map(tuple, centroids)),
            iterations, reseeds)


def lloyd_updates(points, centroids):
    """``icd._lloyd`` from ``centroids``, spied on: its result, and for each
    iteration the clusters whose centroid it recomputed, in order, each with
    whether it was empty (and so reseeded)."""
    iterations = []
    nearest, member_mean = icd._nearest_centroid, icd._member_mean

    def nearest_spy(*args):
        iterations.append([])
        return nearest(*args)

    def mean_spy(points, labels, c):
        mean = member_mean(points, labels, c)
        iterations[-1].append((c, mean is None))
        return mean

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(icd, "_nearest_centroid", nearest_spy)
        patch.setattr(icd, "_member_mean", mean_spy)
        result = icd._lloyd(points, (points ** 2).sum(axis=1),
                            centroids.copy())
    return result, iterations


def assert_seeding_matches_direct(points, ks, seeds):
    """``_kmeans_pp_init`` seeds every K of ``ks`` together as
    ``direct_pp_init`` seeds K ``ks[i]`` alone from ``default_rng(seeds[i])``:
    each K's D^2 after every centre and its centroids, byte for byte."""
    points = np.asarray(points, dtype=float)
    rounds = []
    seed_round = icd._seed_round

    def spy(points, sq, tol, dist2, rows, centres):
        seed_round(points, sq, tol, dist2, rows, centres)
        rounds.append((set(rows), dist2.copy()))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(icd, "_seed_round", spy)
        chosen = icd._kmeans_pp_init(
            points, (points ** 2).sum(axis=1), ks,
            [np.random.default_rng(seed) for seed in seeds])
    for i, (k, seed) in enumerate(zip(ks, seeds)):
        want, want_steps = direct_pp_init(points, k,
                                          np.random.default_rng(seed))
        first = ((points - want[0]) ** 2).sum(axis=1)
        steps = [dist2[i] for rows, dist2 in rounds if i in rows]
        assert [s.tobytes() for s in steps] == \
            [s.tobytes() for s in [first, *want_steps]]
        assert points[chosen[i]].tobytes() == want.tobytes()


def assert_matches_direct(points, k, seed):
    """``kmeans`` equals ``direct_kmeans``, and its seeding equals
    ``direct_pp_init`` step by step; returns the reseed count."""
    assert_seeding_matches_direct(points, [k], [seed])
    labels, centroids, iterations, reseeds = direct_kmeans(points, k, seed)
    got = kmeans(points, k, seed)
    assert got.labels == labels
    assert got.centroids == centroids
    assert got.iterations_run == iterations
    return reseeds


def assert_lloyd_matches_direct(points, start):
    """``icd._lloyd`` from ``start`` equals ``direct_lloyd``; returns the
    reseed count."""
    labels, centroids, iterations, _ = icd._lloyd(
        points, (points ** 2).sum(axis=1), start.copy())
    want = direct_lloyd(points, start)
    assert labels.tolist() == list(want[0])
    assert centroids.tobytes() == np.array(want[1]).tobytes()
    assert iterations == want[2]
    return want[3]


class TestKmeansEqualsDirectForm:
    """The matrix-product distances give the direct form's D^2 in the
    seeding and its labels in the iterations, bit for bit, ties included."""

    def test_gaussian(self, rng):
        for i in range(20):
            n, d = int(rng.integers(10, 60)), int(rng.integers(1, 40))
            k = int(rng.integers(2, 9))
            assert_matches_direct(rng.normal(size=(n, d)), k, [i, k])

    @pytest.mark.parametrize("values, d, scale", [
        ((0, 1, 2), 4, 1.0), ((-1, 0, 1), 2, 0.1)])
    def test_integer_grids(self, rng, values, d, scale):
        for i in range(30):
            n, k = int(rng.integers(8, 50)), int(rng.integers(2, 8))
            points = rng.choice(values, size=(n, d)) * scale
            assert_matches_direct(points, k, [i, k])

    def test_repeated_points_reseed_empty_clusters(self, rng):
        """Started away from the points, the clusters that no point is
        nearest take the farthest points, several in one iteration. The
        means of identical points then miss them by a rounding step, which
        lies within ``_rounding_tol`` and takes no point, so the runs
        converge."""
        reseeds = 0
        for i in range(20):
            distinct = rng.normal(size=(int(rng.integers(2, 5)), 3))
            points = distinct[rng.integers(0, len(distinct), size=30)]
            start = rng.normal(size=(len(distinct) + int(rng.integers(1, 4)),
                                     3))
            reseeds += assert_lloyd_matches_direct(points, start)
            _, _, iterations, converged = icd._lloyd(
                points, (points ** 2).sum(axis=1), start.copy())
            assert iterations < 10 and converged
        assert reseeds > 0

    def test_more_clusters_than_distinct_points(self, rng):
        """The seeding puts a centroid on every distinct point, so no point
        lies away from its centroid: the surplus clusters stay empty and the
        labels stand still."""
        for i in range(20):
            distinct = rng.normal(size=(int(rng.integers(2, 5)), 3))
            points = distinct[rng.integers(0, len(distinct), size=30)]
            k = len(distinct) + int(rng.integers(1, 4))
            assert assert_matches_direct(points, k, [i, k]) == 0
            assert len(set(kmeans(points, k, [i, k]).labels)) == len(distinct)

    def test_surplus_clusters_far_from_origin(self, rng):
        """Far from the origin the mean of identical points can miss them by
        more than the shift tolerance, so they lie away from it in the next
        iteration: the clusters left empty are looked at again, as in the
        direct form, but that rounding step is within ``_rounding_tol`` and
        takes no point, so the runs converge."""
        for i in range(10):
            distinct = 1e11 * rng.normal(size=(int(rng.integers(2, 5)), 3))
            points = distinct[rng.integers(0, len(distinct), size=30)]
            k = len(distinct) + int(rng.integers(1, 4))
            assert_matches_direct(points, k, [i, k])
            _, _, iterations, converged = next(
                icd._kmeans_runs(points, [k], [[i, k]]))
            assert iterations < 10 and converged

    def test_single_cluster(self, rng):
        for i in range(5):
            assert_matches_direct(rng.normal(size=(20, 6)), 1, i)

    def test_values_near_1e3(self, rng):
        for i in range(10):
            points = 1e3 + rng.normal(size=(40, 8))
            assert_matches_direct(points, int(rng.integers(2, 8)), i)

    def test_tight_cluster_far_from_origin(self, rng):
        # distances near 1e-12 against expansion errors near 1e-10: without
        # the rounding bound the expansion misses points a centre lowers
        for i in range(10):
            points = 1e3 + 1e-6 * rng.normal(size=(30, 3))
            assert_matches_direct(points, int(rng.integers(2, 8)), i)

    def test_n_equals_k(self, rng):
        for i in range(5):
            n = int(rng.integers(1, 12))
            assert_matches_direct(rng.normal(size=(n, 4)), n, i)

    def test_all_identical_points(self):
        for i, value in enumerate((0.0, 1.0, -0.3, 1e3)):
            assert_matches_direct(np.full((15, 5), value), 4, i)


class TestKmeansEqualsDirectFormInSmallBlocks(TestKmeansEqualsDirectForm):
    """Every family again, with the seeding's pairs and the near-tie rows
    recomputed a few (point, centre) pairs at a time."""

    @pytest.fixture(autouse=True, params=[1, 3])
    def small_block(self, request, monkeypatch):
        monkeypatch.setattr(icd, "_SEED_BLOCK", request.param)


def test_near_tie_rows_are_recomputed_in_blocks():
    """Identical points tie every row at every centroid: the direct form is
    recomputed a block at a time, not as one n x k x d tensor (158 MB for
    this 3 MB matrix)."""
    tracemalloc.start()
    try:
        kmeans(np.full((1500, 256), 0.3), 50, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_row_sums_of_squares_are_computed_in_blocks():
    """|x|^2, the near-tie rows' distances to every centroid and the
    distances that reseed empty clusters are summed a block of rows at a
    time, not from n x d temporaries (41 MB each here) or index arrays of
    tied rows x K: 20,000 points drawn from 20 distinct vectors with K = 30
    leave empty clusters, and about 8,000 rows tie in one iteration."""
    rng = np.random.default_rng(0)
    points = rng.normal(size=(20, 256))[rng.integers(0, 20, size=20_000)]
    tracemalloc.start()
    try:
        assignment = kmeans(points, 30, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(assignment.labels)) == 20
    assert peak < 12e6


def test_surplus_clusters_end_the_run():
    """1,500 points drawn from 20 distinct vectors, K = 50: the 30 clusters
    that cannot hold a distinct point stay empty instead of taking the same
    point in turn until the iteration cap."""
    rng = np.random.default_rng(0)
    points = rng.normal(size=(20, 256))[rng.integers(0, 20, size=1500)]
    assignment = kmeans(points, 50, seed=0)
    assert assignment.iterations_run < 10
    assert len(set(assignment.labels)) == 20


class TestLloydSkipsUnchangedClusters:
    """A cluster that neither gained nor lost a point keeps its centroid
    instead of recomputing the same mean; the results stay the direct
    form's."""

    def test_final_iteration_recomputes_no_cluster(self, rng):
        k = 5
        points = (rng.normal(size=(200, 3))
                  + 6 * rng.normal(size=(k, 3))[rng.integers(0, k, 200)])
        start = points[rng.choice(len(points), k, replace=False)]
        (labels, centroids, iterations, _), updates = lloyd_updates(
            points, start)
        assert len(updates) == iterations > 2
        assert updates[0] == [(c, False) for c in range(k)]
        assert updates[-1] == []  # the labels stood still: shift 0
        assert any(0 < len(u) < k for u in updates)
        want = direct_lloyd(points, start)
        assert (labels.tolist(), centroids.tobytes(), iterations) == \
            (list(want[0]), np.array(want[1]).tobytes(), want[2])

    # 1-D points, with the clusters {100, 110} and {1000, 1001} far away
    # and started at their means: in the first, the second iteration
    # empties cluster 2, whose reseed takes 100 from cluster 3, which
    # otherwise has the members it had; in the second, the second iteration
    # skips two clusters and the third empties one
    @pytest.mark.parametrize("left, start", [
        ((7.7, 8.3, 1.7, 3.7), (9.0, 0.8, 6.6)),
        ((1.9, 5.4, 5.4, 5.2, 6.9, 2.0, 0.2, 2.0), (2.0, 9.9, 1.5)),
    ])
    def test_reseed_after_skipped_clusters(self, left, start):
        points = np.array([*left, 100.0, 110.0, 1000.0, 1001.0])[:, None]
        start = np.array([*start, 105.0, 1000.5])[:, None]
        (labels, centroids, iterations, _), updates = lloyd_updates(
            points, start)
        reseeded = [i for i, u in enumerate(updates) if any(e for _, e in u)]
        assert reseeded and reseeded[0] >= 1
        assert any(len(u) < len(start) for u in updates[1:reseeded[0] + 1])
        want = direct_lloyd(points, start)
        assert want[3] >= 1
        assert labels.tolist() == list(want[0])
        assert centroids.tobytes() == np.array(want[1]).tobytes()
        assert iterations == want[2]


def gaussian(rng, n):
    return rng.normal(size=(n, 5))


def integer_grid(rng, n):
    return rng.choice((-1, 0, 1), size=(n, 3)) * 0.1


def repeated_points(rng, n):
    # two distinct points: D^2 sums to 0 once both are centres
    return rng.normal(size=(2, 4))[rng.integers(0, 2, size=n)]


def far_from_origin(rng, n):
    return 1e3 + 1e-6 * rng.normal(size=(n, 3))


class TestSweepSeeding:
    """The Ks of one sweep are seeded together, each as if alone."""

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("make", [
        gaussian, integer_grid, repeated_points, far_from_origin])
    def test_every_k_matches_direct(self, rng, make, block):
        n = 23
        points = make(rng, n)
        ks = [4, 1, n, 2, 7]
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(icd, "_SEED_BLOCK", block)
            for i in range(3):
                assert_seeding_matches_direct(points, ks,
                                              [[i, k] for k in ks])

    @pytest.mark.parametrize("make", [
        gaussian, integer_grid, repeated_points, far_from_origin])
    def test_hierarchy_benchmark_equals_per_k_kmeans(self, rng, make):
        parent = random_parent_map(rng, 30)
        tree = IcdTree(parent)
        codes = [node for node in parent if node != ROOT]
        points = make(rng, len(codes))
        ks = [5, 1, len(codes), 2, 9]
        report = hierarchy_benchmark(tree, codes, points, ks, seed=4)
        per_k = {k: avg_code_distance(tree, codes,
                                      kmeans(points, k, seed=[4, k]))
                 for k in ks}
        assert list(report["per_k"]) == ks
        for k in ks:
            got, want = report["per_k"][k], per_k[k]
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_too_few_items_names_the_first_bad_k(self, rng):
        parent = random_parent_map(rng, 4)
        codes = [node for node in parent if node != ROOT]
        points = [[float(i)] for i in range(4)]
        with pytest.raises(errors.InvariantViolation,
                           match="^4 items for k=5$"):
            hierarchy_benchmark(IcdTree(parent), codes, points, ks=(2, 5, 6))


class TestAvgCodeDistance:
    def test_grouped_fixture_exact(self, sibling_tree, sibling_entries):
        codes = [e.code for e in sibling_entries]
        assignment = kmeans(one_hot_embeddings(codes), k=3, seed=0)
        assert avg_code_distance(sibling_tree, codes, assignment) == 2.0

    def test_brute_force_on_arbitrary_assignment(self, sibling_tree,
                                                 sibling_entries, rng):
        codes = [e.code for e in sibling_entries]
        from ehrbench.icd import ClusterAssignment
        labels = [int(rng.integers(0, 3)) for _ in codes]
        assignment = ClusterAssignment(k=3, labels=tuple(labels),
                                       centroids=(), iterations_run=0)
        got = avg_code_distance(sibling_tree, codes, assignment)
        # independent brute force over the same grouping
        clusters = collections.defaultdict(list)
        for c, l in zip(codes, labels):
            clusters[l].append(c)
        means = []
        for members in clusters.values():
            if len(members) < 2:
                continue
            dists = [icd_distance(sibling_tree, a, b)
                     for i, a in enumerate(members)
                     for b in members[i + 1:]]
            means.append(sum(dists) / len(dists))
        assert got == pytest.approx(sum(means) / len(means))

    def test_equals_pairwise_distance_loop_on_random_trees(self, rng):
        from ehrbench.icd import ClusterAssignment
        for _ in range(20):
            parent = random_parent_map(rng, int(rng.integers(5, 60)))
            tree = IcdTree(parent)
            nodes = [n for n in parent if n != ROOT]
            codes = [nodes[int(i)] for i in rng.permutation(len(nodes))]
            k = int(rng.integers(1, 6))
            labels = [int(x) for x in rng.integers(0, k, size=len(codes))]
            assignment = ClusterAssignment(k=k, labels=tuple(labels),
                                           centroids=(), iterations_run=0)
            clusters = collections.defaultdict(list)
            for code, label in zip(codes, labels):
                clusters[label].append(code)
            means = []
            for members in clusters.values():
                if len(members) < 2:
                    continue
                pairs = [(a, b) for i, a in enumerate(members)
                         for b in members[i + 1:]]
                means.append(sum(icd_distance(tree, a, b) for a, b in pairs)
                             / len(pairs))
            expected = sum(means) / len(means) if means else float("nan")
            got = avg_code_distance(tree, codes, assignment)
            assert got == expected or (math.isnan(got)
                                       and math.isnan(expected))

    def test_all_singletons_nan(self, sibling_tree, sibling_entries):
        from ehrbench.icd import ClusterAssignment
        codes = [e.code for e in sibling_entries]
        assignment = ClusterAssignment(k=12, labels=tuple(range(12)),
                                       centroids=(), iterations_run=0)
        assert math.isnan(avg_code_distance(sibling_tree, codes, assignment))

    def test_length_mismatch(self, sibling_tree):
        from ehrbench.icd import ClusterAssignment
        assignment = ClusterAssignment(k=1, labels=(0,), centroids=(),
                                       iterations_run=0)
        with pytest.raises(errors.InvariantViolation):
            avg_code_distance(sibling_tree, ["A000", "A001"], assignment)


class TestHierarchyBenchmark:
    def test_report_shape_and_mean(self, sibling_tree, sibling_entries):
        codes = [e.code for e in sibling_entries]
        points = one_hot_embeddings(codes)
        report = hierarchy_benchmark(sibling_tree, codes, points,
                                     ks=(2, 3), seed=0)
        assert set(report["per_k"]) == {2, 3}
        finite = [v for v in report["per_k"].values()
                  if not math.isnan(v)]
        assert report["mean"] == pytest.approx(
            sum(report["per_k"].values()) / 2) or math.isnan(report["mean"])
        assert report["per_k"][3] == 2.0

    def test_per_k_seeds_independent(self, sibling_tree, sibling_entries):
        codes = [e.code for e in sibling_entries]
        points = one_hot_embeddings(codes)
        a = hierarchy_benchmark(sibling_tree, codes, points, ks=(3,), seed=0)
        b = hierarchy_benchmark(sibling_tree, codes, points, ks=(2, 3),
                                seed=0)
        assert a["per_k"][3] == b["per_k"][3]
