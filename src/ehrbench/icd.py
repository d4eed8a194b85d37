"""ICD-10-CM hierarchy: order-file parsing, prefix tree, tree distances,
k-means clustering of code embeddings, and the intra-cluster distance report.

Tree topology: codes parent to their longest existing shorter prefix (so
filtering cannot orphan a code), 3-character categories parent to their
chapter letter, and chapter letters hang off a single virtual root. This
makes cross-chapter distances finite.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ParseError, open_text

CODE_PATTERN = re.compile(r"[A-Z][0-9A-Z]{2,6}$")

ROOT = ""  # virtual root node


@dataclass(frozen=True)
class IcdEntry:
    order_num: int
    code: str
    is_header: bool
    short_desc: str
    long_desc: str


# columns of the CMS fixed-width order file
_ORDER_NUM = slice(0, 5)
_CODE = slice(6, 13)
_HEADER_FLAG = slice(14, 15)
_SHORT_DESC = slice(16, 76)
_LONG_DESC = slice(77, None)


def parse_order_file(path):
    """Parse the fixed-width order file into entries, validating as we go;
    no two lines may hold the same code."""
    entries = []
    prev_order = 0
    with open_text(path) as lines:
        for line in lines:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            raw_order = line[_ORDER_NUM].strip()
            try:
                order_num = int(raw_order)
            except ValueError:
                raise ParseError(f"bad order number {raw_order!r}") from None
            if order_num <= prev_order:
                raise ParseError(
                    f"order number {order_num} not increasing after {prev_order}")
            prev_order = order_num
            code = line[_CODE].strip()
            if not CODE_PATTERN.match(code):
                raise ParseError(f"bad code {code!r}")
            lines.once(code, f"code {code!r}")
            flag = line[_HEADER_FLAG].strip()
            if flag not in ("0", "1"):
                raise ParseError(f"bad header flag {flag!r}")
            entries.append(
                IcdEntry(
                    order_num=order_num,
                    code=code,
                    is_header=flag == "1",
                    short_desc=line[_SHORT_DESC].strip(),
                    long_desc=line[_LONG_DESC].strip(),
                )
            )
    return entries


def filter_broad_codes(entries):
    """Keep broad-category codes: length four characters or fewer."""
    return [e for e in entries if len(e.code) <= 4]


class IcdTree:
    """Prefix hierarchy with a virtual root above the chapter letters."""

    def __init__(self, parent):
        self._parent = dict(parent)
        self._paths = {}  # code -> root path, filled as codes are asked for

    def parent(self, code):
        if code not in self._parent:
            raise InvariantViolation(f"code {code!r} is not in the tree")
        return self._parent[code]

    def ancestors(self, code):
        """Path from code up to and including the root, as a tuple; each
        code's path is walked once."""
        path = self._paths.get(code)
        if path is None:
            parent = self.parent(code)
            path = (code,) if parent is None else (code, *self.ancestors(parent))
            self._paths[code] = path
        return path


def build_tree(entries):
    """Link every code to its nearest existing shorter prefix."""
    codes = {e.code for e in entries}
    if not codes:
        raise InvariantViolation("no entries")
    parent = {ROOT: None}
    chapters = {c[0] for c in codes}
    for ch in chapters:
        parent[ch] = ROOT
    for code in codes:
        p = None
        for cut in range(len(code) - 1, 2, -1):
            prefix = code[:cut]
            if prefix in codes:
                p = prefix
                break
        parent[code] = p if p is not None else code[0]
    return IcdTree(parent)


def icd_distance(tree, code_a, code_b):
    """Edge-count path length between two codes: the number of nodes on
    one code's root path and not the other's."""
    return len(set(tree.ancestors(code_a)) ^ set(tree.ancestors(code_b)))


@dataclass(frozen=True)
class ClusterAssignment:
    k: int
    labels: tuple
    centroids: tuple
    iterations_run: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        if any(not 0 <= c < self.k for c in self.labels):
            raise InvariantViolation("cluster id out of range")


def _rounding_tol(sq, other_sq, d):
    """How far the expansion |x|^2 - 2 x.c + |c|^2 may lie from the direct
    form ``((x - c) ** 2).sum(-1)``, per point x with ``sq`` = |x|^2, over
    every c with |c|^2 <= ``other_sq``.

    Let u = eps / 2 and R = |x| + max |c|, so |x - c|^2 <= R^2. The direct
    form (d differences squared, then summed) errs by at most about
    (d + 2) u R^2. In the expansion, |x|^2, 2 x.c and |c|^2 err by at most
    d u |x|^2, 2 d u |x||c| and d u |c|^2, and its two additions by about
    u R^2 each: again (d + 2) u R^2 in all. So the two forms differ by at
    most 2 (d + 2) u R^2 = (d + 2) eps R^2. The tolerance 8 (d + 3) eps R^2
    exceeds four times twice that, which leaves room for higher-order terms
    and the rounding of R itself.
    """
    radius = np.sqrt(sq) + np.sqrt(other_sq)
    return 8 * (d + 3) * np.finfo(float).eps * radius ** 2


# the pairs (or, without a second array, rows) ``_direct_sq`` sums at once
_SEED_BLOCK = 128


def _direct_sq(a, ia, b=None, ib=None):
    """``((a[ia] - b[ib]) ** 2).sum(axis=1)``, or without ``b`` ``(a[ia] **
    2).sum(axis=1)``, bit for bit, ``_SEED_BLOCK`` pairs at a time: a
    pair's sum does not depend on the other pairs, so no pairs x d
    temporary is made."""
    out = np.empty(len(ia))
    for start in range(0, len(ia), _SEED_BLOCK):
        pairs = slice(start, start + _SEED_BLOCK)
        block = a[ia[pairs]]
        if b is not None:
            block -= b[ib[pairs]]
        block *= block
        out[pairs] = block.sum(axis=1)
    return out


def _seed_round(points, sq, tol, dist2, rows, centres):
    """Lower D^2, each K's squared distance to its nearest centre, for one
    new centre per K. Row ``r = rows[i]`` of ``dist2`` (Ks x n) becomes
    ``np.minimum(dist2[r], ((points - points[centres[i]]) ** 2).sum(1))``
    bit for bit, in place.

    The expanded distances |x|^2 - 2 x.c + |c|^2 of every row come from one
    matrix product. Only the (K, point) pairs whose expanded distance minus
    ``tol`` (``_rounding_tol``) falls below their D^2 are recomputed in the
    direct form (``_direct_sq``): every other pair's direct distance is at
    least its D^2, so ``np.minimum`` would keep the D^2.
    """
    approx = sq - 2.0 * (points[centres] @ points.T) + sq[centres, None]
    near, cols = np.nonzero(approx - tol < dist2[rows])
    r = rows[near]
    dist2[r, cols] = np.minimum(
        dist2[r, cols], _direct_sq(points, cols, points, centres[near]))


def _kmeans_pp_init(points, sq, ks, rngs):
    """k-means++ (D^2) seeding of every K in ``ks``, K ``ks[i]`` drawing from
    ``rngs[i]``; ``sq`` holds each point's |x|^2. Returns each K's chosen
    point indices.

    Round c draws centre c of every K with k > c, then lowers their D^2 in
    one ``_seed_round``. D^2, and so every draw, equals the direct form's
    bit for bit, as if each K were seeded alone.
    """
    n = len(points)
    ks = np.asarray(ks)
    chosen = [[] for _ in ks]
    dist2 = np.full((len(ks), n), np.inf)  # no centre yet
    tol = _rounding_tol(sq, sq.max(), points.shape[1])
    for c in range(ks.max(initial=0)):
        rows = np.flatnonzero(ks > c)
        for row in rows:
            # the first centre is drawn as when D^2 sums to 0
            total = dist2[row].sum() if c else 0.0
            if total == 0.0:
                idx = int(rngs[row].integers(0, n))
            elif not np.isfinite(total):
                raise InvariantViolation("squared distances overflow")
            else:
                # the draw of rngs[row].choice(n, p=dist2[row] / total),
                # without its checks: the inverse CDF at one random()
                cdf = (dist2[row] / total).cumsum()
                cdf /= cdf[-1]
                idx = int(cdf.searchsorted(rngs[row].random(), side="right"))
            chosen[row].append(idx)
        _seed_round(points, sq, tol, dist2, rows,
                    np.array([chosen[row][c] for row in rows]))
    return chosen


_MAX_ITER = 100
_TOL = 1e-6  # stop once no centroid moves this far


def _nearest_centroid(points, sq, centroids):
    """Index of each point's nearest centroid, as the argmin of the direct
    distances ``((x - c) ** 2).sum(-1)`` gives it, ties included.

    The distances are expanded as |x|^2 - 2 x.c + |c|^2, an n x k matrix
    from one matrix product. A row whose computed gap between its best two
    values exceeds twice the two forms' difference has the same unique
    argmin in both; rows whose gap is within ``_rounding_tol`` are
    recomputed in the direct form, as (point, centroid) pairs of
    ``_direct_sq``.
    """
    k = len(centroids)
    csq = (centroids ** 2).sum(axis=1)
    dist2 = sq[:, None] - 2.0 * (points @ centroids.T) + csq
    labels = dist2.argmin(axis=1)
    if k > 1:
        best2 = np.partition(dist2, 1, axis=1)
        tol = _rounding_tol(sq, csq.max(), points.shape[1])
        near = np.flatnonzero(best2[:, 1] - best2[:, 0] <= tol)
        direct = _direct_sq(points, np.repeat(near, k), centroids,
                            np.tile(np.arange(k), len(near)))
        labels[near] = direct.reshape(len(near), k).argmin(axis=1)
    return labels


def _member_mean(points, labels, c):
    """The mean of the points labelled ``c``, or None if there are none."""
    members = points[labels == c]
    if not len(members):
        return None
    # bit for bit members.mean(axis=0), without its overhead
    return members.sum(axis=0) / len(members)


def _lloyd(points, sq, centroids):
    """Lloyd iterations from ``centroids`` -> (labels, centroids, iterations
    run, converged: did a shift fall below ``_TOL`` within ``_MAX_ITER``).
    After the member means, the e empty clusters, in index order, take the e
    points farthest from their assigned centroid, one each, by distance and
    then index. A point is never taken if its distance is within
    ``_rounding_tol`` (over the centroids it was assigned among) of 0, as
    when a mean of identical points misses them by a rounding step; so a
    cluster that gets none keeps its centroid and surplus clusters stay
    empty.

    A centroid that is the mean of the members it still has is kept: the
    same members in the same order give the same sum, bit for bit, so its
    shift is exactly 0. So only the empty clusters and those that gained or
    lost a point are recomputed; in the first iteration, and after a
    reseed, whose centroid is no member mean, every cluster is.
    """
    k, every = len(centroids), np.arange(len(centroids))
    prev = None  # the labels every centroid is the member mean of, if any
    for iterations in range(1, _MAX_ITER + 1):
        labels = _nearest_centroid(points, sq, centroids)
        stale = np.bincount(labels, minlength=k) == 0  # the empty clusters
        if prev is None:
            stale[:] = True
        else:
            moved = labels != prev
            stale[labels[moved]] = stale[prev[moved]] = True
        new_centroids = centroids.copy()
        empty = []
        for c in np.flatnonzero(stale).tolist():
            mean = _member_mean(points, labels, c)
            if mean is None:
                empty.append(c)
            else:
                new_centroids[c] = mean
        far = []
        if empty:
            own = _direct_sq(points, np.arange(len(points)), centroids, labels)
            tol = _rounding_tol(sq, _direct_sq(centroids, every).max(),
                                points.shape[1])
            far = np.flatnonzero(own > tol)
            far = far[np.argsort(-own[far], kind="stable")][:len(empty)]
            new_centroids[empty[:len(far)]] = points[far]
            labels[far] = empty[:len(far)]
        shift = float(np.sqrt(_direct_sq(new_centroids, every, centroids,
                                         every)).max())
        centroids = new_centroids
        prev = None if len(far) else labels
        if shift < _TOL:
            break
    return labels, centroids, iterations, shift < _TOL


def check_ks(n, ks):
    """Raise unless n items can be clustered into every K of ``ks``."""
    for k in ks:
        if k < 1 or n < k:
            raise InvariantViolation(f"{n} items for k={k}")


def _kmeans_runs(embeddings, ks, seeds):
    """Yield ``_lloyd``'s result for each K in ``ks`` in turn, K ``ks[i]``
    seeded from ``default_rng(seeds[i])``. Every K is seeded before the
    first yield; Lloyd runs for one K at a time."""
    points = np.asarray(embeddings, dtype=float)
    check_ks(len(points), ks)
    sq = _direct_sq(points, np.arange(len(points)))
    starts = _kmeans_pp_init(points, sq, ks,
                             [np.random.default_rng(s) for s in seeds])
    for chosen in starts:
        yield _lloyd(points, sq, points[chosen])


def kmeans(embeddings, k, seed):
    """Lloyd iterations from a seeded k-means++ start; empty clusters are
    reseeded as ``_lloyd`` says. Deterministic for a fixed seed.
    """
    ((labels, centroids, iterations, _),) = _kmeans_runs(embeddings, [k],
                                                          [seed])
    return ClusterAssignment(
        k=k,
        labels=labels.tolist(),
        centroids=tuple(map(tuple, centroids.tolist())),
        iterations_run=iterations,
    )


def _root_paths(tree, codes):
    """Every node on each code's root path, walked once: (the index of the
    code, the node's number) per node, and the number of nodes."""
    ids = {}  # node -> number, by first appearance
    paths = [[ids.setdefault(node, len(ids)) for node in tree.ancestors(code)]
             for code in codes]
    owner = np.repeat(np.arange(len(paths)), [len(p) for p in paths])
    nodes = np.fromiter(itertools.chain.from_iterable(paths), int, len(owner))
    return owner, nodes, len(ids)


def _clustering_distance(paths, labels, k):
    """``avg_code_distance`` of the codes of ``paths`` (``_root_paths``)
    clustered by ``labels``, an int array of values below ``k``.

    A cluster of n members has pairwise distances summing to c * (n - c)
    over the edges (node to parent) on its members' root paths, with c the
    members below the edge; summed over its nodes, n * sum(c) - sum(c^2).
    One bincount over (label, node) counts every cluster's c: exact
    integers, as a pairwise loop's. The root is on every path, so its term
    is 0.
    """
    owner, nodes, n_nodes = paths
    below = np.bincount(labels[owner] * n_nodes + nodes,
                        minlength=k * n_nodes).reshape(k, n_nodes)
    sizes = np.bincount(labels, minlength=k)
    totals = sizes * below.sum(axis=1) - (below * below).sum(axis=1)
    _, first = np.unique(labels, return_index=True)
    order = labels[np.sort(first)]  # clusters by first appearance
    cluster_means = [
        total / (n * (n - 1) // 2)
        for n, total in zip(sizes[order].tolist(), totals[order].tolist())
        if n >= 2]
    if not cluster_means:
        return float("nan")
    return sum(cluster_means) / len(cluster_means)


def avg_code_distance(tree, codes, assignment):
    """Mean over clusters of mean pairwise hierarchy distance.

    Clusters with fewer than two members are excluded from the outer mean
    (the inner normalizer is undefined there); NaN when nothing remains.
    """
    if len(codes) != len(assignment.labels):
        raise InvariantViolation("codes and labels length mismatch")
    return _clustering_distance(_root_paths(tree, codes),
                                np.array(assignment.labels, dtype=int),
                                assignment.k)


def hierarchy_benchmark(tree, codes, embeddings, ks, seed=0):
    """avg_code_distance per cluster count K plus the mean across Ks, the
    number of non-empty clusters each K ended with, and the Ks whose
    k-means stopped at ``_MAX_ITER`` before converging.

    K's k-means is seeded from (seed, K), so each K's result equals
    ``kmeans(embeddings, K, [seed, K])`` whatever the other Ks are. All Ks
    are seeded together; each is clustered and scored before the next.
    """
    if len(codes) != len(embeddings):
        raise InvariantViolation("codes and embeddings length mismatch")
    paths = _root_paths(tree, codes)
    runs = _kmeans_runs(embeddings, ks, [[seed, k] for k in ks])
    per_k, non_empty, capped = {}, {}, []
    for k, (labels, _, _, converged) in zip(ks, runs):
        per_k[k] = _clustering_distance(paths, labels, k)
        non_empty[k] = int(np.count_nonzero(np.bincount(labels, minlength=k)))
        if not converged:
            capped.append(k)
    return {"per_k": per_k, "mean": sum(per_k.values()) / len(per_k),
            "non_empty": non_empty, "capped": capped}
