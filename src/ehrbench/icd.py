"""ICD-10-CM hierarchy: order-file parsing, prefix tree, LCA distances,
k-means clustering of code embeddings, and the intra-cluster distance report.

Tree topology: codes parent to their longest existing shorter prefix (so
filtering cannot orphan a code), 3-character categories parent to their
chapter letter, and chapter letters hang off a single virtual root. This
makes cross-chapter distances finite.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateCode,
    InvariantViolation,
    ParseError,
    TooFewItems,
    UnknownCode,
)

CODE_PATTERN = re.compile(r"[A-Z][0-9A-Z]{2,6}$")

ROOT = ""  # virtual root node


@dataclass(frozen=True)
class IcdEntry:
    order_num: int
    code: str
    is_header: bool
    short_desc: str
    long_desc: str


@dataclass(frozen=True)
class OrderFileLayout:
    """Column slices of the CMS fixed-width order file (0-based, end-exclusive)."""

    order_num: tuple = (0, 5)
    code: tuple = (6, 13)
    header_flag: tuple = (14, 15)
    short_desc: tuple = (16, 76)
    long_desc_start: int = 77


def parse_order_file(path, layout=OrderFileLayout()):
    """Parse the fixed-width order file into entries, validating as we go."""
    entries = []
    prev_order = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            raw_order = line[slice(*layout.order_num)].strip()
            try:
                order_num = int(raw_order)
            except ValueError:
                raise ParseError(f"bad order number {raw_order!r}", line=lineno)
            if order_num <= prev_order:
                raise ParseError(
                    f"order number {order_num} not increasing after {prev_order}",
                    line=lineno,
                )
            prev_order = order_num
            code = line[slice(*layout.code)].strip()
            if not CODE_PATTERN.match(code):
                raise ParseError(f"bad code {code!r}", line=lineno)
            flag = line[slice(*layout.header_flag)].strip()
            if flag not in ("0", "1"):
                raise ParseError(f"bad header flag {flag!r}", line=lineno)
            entries.append(
                IcdEntry(
                    order_num=order_num,
                    code=code,
                    is_header=flag == "1",
                    short_desc=line[slice(*layout.short_desc)].strip(),
                    long_desc=line[layout.long_desc_start:].strip(),
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
        self._depth = {}
        for node in self._parent:
            self._depth[node] = self._compute_depth(node)

    def _compute_depth(self, node):
        depth = 0
        while node != ROOT:
            node = self._parent[node]
            depth += 1
        return depth

    def __contains__(self, code):
        return code in self._parent

    def __len__(self):
        return len(self._parent) - 1  # root excluded

    def parent(self, code):
        if code not in self._parent:
            raise UnknownCode(code)
        return self._parent[code]

    def depth(self, code):
        if code not in self._depth:
            raise UnknownCode(code)
        return self._depth[code]

    def ancestors(self, code):
        """Path from code up to and including the root."""
        path = [code]
        while code != ROOT:
            code = self._parent[code]
            path.append(code)
        return path


def build_tree(entries):
    """Link every code to its nearest existing shorter prefix."""
    codes = set()
    for e in entries:
        if e.code in codes:
            raise DuplicateCode(e.code)
        codes.add(e.code)
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


def lca(tree, code_a, code_b):
    ancestors_a = set(tree.ancestors(code_a))
    node = code_b
    while node not in ancestors_a:
        node = tree.parent(node)
    return node


def icd_distance(tree, code_a, code_b):
    """Edge-count path length between two codes through their LCA."""
    if code_a not in tree:
        raise UnknownCode(code_a)
    if code_b not in tree:
        raise UnknownCode(code_b)
    anc = lca(tree, code_a, code_b)
    return (tree.depth(code_a) - tree.depth(anc)) + (
        tree.depth(code_b) - tree.depth(anc)
    )


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


def _kmeans_pp_init(points, k, rng):
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    dist2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = dist2.sum()
        if total == 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=dist2 / total))
        centroids[c] = points[idx]
        dist2 = np.minimum(dist2, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def kmeans(embeddings, k, seed, max_iter=100, tol=1e-6):
    """Lloyd iterations from a seeded k-means++ start.

    Empty clusters are reseeded to the point farthest from its assigned
    centroid. Deterministic for a fixed seed.
    """
    points = np.asarray(embeddings, dtype=float)
    n = len(points)
    if k < 1 or n < k:
        raise TooFewItems(f"{n} items for k={k}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dist2.argmin(axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            members = points[labels == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
            else:
                farthest = int(dist2[np.arange(n), labels].argmax())
                new_centroids[c] = points[farthest]
                labels[farthest] = c
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break
    return ClusterAssignment(
        k=k,
        labels=tuple(int(x) for x in labels),
        centroids=tuple(map(tuple, centroids)),
        iterations_run=iterations,
    )


def avg_code_distance(tree, codes, assignment):
    """Mean over clusters of mean pairwise hierarchy distance.

    Clusters with fewer than two members are excluded from the outer mean
    (the inner normalizer is undefined there); NaN when nothing remains.
    """
    if len(codes) != len(assignment.labels):
        raise InvariantViolation("codes and labels length mismatch")
    clusters = {}
    for code, label in zip(codes, assignment.labels):
        if code not in tree:
            raise UnknownCode(code)
        clusters.setdefault(label, []).append(code)
    cluster_means = []
    for members in clusters.values():
        if len(members) < 2:
            continue
        total = 0
        count = 0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                total += icd_distance(tree, members[i], members[j])
                count += 1
        cluster_means.append(total / count)
    if not cluster_means:
        return float("nan")
    return sum(cluster_means) / len(cluster_means)


DEFAULT_KS = (10, 20, 30, 40, 50)


def hierarchy_benchmark(tree, codes, embeddings, ks=DEFAULT_KS, seed=0):
    """avg_code_distance per cluster count K plus the mean across Ks.

    Per-K kmeans seeds derive from (seed, K) so Ks can run independently.
    """
    per_k = {}
    for k in ks:
        assignment = kmeans(embeddings, k, seed=[seed, k])
        per_k[k] = avg_code_distance(tree, codes, assignment)
    return {"per_k": per_k, "mean": sum(per_k.values()) / len(per_k)}
