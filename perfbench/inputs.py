"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size: the same seed writes
byte-identical files. The program under test only ever sees these files.
"""
from __future__ import annotations

import json
import os

import numpy as np

from ehrbench import synthetic

_WORDS = (
    "acute chronic infection of the lung kidney liver heart due to other "
    "unspecified disorder with without complication neoplasm malignant benign "
    "fracture injury left right upper lower lobe syndrome deficiency anemia "
    "fever pain disease obstruction hemorrhage ulcer stenosis failure "
    "inflammation bacterial viral congenital hereditary secondary primary "
    "respiratory cardiac renal hepatic cerebral vascular muscle bone joint"
).split()

CHAPTERS = "ABCDEGIJKN"
DIM = 32  # width of the sentence embeddings
GOLD_GRID = tuple(float(g) for g in np.arange(0.0, 4.01, 0.5))


def _phrase(rng, n_min, n_max):
    n = int(rng.integers(n_min, n_max + 1))
    return " ".join(_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n))


def write_cohort(directory, n_patients, seed):
    """Catalog CSV and cohort JSONL from the package's own synthetic writers."""
    cohort = synthetic.synthetic_cohort(n_patients=n_patients, seed=seed)
    catalog_path = os.path.join(directory, "catalog.csv")
    cohort_path = os.path.join(directory, "cohort.jsonl")
    synthetic.write_catalog_csv(cohort.catalog, catalog_path)
    synthetic.write_cohort_jsonl(cohort, cohort_path)
    return catalog_path, cohort_path


def write_order_file(path, n_broad, seed):
    """A fixed-width code order file with exactly ``n_broad`` codes of length <= 4.

    Codes span ten chapter letters: 3-character categories, 4-character
    subcategories, and 5- to 7-character billable codes that the broad-code
    filter must drop. Each description starts with its code, so no two
    descriptions (and no two stub embeddings) coincide.
    """
    rng = np.random.default_rng(seed)
    next_category = dict.fromkeys(CHAPTERS, 0)
    lines = []
    n_broad_written = 0
    while n_broad_written < n_broad:
        ch = CHAPTERS[int(rng.integers(0, len(CHAPTERS)))]
        if next_category[ch] == 100:
            continue
        category = f"{ch}{next_category[ch]:02d}"
        next_category[ch] += 1
        n_sub = min(int(rng.integers(0, 10)), n_broad - n_broad_written - 1)
        block = [category]
        for s in range(n_sub):
            sub = f"{category}{s}"
            block.append(sub)
            block.extend(f"{sub}{chr(65 + t)}" + "X" * int(rng.integers(0, 3))
                         for t in range(int(rng.integers(0, 4))))
        for code in block:
            desc = _phrase(rng, 3, 8)
            # CMS columns: order 0-5, code 6-13, header flag 14,
            # short description 16-76, long description from 77
            lines.append(f"{len(lines) + 1:<5d} {code:<7} {int(len(code) > 4)} "
                         f"{(code + ' ' + desc)[:60]:<60} "
                         f"{code} {desc} {_phrase(rng, 2, 6)}\n")
            n_broad_written += len(code) <= 4
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return path


def write_sentences(directory, n_pairs, seed):
    """Pairs TSV with gold scores on a 0.5 grid, plus an embeddings JSONL.

    The second vector of a pair leans towards the first in proportion to the
    gold score, so the correlations are clearly positive; the coarse gold
    grid makes ties, which the tau-b and average-rank paths must handle.
    """
    rng = np.random.default_rng(seed)
    pairs_path = os.path.join(directory, "pairs.tsv")
    emb_path = os.path.join(directory, "embeddings.jsonl")
    with open(pairs_path, "w", encoding="utf-8") as pairs_fh, \
            open(emb_path, "w", encoding="utf-8") as emb_fh:
        for i in range(n_pairs):
            gold = GOLD_GRID[int(rng.integers(0, len(GOLD_GRID)))]
            s1 = f"s{i}a {_phrase(rng, 4, 12)}"
            s2 = f"s{i}b {_phrase(rng, 4, 12)}"
            a = rng.normal(size=DIM)
            w = gold / 4.0
            b = w * a + (1.0 - w) * rng.normal(size=DIM) + 0.3 * rng.normal(size=DIM)
            pairs_fh.write(f"{s1}\t{s2}\t{gold}\n")
            for text, vec in ((s1, a), (s2, b)):
                emb_fh.write(json.dumps({"text": text,
                                         "embedding": vec.tolist()}) + "\n")
    return pairs_path, emb_path
