"""Small numeric helpers over vector collections.

Enough to sanity-check that documents with different grammatical
profiles land in separable regions of feature space; full classifier
experiments stay out of this package.
"""

from __future__ import annotations

import math
from typing import Sequence

from .engine import StyloVector


def to_matrix(vectors: Sequence[StyloVector]) -> list[list[float]]:
    """Stack vectors into an n_docs x n_metrics list of rows."""
    if not vectors:
        raise ValueError("no vectors")
    schema = vectors[0].metric_ids
    for vec in vectors:
        if vec.metric_ids != schema:
            raise ValueError(f"mixed schemas: {vec.doc_id!r}")
    return [list(vec.values) for vec in vectors]


def nearest_centroid_loo(matrix: Sequence[Sequence[float]], labels: Sequence[str]) -> float:
    """Leave-one-out accuracy of a nearest-centroid rule (Euclidean)."""
    if not matrix or len(labels) != len(matrix) or len({len(row) for row in matrix}) != 1:
        raise ValueError("matrix rows and labels must align")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    sums = {cls: [0.0] * len(matrix[0]) for cls in classes}
    counts = dict.fromkeys(classes, 0)
    for row, label in zip(matrix, labels):
        sums[label] = [s + x for s, x in zip(sums[label], row)]
        counts[label] += 1
    if min(counts.values()) < 2:
        raise ValueError("every class needs at least two members for leave-one-out")

    def distance(row: Sequence[float], label: str, cls: str) -> float:
        if cls == label:  # hold the row out of its own class
            centroid = [(s - x) / (counts[cls] - 1) for s, x in zip(sums[cls], row)]
        else:
            centroid = [s / counts[cls] for s in sums[cls]]
        return math.dist(centroid, row)

    hits = sum(
        min(classes, key=lambda cls: distance(row, label, cls)) == label
        for row, label in zip(matrix, labels)
    )
    return hits / len(matrix)
