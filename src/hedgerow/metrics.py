"""Quality metrics for multi-class confidence scores.

micro_auc pools every (sample, class) pair as one binary decision scored by
its confidence and computes the probability that a random positive outranks
a random negative, ties counted one half.  The rank formulation below is
exactly the O(n^2) pairwise count with half ties, at O(n log n).
"""

from __future__ import annotations

import numpy as np

from .errors import ModelFormatError


def micro_auc(scores, labels) -> float:
    """Micro-averaged one-vs-rest AUC over pooled (sample, class) decisions.

    Args:
        scores: (n_samples, n_classes) real confidence matrix.
        labels: (n_samples,) true class indices.

    Raises:
        ModelFormatError: shape mismatch, a non-finite score, or a degenerate
            pooled set.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.ndim != 2 or y.shape != (s.shape[0],):
        raise ModelFormatError("scores must be (n, s) with one label per sample")
    if y.size and (y.min() < 0 or y.max() >= s.shape[1]):
        raise ModelFormatError("labels out of class range")
    if not np.isfinite(s).all():
        raise ModelFormatError("scores must be finite")
    n, classes = s.shape
    positives = np.zeros((n, classes), dtype=bool)
    positives[np.arange(n), y] = True
    pos = positives.reshape(-1)
    pooled = s.reshape(-1)
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ModelFormatError("pooled one-vs-rest set is degenerate (single class)")
    # 1-based ranks, each tie group sharing the mean of the ranks it spans
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(scores, labels) -> float:
    """Fraction of samples whose argmax confidence hits the label."""
    s = np.asarray(scores)
    y = np.asarray(labels)
    if s.ndim != 2 or y.shape != (s.shape[0],):
        raise ModelFormatError("scores must be (n, s) with one label per sample")
    return float(np.mean(np.argmax(s, axis=1) == y))
