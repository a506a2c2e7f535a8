"""microAUC against an O(n^2) pairwise-counting oracle."""

import numpy as np
import pytest

from hedgerow import ModelFormatError
from hedgerow.metrics import accuracy, micro_auc


def pairwise_auc_oracle(scores, labels):
    """Brute force: count positive-over-negative pairs, ties worth one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, s = scores.shape
    pos, neg = [], []
    for i in range(n):
        for c in range(s):
            (pos if labels[i] == c else neg).append(scores[i, c])
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_perfect_separation_is_one():
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.95, 0.05]])
    labels = np.array([0, 1, 0])
    assert micro_auc(scores, labels) == 1.0


def test_anti_separation_is_zero():
    scores = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    assert micro_auc(scores, labels) == 0.0


def test_handcrafted_five_sample_three_class_case():
    scores = np.array(
        [
            [0.5, 0.2, 0.3],
            [0.1, 0.6, 0.3],
            [0.3, 0.3, 0.4],
            [0.2, 0.5, 0.3],
            [0.5, 0.1, 0.4],
        ]
    )
    labels = np.array([0, 1, 2, 0, 2])
    expect = pairwise_auc_oracle(scores, labels)
    assert micro_auc(scores, labels) == pytest.approx(expect, abs=1e-12)


def test_random_instances_match_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(3, 40))
        s = int(rng.integers(2, 6))
        scores = rng.normal(size=(n, s))
        labels = rng.integers(0, s, n)
        assert micro_auc(scores, labels) == pytest.approx(
            pairwise_auc_oracle(scores, labels), abs=1e-9
        )


def test_ties_counted_half(rng):
    # heavy ties: quantized scores
    for _ in range(10):
        scores = rng.integers(0, 3, (20, 3)).astype(float)
        labels = rng.integers(0, 3, 20)
        assert micro_auc(scores, labels) == pytest.approx(
            pairwise_auc_oracle(scores, labels), abs=1e-9
        )


def test_large_pooled_set_matches_oracle(rng):
    # ~10^4 pooled pairs
    scores = rng.normal(size=(50, 4))
    labels = rng.integers(0, 4, 50)
    assert micro_auc(scores, labels) == pytest.approx(
        pairwise_auc_oracle(scores, labels), abs=1e-9
    )


def test_degenerate_pool_rejected():
    with pytest.raises(ModelFormatError):
        micro_auc(np.zeros((0, 2)), np.zeros(0, dtype=int))
    # single-class scores: with one class every pooled decision is positive
    with pytest.raises(ModelFormatError):
        micro_auc(np.array([[1.0], [2.0]]), np.array([0, 0]))
    # a NaN score has no rank
    with pytest.raises(ModelFormatError):
        micro_auc(np.array([[0.9, np.nan], [0.2, 0.8]]), np.array([0, 1]))


def test_label_range_validated():
    with pytest.raises(ModelFormatError):
        micro_auc(np.zeros((2, 2)), np.array([0, 5]))


def test_accuracy():
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    labels = np.array([0, 1, 1, 0])
    assert accuracy(scores, labels) == pytest.approx(0.75)
