"""Depth-2 boosted tree ensembles and their slot-parallel evaluation.

Trees are complete depth-2: a root and two children, each holding a feature
index and a split code, with four leaf scores held as fixed-point integers.
An ``Ensemble`` holds them as three int64 tables with one row per tree.
Scoring uses the simplified polynomial

    score = (z1 - 1)*l3*z3 + (z2*l1 + l2)*z1 + l4

over the node comparison bits z1 (root), z2 (left), z3 (right), where the
transformed leaves are l1 = c1-c2, l2 = c2-c4, l3 = c4-c3, l4 = c4.  This
equals the sum of the four path terms z1*z2*c1 + z1*(1-z2)*c2 +
(1-z1)*z3*c3 + (1-z1)*(1-z3)*c4 for every z in {0,1}^3.  The encrypted
evaluation factors it around z1,

    score = z1*(z2*l1 + z3*l3 + l2) - z3*l3 + l4,

so z3*l3 is computed once and used twice, and each tree costs one
ciphertext-ciphertext multiply and one level.

Slot layout: three parallel node streams (root / left / right) indexed by
tree, so the score polynomial applies slot-wise with zero rotations.  Trees
are packed class-major, classes padded to a power-of-two tree count, which
lets per-class aggregation run as a single power-of-two block sum whose
results land at slots c*k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelFormatError
from .svm import MAX_SCALE_BITS, next_pow2


class TransformedLeaves(NamedTuple):
    """Score coefficients: one tree's integers, or one column per table."""

    l1: object
    l2: object
    l3: object
    l4: object


def transform_leaves(leaves) -> TransformedLeaves:
    """Change of basis from path leaves c1..c4 to score coefficients l1..l4,
    for one tree's four leaves or column-wise for a (trees, 4) table."""
    c1, c2, c3, c4 = np.asarray(leaves, dtype=np.int64).T
    return TransformedLeaves(c1 - c2, c2 - c4, c4 - c3, c4)


def tree_score_clear(z, tl: TransformedLeaves) -> int:
    """The simplified score polynomial on comparison bits."""
    z1, z2, z3 = z
    return (z1 - 1) * tl.l3 * z3 + (z2 * tl.l1 + tl.l2) * z1 + tl.l4


def route(values, splits) -> np.ndarray:
    """Leaf index of every tree, from ternary node values and split codes,
    both (..., 3) in (root, left, right) order over any leading axes.  A
    node's bit is value < threshold = 0.5 - y, which for an integer value
    is ``value <= -y``: the bits ``compare_clear`` computes."""
    z = np.asarray(values) <= -np.asarray(splits)
    return np.where(z[..., 0], 1 - z[..., 1], 3 - z[..., 2])


def check_feature_table(features, trees: int, num_features: int) -> None:
    """The one rule for a (root, left, right) feature table, an ensemble's
    or a layout's: int64 (trees, 3), every index in 0..num_features - 1,
    and num_features < 2^63 so that the count fits int64 too."""
    _check_table(features, "tree features", (trees, 3))
    if not (num_features < 2**63 and features.min() >= 0 and features.max() < num_features):
        raise ModelFormatError(f"tree feature indices must lie in 0..{num_features - 1}, "
                               "with a feature count below 2^63")


def _check_table(table, what: str, shape: tuple) -> None:
    if not (isinstance(table, np.ndarray) and table.dtype == np.int64 and table.shape == shape):
        raise ModelFormatError(f"{what} must be an int64 {shape} table (class-major, padded)")


def _worst_class_sum(leaves):
    """Largest per-class sum of each tree's largest |leaf| over a
    (classes, trees, 4) table: a bound on every class score."""
    return np.abs(leaves).max(axis=2).sum(axis=1).max()


@dataclass(frozen=True, eq=False)
class Ensemble:
    """s*k depth-2 trees as three int64 tables, one row per tree, class-major
    and padded, with a shared fixed-point scale.  ``Ensemble.quantize``
    builds one from real leaves; its worst-case class sum stays below 2^62."""

    num_classes: int
    trees_per_class: int
    num_features: int
    scale_bits: int
    features: np.ndarray  # (T, 3) (root, left, right) feature indices
    splits: np.ndarray  # (T, 3) split codes y, 1 for threshold -0.5
    leaves: np.ndarray  # (T, 4) fixed-point leaf scores c1..c4

    def __post_init__(self):
        s, k = self.num_classes, self.trees_per_class
        if s < 1:
            raise ModelFormatError("ensemble needs at least one class")
        if k < 1 or k & (k - 1):
            raise ModelFormatError(f"trees per class must be a power of two, got {k}")
        _check_table(self.splits, "ensemble splits", (s * k, 3))
        _check_table(self.leaves, "ensemble leaves", (s * k, 4))
        check_feature_table(self.features, s * k, self.num_features)
        if not np.isin(self.splits, (0, 1)).all():
            raise ModelFormatError("tree split codes must lie in {0, 1}")

    @classmethod
    def quantize(cls, num_classes: int, num_features: int, scale_bits: int,
                 features, splits, leaves) -> Ensemble:
        """The ensemble of unpadded class-major tables (the same count of
        trees per class) with real leaves: leaves are rounded at
        2^scale_bits and each class is padded with zero-leaf trees to a
        power-of-two count.  The worst-case class sum must stay below 2^62,
        checked in float64 before the int64 cast, so every aggregate fits
        int64."""
        if not 0 <= scale_bits <= MAX_SCALE_BITS:
            raise ModelFormatError(f"scale_bits out of range: {scale_bits}")
        s, k = num_classes, len(leaves) // num_classes
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.round(np.asarray(leaves, dtype=np.float64) * float(1 << scale_bits))
            bound = _worst_class_sum(q.reshape(s, k, 4))
        if not bound < 2.0**62:  # nan and inf fail too
            raise ModelFormatError("leaves must be finite, their worst-case class sum below 2^62")
        k_padded = next_pow2(k)

        def padded(table):
            table = np.asarray(table).astype(np.int64).reshape(s, k, -1)
            return np.pad(table, ((0, 0), (0, k_padded - k), (0, 0))).reshape(s * k_padded, -1)

        return cls(s, k_padded, num_features, scale_bits, padded(features), padded(splits), padded(q))

    @property
    def quant_scale(self) -> int:
        return 1 << self.scale_bits

    def worst_case_aggregate(self) -> int:
        """Largest possible |class sum|, used to bound the plaintext modulus."""
        s, k = self.num_classes, self.trees_per_class
        return int(_worst_class_sum(self.leaves.reshape(s, k, 4)))


def tree_scores_encrypted(backend, zs, l_streams, ek):
    """Slot-wise tree scores with public leaf streams.

    ``zs`` holds the comparison-bit ciphertexts z1, z2, z3 of the root, left
    and right streams, and ``l_streams`` four packed plaintexts l1..l4; slot
    t of each refers to tree t.  Evaluates the factored form
    z1*(z2*l1 + z3*l3 + l2) - z3*l3 + l4: r = z3*l3 is computed once and
    used twice, and the single ``mul_ct`` (z1 times the bracket) consumes
    the one multiplicative level.
    """
    z1, z2, z3 = zs
    l1, l2, l3, l4 = l_streams
    r = backend.mul_pt(z3, l3)
    u = backend.add_pt(backend.add_ct(backend.mul_pt(z2, l1), r), l2)
    return backend.add_pt(backend.sub_ct(backend.mul_ct(z1, u, ek), r), l4)


def class_sums(backend, scores, trees_per_class: int, num_classes: int, ek):
    """Per-class block sums over a class-major score stream.

    After this, slot c*k decrypts to the summed score of class c (for the
    classes present in this ciphertext block).
    """
    k = trees_per_class
    if k < 1 or k & (k - 1):
        raise ModelFormatError(f"trees per class must be a power of two, got {k}")
    if num_classes * k > backend.params.slot_count:
        raise ModelFormatError(
            f"{num_classes}x{k} trees exceed {backend.params.slot_count} slots; "
            "evaluate per block and combine"
        )
    return backend.sum_slots(scores, k, ek)
