"""Depth-2 boosted tree ensembles and their slot-parallel evaluation.

Trees are complete depth-2: a root and two children, each holding a feature
index and a split code, with four leaf scores held as fixed-point integers.
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

import numpy as np

from .errors import ModelFormatError


@dataclass(frozen=True)
class Depth2Tree:
    """One tree: (root, left, right) nodes and quantized leaf scores c1..c4."""

    features: tuple[int, int, int]
    splits: tuple[int, int, int]  # split codes y, 1 for threshold -0.5
    leaves: tuple[int, int, int, int]  # fixed-point integers

    def __post_init__(self):
        if len(self.features) != 3 or any(f < 0 for f in self.features):
            raise ModelFormatError(f"tree needs 3 non-negative feature indices, got {self.features}")
        if len(self.splits) != 3 or any(y not in (0, 1) for y in self.splits):
            raise ModelFormatError(f"tree needs 3 split codes in {{0,1}}, got {self.splits}")
        if len(self.leaves) != 4:
            raise ModelFormatError("tree needs exactly 4 leaf scores")


@dataclass(frozen=True)
class TransformedLeaves:
    l1: int
    l2: int
    l3: int
    l4: int


def transform_leaves(leaves) -> TransformedLeaves:
    """Change of basis from path leaves c1..c4 to score coefficients l1..l4."""
    c1, c2, c3, c4 = (int(c) for c in leaves)
    return TransformedLeaves(c1 - c2, c2 - c4, c4 - c3, c4)


def path_score_clear(z, leaves) -> int:
    """Sum of the four path terms; exactly one is active for bit-valued z."""
    z1, z2, z3 = z
    c1, c2, c3, c4 = (int(c) for c in leaves)
    return (
        z1 * z2 * c1
        + z1 * (1 - z2) * c2
        + (1 - z1) * z3 * c3
        + (1 - z1) * (1 - z3) * c4
    )


def tree_score_clear(z, tl: TransformedLeaves) -> int:
    """The simplified score polynomial on comparison bits."""
    z1, z2, z3 = z
    return (z1 - 1) * tl.l3 * z3 + (z2 * tl.l1 + tl.l2) * z1 + tl.l4


def route_leaf(z) -> int:
    """Index (0-based) of the leaf selected by the comparison bits."""
    z1, z2, z3 = z
    if z1:
        return 0 if z2 else 1
    return 2 if z3 else 3


@dataclass(frozen=True)
class Ensemble:
    """class-major list of s*k depth-2 trees with a shared fixed-point scale."""

    num_classes: int
    trees_per_class: int
    num_features: int
    scale_bits: int
    trees: tuple[Depth2Tree, ...]

    def __post_init__(self):
        s, k = self.num_classes, self.trees_per_class
        if s < 1:
            raise ModelFormatError("ensemble needs at least one class")
        if k < 1 or k & (k - 1):
            raise ModelFormatError(f"trees per class must be a power of two, got {k}")
        if len(self.trees) != s * k:
            raise ModelFormatError(
                f"expected {s * k} trees (class-major, padded), got {len(self.trees)}"
            )
        for tree in self.trees:
            if any(f >= self.num_features for f in tree.features):
                raise ModelFormatError(
                    f"tree feature index {max(tree.features)} out of range "
                    f"(model has {self.num_features} features)"
                )

    @property
    def quant_scale(self) -> int:
        return 1 << self.scale_bits

    def class_trees(self, c: int) -> tuple[Depth2Tree, ...]:
        k = self.trees_per_class
        return self.trees[c * k : (c + 1) * k]

    def worst_case_aggregate(self) -> int:
        """Largest possible |class sum|, used to bound the plaintext modulus."""
        worst = 0
        for c in range(self.num_classes):
            total = sum(max(abs(l) for l in t.leaves) for t in self.class_trees(c))
            worst = max(worst, total)
        return worst


@dataclass(frozen=True)
class NodeStreams:
    """Aligned per-tree comparison streams: slot t of each refers to tree t."""

    root: object
    left: object
    right: object


def tree_scores_encrypted(backend, zs: NodeStreams, l_streams, ek):
    """Slot-wise tree scores with public leaf streams.

    ``l_streams`` holds four packed plaintexts carrying tree t's l1..l4 at
    slot t.  Evaluates the factored form z1*(z2*l1 + z3*l3 + l2) - z3*l3 + l4:
    r = z3*l3 is computed once and used twice, and the single ``mul_ct``
    (z1 times the bracket) consumes the one multiplicative level.
    """
    l1, l2, l3, l4 = l_streams
    r = backend.mul_pt(zs.right, l3)
    u = backend.add_pt(backend.add_ct(backend.mul_pt(zs.left, l1), r), l2)
    return backend.add_pt(backend.sub_ct(backend.mul_ct(zs.root, u, ek), r), l4)


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


def predict_class(class_scores) -> int:
    """Argmax class index; ties break toward the lowest index."""
    arr = np.asarray(class_scores)
    if arr.size == 0:
        raise ModelFormatError("cannot predict from an empty score vector")
    return int(np.argmax(arr))
