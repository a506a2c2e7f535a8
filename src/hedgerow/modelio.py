"""Model and dataset ingestion, slot layouts, and synthetic generators.

File formats (all diffable and hand-writable):

* Ensemble JSON: ``{classes, trees_per_class, features, scale_bits,
  trees: [{feat: [3 ints], thresh: [3 of +-0.5], leaves: [4 reals]}, ...]}``
  in class-major order.  Loading reads each field of every tree as one
  column and normalizes: thresholds become split codes, leaves are
  quantized at 2^scale_bits, and each class is padded with zero-leaf trees
  to a power-of-two count (``Ensemble.quantize``).  A model whose
  worst-case class sum reaches 2^62, or whose feature indices int64 cannot
  hold, is refused.
* SVM JSON: ``{classes, features, scale_bits, weights (row-major), bias}``.
* Dataset CSV: headerless integers in -2..2, one sample per row, optional
  final label column selected by flag.
* Layout JSON: ``{slot_count, classes, trees_per_class, features,
  svm_features, tree_features: [[root, left, right], ...]}``, the public
  slot map a client packs by, with the trees class-major and padded.  Tree
  g sits at slot g mod trees_per_block of block g div trees_per_block in
  every stream, where a block holds as many whole classes as fit
  slot_count; ``FeatureLayout.scatter`` is the one place that applies this
  rule, for the client's planes and the server's alike.  Every count and
  index must be a JSON integer, each index below ``features`` < 2^63 as in
  an ensemble file.  Publishing it reveals which feature indices the model
  consults (the evaluation protocol leaks the same); no feature *values*
  are revealed.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .compare import encode_split
from .errors import ModelFormatError
from .svm import SvmModel, check_aggregate_bound, pack_features, quantize_model
from .trees import Ensemble, check_feature_table, route, transform_leaves

# The node streams, in the order of every plane table's stream axis, and
# the planes a client uploads per stream: [v <= 0] and [v = 0] of the
# ternary value v routed to each node (``compare``).
STREAMS = ("root", "left", "right")
PLANES = ("le0", "eq0")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Raw copy-number samples in -2..2 with optional class labels."""

    samples: np.ndarray  # (n, d) int64
    labels: np.ndarray | None = None  # (n,) int64

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise ModelFormatError("dataset must be a 2-d sample matrix")
        if self.samples.size and (self.samples.min() < -2 or self.samples.max() > 2):
            raise ModelFormatError("dataset values must lie in -2..2")
        if self.labels is not None:
            if self.labels.shape != (self.samples.shape[0],):
                raise ModelFormatError("label vector must match the sample count")
            if self.labels.size and self.labels.min() < 0:
                raise ModelFormatError("labels must be non-negative class indices")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def num_features(self) -> int:
        return self.samples.shape[1]


def normalize_samples(samples: np.ndarray) -> np.ndarray:
    """Vectorized copy-number normalization: sign() collapses -2..2 to ternary."""
    arr = np.asarray(samples, dtype=np.int64)
    if arr.size and (arr.min() < -2 or arr.max() > 2):
        raise ModelFormatError("copy-number states must lie in -2..2")
    return np.sign(arr)


def save_dataset(ds: Dataset, path) -> None:
    """The samples with their labels as the last column."""
    if ds.labels is None:
        raise ModelFormatError("dataset has no labels to write")
    np.savetxt(path, np.hstack([ds.samples, ds.labels[:, None]]), fmt="%d", delimiter=",")


def load_dataset(path, labeled: bool = False) -> Dataset:
    # ASCII only: numpy 2.4's loadtxt can segfault on code points above U+7FFFF
    try:
        with open(path, encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on a file without rows
            raw = np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2)
    except (ValueError, UserWarning) as exc:  # UnicodeDecodeError is a ValueError
        raise ModelFormatError(f"malformed dataset CSV: {exc}") from exc
    if labeled:
        if raw.shape[1] < 2:
            raise ModelFormatError("labeled dataset needs at least two columns")
        return Dataset(raw[:, :-1], raw[:, -1])
    return Dataset(raw, None)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ModelFormatError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    return doc


def is_int(value) -> bool:
    """A JSON integer.  ``json`` loads true/false as bool, a subclass of
    int, so ``isinstance`` would let them through."""
    return type(value) is int


def _reals(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers (never a bool or a string) as float64."""
    if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
        raise ModelFormatError(f"{what} must be a list of numbers")
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError as exc:
        raise ModelFormatError(f"{what}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"{what} must be finite")
    return arr


def _flat_rows(rows, width: int, what: str) -> list:
    """A JSON list of ``width``-value lists, concatenated in row order."""
    if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {width}):
        raise ModelFormatError(f"{what} must be a list of {width}-value lists")
    return list(chain.from_iterable(rows))


def _feature_table(rows) -> np.ndarray:
    """A JSON list of (root, left, right) integer triples as an int64
    (trees, 3) table; an ensemble's and a layout's are read alike."""
    flat = _flat_rows(rows, 3, "tree feature indices")
    if not set(map(type, flat)) <= {int}:
        raise ModelFormatError("tree feature indices must be integers")
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 3)
    except OverflowError as exc:
        raise ModelFormatError(f"tree feature index beyond int64: {exc}") from exc


def load_ensemble(path, plaintext_modulus: int | None = None) -> Ensemble:
    """Load and normalize a tree-ensemble model file.

    Normalization encodes thresholds as split codes, quantizes leaves, and
    pads each class to a power-of-two tree count with zero-leaf trees
    (``Ensemble.quantize``), all column-wise.  With a plaintext modulus
    given, rejects models whose class sums could wrap.
    """
    doc = read_json(path)
    classes, k_raw, scale_bits = (doc.get(k) for k in ("classes", "trees_per_class", "scale_bits"))
    raw_trees = doc.get("trees")
    if not all(map(is_int, (classes, k_raw, scale_bits))):
        raise ModelFormatError("ensemble classes, trees_per_class and scale_bits must be integers")
    if not (isinstance(raw_trees, list) and set(map(type, raw_trees)) <= {dict}):
        raise ModelFormatError("ensemble trees must be a list of objects")
    if classes < 1 or k_raw < 1:
        raise ModelFormatError("ensemble needs positive class and tree counts")
    if len(raw_trees) != classes * k_raw:
        raise ModelFormatError(f"expected {classes * k_raw} trees, file holds {len(raw_trees)}")

    feat, thresh, leaf = (list(map(dict.get, raw_trees, repeat(key)))
                          for key in ("feat", "thresh", "leaves"))
    features = _feature_table(feat)
    thresholds = _reals(_flat_rows(thresh, 3, "tree thresholds"), "thresholds")
    splits = encode_split(thresholds).reshape(-1, 3)
    leaves = _reals(_flat_rows(leaf, 4, "tree leaves"), "leaves").reshape(-1, 4)

    num_features = doc.get("features", int(features.max()) + 1)
    if not is_int(num_features):
        raise ModelFormatError(f"ensemble features={num_features!r} is not an integer")
    ens = Ensemble.quantize(classes, num_features, scale_bits, features, splits, leaves)
    if plaintext_modulus is not None:
        check_aggregate_bound(ens.worst_case_aggregate(), plaintext_modulus)
    return ens


def save_ensemble(ens: Ensemble, path) -> None:
    """Write the normalized ensemble; loading it back is a fixed point."""
    thresh = np.where(ens.splits == 1, -0.5, 0.5).tolist()
    leaves = (ens.leaves / float(ens.quant_scale)).tolist()
    doc = {
        "classes": ens.num_classes,
        "trees_per_class": ens.trees_per_class,
        "features": ens.num_features,
        "scale_bits": ens.scale_bits,
        "trees": [
            {"feat": f, "thresh": t, "leaves": c}
            for f, t, c in zip(ens.features.tolist(), thresh, leaves)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_svm(path, plaintext_modulus: int | None = None) -> SvmModel:
    doc = read_json(path)
    classes, features, scale_bits = (doc.get(k) for k in ("classes", "features", "scale_bits"))
    if not all(map(is_int, (classes, features, scale_bits))) or classes < 1 or features < 1:
        raise ModelFormatError("SVM classes and features must be positive integers, "
                               "scale_bits an integer")
    weights = _reals(doc.get("weights"), "SVM weights")
    if weights.size != classes * features:
        raise ModelFormatError(f"expected {classes * features} weights, file holds {weights.size}")
    bias = _reals(doc.get("bias"), "SVM bias")
    return quantize_model(weights.reshape(classes, features), bias, scale_bits, plaintext_modulus)


def save_svm(model: SvmModel, path) -> None:
    scale = float(model.quant_scale)
    doc = {
        "classes": model.num_classes,
        "features": model.num_features,
        "scale_bits": model.scale_bits,
        "weights": (model.weights / scale).reshape(-1).tolist(),
        "bias": (model.bias / scale).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# slot layout
# ---------------------------------------------------------------------------


# Layout JSON key -> FeatureLayout count field.
_LAYOUT_COUNTS = {
    "slot_count": "slot_count",
    "classes": "num_classes",
    "trees_per_class": "trees_per_class",
    "features": "num_features",
    "svm_features": "svm_features",
}


@dataclass(frozen=True, eq=False)
class FeatureLayout:
    """Public slot map: the ensemble's int64 (T, 3) table of (root, left,
    right) feature indices, bounded by ``check_feature_table`` as there.

    Tree g (class-major, padded) sits at slot g mod ``trees_per_block`` of
    block g div ``trees_per_block`` in every stream, so the layout stores
    no block, slot or stream of its own.  ``scatter`` is the one method
    that applies this rule to slot vectors.
    """

    slot_count: int
    num_classes: int
    trees_per_class: int
    num_features: int
    svm_features: int
    tree_features: np.ndarray  # (T, 3) (root, left, right) feature indices

    def __post_init__(self):
        for name in _LAYOUT_COUNTS.values():
            if getattr(self, name) < 1:
                raise ModelFormatError(f"layout {name} must be at least 1")
        k = self.trees_per_class
        if k & (k - 1) or k > self.slot_count:
            raise ModelFormatError(
                f"trees_per_class {k} is not a power of two <= {self.slot_count}"
            )
        if self.svm_features > self.slot_count:
            raise ModelFormatError(
                f"SVM vector of {self.svm_features} features exceeds {self.slot_count} slots"
            )
        check_feature_table(self.tree_features, self.num_classes * k, self.num_features)

    @property
    def trees_per_block(self) -> int:
        # a block holds whole classes: k is a power of two <= N, so class
        # blocks always align with rotation rows
        k = self.trees_per_class
        return min(self.num_classes * k, (self.slot_count // k) * k)

    @property
    def num_blocks(self) -> int:
        return -(-len(self.tree_features) // self.trees_per_block)

    @property
    def entries(self) -> tuple:
        """(block, stream, slot, feature_index) of every tree node."""
        tpb = self.trees_per_block
        return tuple(
            (g // tpb, stream, g % tpb, feature)
            for g, feats in enumerate(self.tree_features.tolist())
            for stream, feature in zip(STREAMS, feats)
        )

    @property
    def tree_digest(self) -> str:
        """SHA-256 of the tree slot map (not ``svm_features``: the client's --svm sets it)."""
        doc = [self.slot_count, self.num_classes, self.trees_per_class, self.tree_features.tolist()]
        return hashlib.sha256(json.dumps(doc, default=int).encode("ascii")).hexdigest()

    @property
    def class_positions(self) -> list[tuple[int, int]]:
        """(block, slot) where each class's summed score lands."""
        k, tpb = self.trees_per_class, self.trees_per_block
        return [divmod(c * k, tpb) for c in range(self.num_classes)]

    def scatter(self, rows) -> np.ndarray:
        """Slot vectors from one row per tree (layout order), shape
        (blocks, columns, slot_count): column j of tree g's row sits at the
        tree's slot, and every slot that holds no tree is 0."""
        rows = np.asarray(rows, dtype=np.int64)
        tpb, blocks = self.trees_per_block, self.num_blocks
        padded = np.zeros((blocks * tpb, rows.shape[1]), dtype=np.int64)
        padded[: len(rows)] = rows
        out = np.zeros((blocks, rows.shape[1], self.slot_count), dtype=np.int64)
        out[:, :, :tpb] = padded.reshape(blocks, tpb, -1).transpose(0, 2, 1)
        return out


def build_layout(ens: Ensemble, slot_count: int, svm_features: int | None = None) -> FeatureLayout:
    """Slot layout for an ensemble on a given slot capacity.

    A block holds as many whole classes as fit the slots, so no class ever
    straddles blocks; larger ensembles spill into further blocks.  The SVM
    vector defaults to the ensemble's features, capped at the slot count:
    trees read only the features they name, so an ensemble over more
    features than slots still fits.
    """
    if ens.trees_per_class > slot_count:
        raise ModelFormatError(
            f"a class of {ens.trees_per_class} trees does not fit {slot_count} slots; "
            "splitting one class across ciphertexts is not supported"
        )
    return FeatureLayout(
        slot_count=slot_count,
        num_classes=ens.num_classes,
        trees_per_class=ens.trees_per_class,
        num_features=ens.num_features,
        svm_features=min(ens.num_features, slot_count) if svm_features is None else svm_features,
        tree_features=ens.features,
    )


def save_layout(layout: FeatureLayout, path) -> None:
    doc = {key: getattr(layout, name) for key, name in _LAYOUT_COUNTS.items()}
    doc["tree_features"] = layout.tree_features.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_layout(path) -> FeatureLayout:
    doc = read_json(path)
    counts = {name: doc.get(key) for key, name in _LAYOUT_COUNTS.items()}
    if not all(map(is_int, counts.values())):
        raise ModelFormatError("layout counts must be integers")
    return FeatureLayout(**counts, tree_features=_feature_table(doc.get("tree_features")))


# ---------------------------------------------------------------------------
# client packing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientBundle:
    """Packed slot vectors for one sample: the node planes plus the SVM vector.

    ``xgb_planes`` is an int64 (blocks, 3, 2, slot_count) table: ``[b, i]``
    is the (le0, eq0) pair of ``STREAMS[i]`` in block b, the bits
    [v <= 0] and [v = 0] of each node's ternary value v.
    """

    xgb_planes: np.ndarray  # (blocks, 3, 2, N): per stream, the le0 and eq0 planes
    svm_vector: np.ndarray


def pack_client_input(sample_raw, layout: FeatureLayout) -> ClientBundle:
    """Normalize a raw sample, scatter its le0 and eq0 planes per the layout,
    and pack its first ``svm_features`` values by ``svm.pack_features``."""
    sample = np.asarray(sample_raw, dtype=np.int64)
    if sample.ndim != 1:
        raise ModelFormatError("expected a single sample row")
    needed = max(layout.num_features, layout.svm_features)
    if sample.size < needed:
        raise ModelFormatError(
            f"sample has {sample.size} features, layout consults {needed}"
        )
    ternary = normalize_samples(sample)

    # a slot that holds no tree reads v = 0 and sets both planes: its split
    # code and leaves are 0, so its comparison bit adds nothing to a class sum
    values = layout.scatter(ternary[layout.tree_features])
    planes = np.stack((values <= 0, values == 0), axis=2).astype(np.int64)
    return ClientBundle(planes, pack_features(ternary[: layout.svm_features], layout.slot_count))


def ensemble_slot_streams(ens: Ensemble, layout: FeatureLayout) -> np.ndarray:
    """Server-side model planes: an int64 (blocks, 7, slot_count) table
    whose rows are the split codes y of ``STREAMS`` (y_root, y_left,
    y_right), then the leaf streams l1, l2, l3, l4.

    Slots beyond the last tree keep zero leaves, so whatever comparison bits
    land there contribute nothing to class sums.
    """
    return layout.scatter(np.column_stack((ens.splits, *transform_leaves(ens.leaves))))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

_STATE_PROBS = (0.10, 0.15, 0.50, 0.15, 0.10)  # -2..2, mass concentrated at 0
_LABEL_NOISE = 0.10


def _class_leaves(ternary_matrix: np.ndarray, features, splits, leaves, k: int):
    """Per class of k class-major trees, the (n, k) leaves they route every
    sample row to; node values are int8, so each (n, k, 3) gather is small."""
    ternary = np.asarray(ternary_matrix, dtype=np.int8)
    for c in range(len(leaves) // k):
        trees = slice(c * k, (c + 1) * k)
        idx = route(ternary[:, features[trees]], splits[trees])
        yield leaves[trees][np.arange(k), idx]


def ensemble_scores_clear_batch(ens: Ensemble, ternary_matrix: np.ndarray) -> np.ndarray:
    """Fixed-point class sums for every sample row, shape (n, s)."""
    routed = _class_leaves(ternary_matrix, ens.features, ens.splits, ens.leaves, ens.trees_per_class)
    return np.column_stack([class_leaves.sum(axis=1) for class_leaves in routed])


def gen_synthetic(seed: int, s: int, k: int, d: int, n_samples: int):
    """Deterministic synthetic ensemble, linear model, and labeled dataset.

    Each class owns a few marker features; half of its trees score a bonus
    when a marker is amplified, and samples are drawn with their true
    class's markers mostly amplified.  That separates true-class sums from
    the noise band across samples, so pooled one-vs-rest AUC is driven by
    the injected label noise rather than by cross-sample score drift.

    Labels are the float ensemble's own argmax predictions with 10% of them
    flipped to a random other class, so downstream accuracy sits near 0.9
    and micro-averaged AUC lands strictly below 1.  The linear model is the
    ensemble's per-feature linear skeleton (conditional-mean effects), kept
    correlated with the same labels.

    Returns:
        (Ensemble, SvmModel, Dataset) with the ensemble already normalized.
    """
    if min(s, k, d, n_samples) < 1:
        raise ModelFormatError("synthetic dimensions must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), s, k, d, n_samples]))
    scale_bits = 20
    marker_bonus = 0.8

    feats = rng.integers(0, d, size=(s * k, 3))
    splits = rng.integers(0, 2, size=(s * k, 3))  # y bits directly
    leaves = np.round(rng.normal(0.0, 0.25, size=(s * k, 4)), 6)

    # class markers: the first k // 2 trees of class c pay marker_bonus iff
    # their root's feature, one of c's markers, is amplified (root split
    # +0.5 routes x=+1 to the right leaves)
    markers_per_class = max(1, min(4, d // (2 * s))) if d >= s else 0
    marker_features = np.arange(s * markers_per_class).reshape(s, markers_per_class)
    if markers_per_class:
        marker_trees = (np.arange(s)[:, None] * k + np.arange(k // 2)).ravel()
        picks = rng.integers(0, markers_per_class, marker_trees.size)
        feats[marker_trees, 0] = marker_features[marker_trees // k, picks]
        splits[marker_trees, 0] = 0  # threshold +0.5
        leaves[marker_trees] = (0.0, 0.0, marker_bonus, marker_bonus)

    samples = rng.choice(np.arange(-2, 3), size=(n_samples, d), p=_STATE_PROBS).astype(np.int64)
    if markers_per_class:
        true_class = rng.integers(0, s, n_samples)
        amplify = rng.random((n_samples, markers_per_class)) < 0.9
        values = rng.choice([1, 2], size=(n_samples, markers_per_class))
        rows, cols = np.arange(n_samples)[:, None], marker_features[true_class]
        samples[rows, cols] = np.where(amplify, values, samples[rows, cols])
    ternary = np.sign(samples)

    # float class scores of the raw ensemble, each summed in tree order (a
    # copy of the running sum's last column, so no running sum stays alive)
    routed = _class_leaves(ternary, feats, splits, leaves, k)
    float_scores = np.column_stack([np.cumsum(v, axis=1)[:, -1].copy() for v in routed])

    labels = np.argmax(float_scores, axis=1).astype(np.int64)
    flip = rng.random(n_samples) < _LABEL_NOISE
    if s > 1:
        offsets = rng.integers(1, s, size=n_samples)
        labels[flip] = (labels[flip] + offsets[flip]) % s

    weights, bias = _linear_skeleton(d, k, feats, splits, leaves)
    ens = Ensemble.quantize(s, d, scale_bits, feats, splits, leaves)
    model = quantize_model(weights, bias, scale_bits)
    return ens, model, Dataset(samples, labels)


def _linear_skeleton(d: int, k: int, feats, splits, leaves):
    """Per-feature linear skeleton of the raw ensemble: conditional-mean
    effects under a uniform ternary input model.  Trees are probed on every
    ternary assignment of their m distinct features (sorted, the first
    varying slowest), grouped by m; the means are added in tree order, so
    every float sum is the one a tree-by-tree walk makes."""
    trees = len(leaves)
    ordered = np.sort(feats, axis=1)
    new = np.diff(ordered, axis=1, prepend=-1) != 0  # first of each distinct feature
    distinct = new.sum(axis=1)
    means, effects = np.zeros(trees), np.zeros((trees, 3))
    for m in (1, 2, 3):
        group = np.flatnonzero(distinct == m)
        grid = np.array(np.meshgrid(*[(-1, 0, 1)] * m, indexing="ij")).reshape(m, -1)
        # node j reads the grid row of its feature among the tree's distinct ones
        rows = (feats[group][:, :, None] == ordered[group][new[group]].reshape(-1, 1, m)).argmax(2)
        values = grid[rows].transpose(0, 2, 1)
        scores = np.take_along_axis(leaves[group], route(values, splits[group][:, None]), axis=1)
        means[group] = scores.mean(axis=1)
        # contiguous rows, so each mean sums its probes in the 1-d order
        hi, lo = (np.ascontiguousarray(scores[:, np.nonzero(grid == v)[1].reshape(m, -1)])
                  .mean(axis=2) for v in (1, -1))
        effects[group, :m] = (hi - lo) / 2.0
    # bincount adds in index order: the (class, feature) cell of each effect
    held = np.arange(3) < distinct[:, None]
    cells = np.nonzero(held)[0] // k * d + ordered[new]
    weights = np.bincount(cells, effects[held], minlength=trees // k * d).reshape(-1, d)
    return weights, np.bincount(np.arange(trees) // k, means)
