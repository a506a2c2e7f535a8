"""One-vs-all linear SVM inference over a packed encrypted feature vector.

Ternary features ride unscaled in slots 0..d-1 of one ciphertext.  All class
scores come from one diagonal matrix-vector product (Halevi-Shoup, in
Gazelle's hybrid form): with g = next_pow2(s) and W zero-padded to g x N,

    z = sum_{k<g} rotate(x * plane_k, k),   plane_k[n] = W[(n - k) mod g, n]

evaluated baby-step giant-step.  With b = 2^floor(log2(g) / 2) and
k = j*b + i, rotate(x * p, j*b + i) = rotate(rotate(x, i) * rotate(p, i), j*b)
slot by slot, so the server rotates x by 1..b-1 (the baby steps, each one
power-of-two rotation of an earlier baby), multiplies them by planes that
were pre-rotated by i within each row when encoded, and sums the g/b inner
sums as a binary tree of rotations by b, 2b, ..., g/2 (the giant steps).
The row fold's steps >= g, ending with the row swap when d > N/2, then leave
W_c . x in slot c; it is one ``backend.fold``, which rounds c0 once for the
whole chain.  One bias plaintext adds b_c there.  Every step is a power of
two, so the default Galois keys suffice.  A keyswitch adds less noise than a
fresh encryption holds, so rotating x before the multiply costs at most about
a bit: at svm-d1 with 11 classes the output keeps 57-58 bits (56-57 without
baby steps).  Per sample: g plaintext multiplies, (b - 1) + (g/b - 1) +
log2(N/2g) rotations (13 at 11 classes and d = 2048) and one output
ciphertext, switched to the preset's output primes (``mod_switch``).  The
planes and the bias are encoded once per model and backend.

Weights and biases are both quantized at round(value * 2^scale_bits);
features are integers, so products and biases share one scale and decoding
divides by it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelFormatError
from .scheme import decrypt_scores, fold_steps

# Largest fixed-point scale a model file or a score manifest may declare.
MAX_SCALE_BITS = 40


def next_pow2(x: int) -> int:
    return 1 << max(0, x - 1).bit_length() if x > 1 else 1


def baby_steps(g: int) -> int:
    """Baby-step count b = 2^floor(log2(g) / 2) for g diagonals (a power of two)."""
    return 1 << (g.bit_length() - 1) // 2


@dataclass(frozen=True)
class SvmModel:
    """Quantized one-vs-all linear model: s weight rows and biases."""

    num_classes: int
    num_features: int
    scale_bits: int
    weights: np.ndarray  # (s, d) int64, fixed point
    bias: np.ndarray  # (s,) int64, fixed point
    # backend -> (planes, bias plaintext), filled by encoded_planes
    _encoded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_classes < 1 or self.num_features < 1:
            raise ModelFormatError("model needs at least one class and one feature")
        if self.weights.shape != (self.num_classes, self.num_features):
            raise ModelFormatError(
                f"weight matrix shape {self.weights.shape} does not match "
                f"({self.num_classes}, {self.num_features})"
            )
        if self.bias.shape != (self.num_classes,):
            raise ModelFormatError("bias length must equal the class count")

    @property
    def quant_scale(self) -> int:
        return 1 << self.scale_bits

    def worst_case_aggregate(self) -> int:
        """Largest possible |confidence| over ternary inputs."""
        return int(
            (np.abs(self.weights).sum(axis=1) + np.abs(self.bias)).max()
        )


def quantize_model(weights, bias, scale_bits: int, plaintext_modulus: int | None = None) -> SvmModel:
    """Round a real-valued model into fixed point at 2^scale_bits.

    When ``plaintext_modulus`` is given, rejects models whose worst-case
    aggregate could wrap mod t, reporting the minimum modulus needed.
    """
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    if w.ndim != 2 or b.ndim != 1:
        raise ModelFormatError("weights must be 2-d and bias 1-d")
    if not 0 <= scale_bits <= MAX_SCALE_BITS:
        raise ModelFormatError(f"scale_bits out of range: {scale_bits}")
    scale = float(1 << scale_bits)
    # a bound on every |W.x + b|, so that int64 holds the model and its
    # aggregates exactly; nan and inf (also from overflow) fail it too
    with np.errstate(over="ignore"):
        w_q, b_q = np.round(w * scale), np.round(b * scale)
        bound = np.abs(w_q).sum(axis=1).max(initial=0) + np.abs(b_q).max(initial=0)
    if not bound < 2.0**62:
        raise ModelFormatError("weights and biases must be finite, their aggregate below 2^62")
    model = SvmModel(
        num_classes=w.shape[0],
        num_features=w.shape[1],
        scale_bits=scale_bits,
        weights=w_q.astype(np.int64),
        bias=b_q.astype(np.int64),
    )
    if plaintext_modulus is not None:
        check_aggregate_bound(model.worst_case_aggregate(), plaintext_modulus)
    return model


def check_aggregate_bound(aggregate: int, plaintext_modulus: int) -> None:
    """Reject aggregates that could wrap around the plaintext modulus."""
    if 2 * aggregate >= plaintext_modulus:
        raise ModelFormatError(
            f"worst-case aggregate {aggregate} needs plaintext modulus > "
            f"{2 * aggregate}, but parameters provide {plaintext_modulus}"
        )


def svm_scores_clear(model: SvmModel, sample) -> np.ndarray:
    """Exact fixed-point confidences W.x + b for a ternary sample."""
    x = np.asarray(sample, dtype=np.int64)
    if x.shape != (model.num_features,):
        raise ModelFormatError(
            f"sample length {x.shape} does not match {model.num_features} features"
        )
    return model.weights @ x + model.bias


def encoded_planes(backend, model: SvmModel) -> tuple[list, object]:
    """The model's g diagonal planes and its bias as ``backend`` plaintexts,
    encoded on the first call per backend and cached on the model."""
    cached = model._encoded.get(backend)
    if cached is not None:
        return cached
    n, row = backend.params.slot_count, backend.params.rotation_group_size
    if model.num_features > n:
        raise ModelFormatError(
            f"{model.num_features} features exceed the {n} slots of one ciphertext "
            f"(multi-ciphertext splitting not supported)"
        )
    if model.num_classes > row:
        raise ModelFormatError(
            f"{model.num_classes} classes exceed the {row} slots of a rotation row"
        )
    g = next_pow2(model.num_classes)
    w = np.zeros((g, n), dtype=np.int64)
    w[: model.num_classes, : model.num_features] = model.weights
    b, cols = baby_steps(g), np.arange(n)
    # plane k = j*b + i, pre-rotated left by i within each row
    planes = []
    for k in range(g):
        sh = cols - cols % row + (cols + k % b) % row
        planes.append(backend.encode(w[(sh - k) % g, sh]))
    # setdefault: threads racing on a cold cache all get the first entry
    return model._encoded.setdefault(backend, (planes, backend.encode(model.bias)))


def infer_encrypted(backend, ct_x, model: SvmModel, ek) -> list:
    """The one confidence ciphertext, switched for download; slot c holds
    class c.

    ct_x must carry the ternary features in slots 0..d-1; the zero-padded
    planes cancel whatever the other slots hold.

    Unlike the tree modes, the switch stays last, after the row fold and
    the bias: a switched ciphertext takes no plaintext, so switching before
    the fold would need the bias scaled by q' or added before the fold, and
    the second changes every slot past the classes.  The fold would gain one
    row of 10 per keyswitch step at svm-d1 (k' + L = 9 for K + L = 10).
    """
    planes, bias_pt = encoded_planes(backend, model)
    b = baby_steps(len(planes))
    babies = [ct_x]
    for i in range(1, b):
        babies.append(backend.rotate(babies[i & (i - 1)], i & -i, ek))
    terms = []
    for j in range(0, len(planes), b):
        inner = backend.mul_pt(babies[0], planes[j])
        for i in range(1, b):
            inner = backend.add_ct(inner, backend.mul_pt(babies[i], planes[j + i]))
        terms.append(inner)
    step = b
    while len(terms) > 1:
        terms = [backend.add_ct(a, backend.rotate(c, step, ek))
                 for a, c in zip(terms[::2], terms[1::2])]
        step *= 2
    z = terms[0]
    row = backend.params.rotation_group_size
    steps = [step for step in fold_steps(row) if step >= len(planes)]
    z = backend.fold(z, steps, ek, swap=model.num_features > row)
    return [backend.mod_switch(backend.add_pt(z, bias_pt))]


def confidence_integers(backend, sk, cts, model: SvmModel) -> np.ndarray:
    """Class confidences as signed fixed-point integers (class c at slot c)."""
    return decrypt_scores(backend, sk, cts, [(0, c) for c in range(model.num_classes)])
