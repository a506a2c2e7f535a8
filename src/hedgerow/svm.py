"""One-vs-all linear SVM inference over a packed encrypted feature vector.

Ternary features ride unscaled in one ciphertext, packed by
``pack_features``: row 0 holds x in slots 0..d-1 and, for d <= N/2, row 1
holds x shifted left by one slot, v[N/2 + n] = x[(n + 1) mod N/2]; a wider x
spans both rows.  All class scores come from one diagonal matrix-vector
product (Halevi-Shoup, in Gazelle's hybrid form): with g = next_pow2(s) and
W zero-padded to g x N,

    z = sum_{k<g} rotate(x * plane_k, k),   plane_k[n] = W[(n - k) mod g, n].

With x's shift in row 1, rotate(x, 2j + 1) in row 0 is rotate(x, 2j) in
row 1, so the server evaluates only the g/2 even shifts k = 2j (the shift
stride is 2, and g = max(2, next_pow2(s))): row 0 of plane j carries the
even diagonal 2j, row 1 the odd diagonal 2j + 1, and the two rows' partial
sums meet in the row swap.  When d > N/2 the stride is 1 and row 1 holds
x's second half; the circuit is the same.  The g/stride products are
evaluated baby-step giant-step.  With b = 2^floor(log2(g/stride) / 2) and
j = J*b + i, rotate(x * p, stride*j) = rotate(rotate(x, stride*i) *
rotate(p, stride*i), stride*J*b) slot by slot, so the server rotates x by
stride*1..stride*(b-1) (the baby steps, each one power-of-two rotation of an
earlier baby), multiplies them by planes that were pre-rotated within each
row when encoded, adds the bias plaintext (b_c at slot c) to the unrotated
inner sum, and sums the inner sums as a binary tree of rotations by
stride*b, 2*stride*b, ..., g/2 (the giant steps).  The sum is then switched
to the preset's output primes (``mod_switch``), and one ``backend.fold`` at
those primes, its steps >= g followed by the row swap, leaves W_c . x + b_c
in slot c.  Every step is a power of two, so the default Galois keys
suffice.  At svm-d1 with 11 classes and d = 2048: 8 plaintext multiplies, 1
baby and 3 giant rotations at all primes, and a fold of 7 rotations and the
swap at k' primes; the output keeps 58 bits.  The planes and the bias are
encoded once per model and backend.

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

# The bundle manifest's ``svm_packing``: uploads packed by ``pack_features``.
# Bundles packed before it left row 1 empty at d <= N/2, which this circuit
# would read as x's shift, so the server refuses a bundle without it.
PACKING = "row1-shift1"


def next_pow2(x: int) -> int:
    return 1 << max(0, x - 1).bit_length() if x > 1 else 1


def baby_steps(g: int) -> int:
    """Baby-step count b = 2^floor(log2(g) / 2) for g diagonals (a power of two)."""
    return 1 << (g.bit_length() - 1) // 2


def shift_stride(num_features: int, slot_count: int) -> int:
    """2 when row 1 holds x shifted by one slot (d <= N/2), else 1."""
    return 2 if num_features <= slot_count // 2 else 1


def slot_features(num_features: int, slot_count: int) -> np.ndarray:
    """The feature index each slot of a packed upload holds: n in row 0
    and, for d <= N/2, (n + 1) mod N/2 at slot N/2 + n of row 1; the slot
    itself when x spans both rows."""
    slots, row = np.arange(slot_count), slot_count // 2
    if shift_stride(num_features, slot_count) == 2:
        return (slots + slots // row) % row
    return slots


def pack_features(x, slot_count: int) -> np.ndarray:
    """The client's SVM slot vector for the d features x: v = x[slot_features],
    zero wherever the index reaches d.  It depends on d and N only."""
    x = np.asarray(x, dtype=np.int64)
    padded = np.zeros(slot_count, dtype=np.int64)
    padded[: x.size] = x
    return padded[slot_features(x.size, slot_count)]


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
    """The model's g/stride diagonal planes and its bias as ``backend``
    plaintexts, encoded on the first call per backend and cached on the
    model."""
    cached = model._encoded.get(backend)
    if cached is not None:
        return cached
    n, row = backend.params.slot_count, backend.params.rotation_group_size
    d, s = model.num_features, model.num_classes
    if d > n:
        raise ModelFormatError(
            f"{d} features exceed the {n} slots of one ciphertext "
            f"(multi-ciphertext splitting not supported)"
        )
    if s > row:
        raise ModelFormatError(f"{s} classes exceed the {row} slots of a rotation row")
    stride = shift_stride(d, n)
    g = max(stride, next_pow2(s))
    w = np.zeros((g, n), dtype=np.int64)
    w[:s, :d] = model.weights
    b, cols, features = baby_steps(g // stride), np.arange(n), slot_features(d, n)
    # plane j = J*b + i: diagonal stride*j of the slots' features, pre-rotated
    # left by stride*i within each row
    planes = []
    for j in range(g // stride):
        sh = cols - cols % row + (cols + stride * (j % b)) % row
        planes.append(backend.encode(w[(sh - stride * j) % g, features[sh]]))
    # setdefault: threads racing on a cold cache all get the first entry
    return model._encoded.setdefault(backend, (planes, backend.encode(model.bias)))


def infer_encrypted(backend, ct_x, model: SvmModel, ek) -> list:
    """The one confidence ciphertext, at the preset's output primes; slot c
    holds class c.

    ct_x must hold ``pack_features`` of the d ternary features; the
    zero-padded planes cancel every slot whose feature index reaches d.  The
    sum is switched (``mod_switch``) after the giant steps, its last op that
    takes a plaintext, so the row fold and its row swap keyswitch mod q'P'
    (``HeBackend._galois``).
    """
    planes, bias_pt = encoded_planes(backend, model)
    stride = shift_stride(model.num_features, backend.params.slot_count)
    b = baby_steps(len(planes))
    babies = [ct_x]
    for i in range(1, b):
        babies.append(backend.rotate(babies[i & (i - 1)], stride * (i & -i), ek))
    terms = []
    for j in range(0, len(planes), b):
        inner = backend.mul_pt(babies[0], planes[j])
        for i in range(1, b):
            inner = backend.add_ct(inner, backend.mul_pt(babies[i], planes[j + i]))
        terms.append(inner)
    terms[0] = backend.add_pt(terms[0], bias_pt)
    step = stride * b
    while len(terms) > 1:
        terms = [backend.add_ct(a, backend.rotate(c, step, ek))
                 for a, c in zip(terms[::2], terms[1::2])]
        step *= 2
    # step is now g: the fold adds the row's slots g apart, then the other row
    steps = [s for s in fold_steps(backend.params.rotation_group_size) if s >= step]
    return [backend.fold(backend.mod_switch(terms[0]), steps, ek, swap=True)]


def confidence_integers(backend, sk, cts, model: SvmModel) -> np.ndarray:
    """Class confidences as signed fixed-point integers (class c at slot c)."""
    return decrypt_scores(backend, sk, cts, [(0, c) for c in range(model.num_classes)])
