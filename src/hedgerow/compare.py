"""Ternary feature codes, split codes, and the arithmetized comparison.

Features take values in {-1, 0, +1} and are one-hot coded as bits
(x2, x1, x0); node thresholds take values in {-0.5, +0.5} and are coded as
a single bit y (1 for -0.5).  A node test "feature < threshold" then
reduces to the paper's two-variable arithmetic form

    z = (1 - x0) * (x2 * (y - 1) - y) + 1

which needs neither x1 nor any comparison circuit.  ``compare_clear``
evaluates that form and is the oracle.  Because the code is one-hot, the
same form equals

    z = le0 - y * eq0,    le0 = [v <= 0] = 1 - x2,  eq0 = [v = 0] = x1

so the client uploads the planes le0 and eq0, and the encrypted
comparisons read the split code y as the model stores it: one product
and one subtraction, a plaintext multiply (no level) with a public split
code, a ciphertext-ciphertext product with an encrypted one.  A padding
slot (v = 0, y = 0) gives 1.  Smaller-than routes to the left child.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelFormatError

THRESHOLD_LOW = -0.5
THRESHOLD_HIGH = 0.5


@dataclass(frozen=True)
class FeatureCode:
    """One-hot code of a ternary feature: exactly one of x2, x1, x0 is set."""

    x2: int
    x1: int
    x0: int

    def __post_init__(self):
        bits = (self.x2, self.x1, self.x0)
        if any(b not in (0, 1) for b in bits) or sum(bits) != 1:
            raise ModelFormatError(f"feature code must be one-hot, got {bits}")


def encode_split(threshold):
    """Split code y: -0.5 -> 1, +0.5 -> 0, for one threshold or elementwise
    over an array of them.  Other thresholds are inadmissible."""
    t = np.asarray(threshold, dtype=np.float64)
    bad = t[(t != THRESHOLD_LOW) & (t != THRESHOLD_HIGH)]
    if bad.size:
        raise ModelFormatError(
            f"split threshold must be -0.5 or +0.5 after normalization, got {bad[0]}"
        )
    return (t == THRESHOLD_LOW).astype(np.int64)[()]


def compare_clear(code: FeatureCode, y: int) -> int:
    """The arithmetic comparison: 1 iff the coded feature is below the coded split."""
    return (1 - code.x0) * (code.x2 * (y - 1) - y) + 1


def compare_encrypted(backend, ct_le0, ct_eq0, y_plain, ek):
    """Slot-wise comparison with public split codes: slot i of ct_le0 /
    ct_eq0 holds [v <= 0] / [v = 0] of the feature routed to node-slot i,
    slot i of y_plain that node's split code, and the result decrypts to
    the comparison bit.  The plaintext multiply consumes no level and
    ``ek`` goes unused; both comparisons share one call shape."""
    return backend.sub_ct(ct_le0, backend.mul_pt(ct_eq0, y_plain))


def compare_encrypted_model(backend, ct_le0, ct_eq0, ct_y, ek):
    """Slot-wise comparison with encrypted split codes (one ct-ct product)."""
    return backend.sub_ct(ct_le0, backend.mul_ct(ct_eq0, ct_y, ek))
