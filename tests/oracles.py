"""Clear oracles and helpers that only the tests read: copy-number
normalization and feature codes, the boolean comparison, the path-sum and
routing forms of a tree's score, argmax prediction, the synthetic
ensemble's label agreement, Python-int base conversion, centred lifts and
rounded division of an RNS value, the negacyclic
transform's definition and product, and clearing an op tally."""

from math import prod

import numpy as np

from hedgerow import ModelFormatError
from hedgerow.compare import FeatureCode
from hedgerow.modelio import Dataset, ensemble_scores_clear_batch, normalize_samples
from hedgerow.ntt import NttPlan, root_of_unity
from hedgerow.ring import GarnerBasis
from hedgerow.trees import Ensemble


def normalize_copy_number(raw: int) -> int:
    """Collapse a 5-level copy-number state in {-2..2} to ternary.

    Deletions (-2, -1) map to -1, amplifications (1, 2) to +1, neither to 0.
    """
    if raw in (-2, -1):
        return -1
    if raw == 0:
        return 0
    if raw in (1, 2):
        return 1
    raise ModelFormatError(f"copy-number state must lie in -2..2, got {raw}")


def encode_feature(value: int) -> FeatureCode:
    """One-hot code of a ternary feature value."""
    if value == -1:
        return FeatureCode(0, 0, 1)
    if value == 0:
        return FeatureCode(0, 1, 0)
    if value == 1:
        return FeatureCode(1, 0, 0)
    raise ModelFormatError(f"feature value must be ternary, got {value}")


def negacyclic_mul(plan: NttPlan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Negacyclic product of coefficient-domain inputs through ``plan``."""
    return plan.inverse(plan.pointwise(plan.forward(a), plan.forward(b)))


def reset_counts(counting) -> None:
    """Clear a ``CountingBackend``'s tally."""
    counting.ops.counts.clear()


def compare_boolean(code: FeatureCode, y: int) -> int:
    """Boolean form of ``compare_clear``: not x2 and (not y or x0)."""
    return int((not code.x2) and ((not y) or code.x0))


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


def route_leaf(z) -> int:
    """Index (0-based) of the leaf selected by the comparison bits."""
    z1, z2, z3 = z
    if z1:
        return 0 if z2 else 1
    return 2 if z3 else 3


def predict_class(class_scores) -> int:
    """Argmax class index; ties break toward the lowest index."""
    arr = np.asarray(class_scores)
    if arr.size == 0:
        raise ModelFormatError("cannot predict from an empty score vector")
    return int(np.argmax(arr))


def ensemble_agreement(ens: Ensemble, ds: Dataset) -> float:
    """Fraction of samples where the quantized ensemble's argmax matches labels."""
    if ds.labels is None:
        raise ModelFormatError("dataset carries no labels")
    scores = ensemble_scores_clear_batch(ens, normalize_samples(ds.samples))
    return float(np.mean(np.argmax(scores, axis=1) == ds.labels))


def check_garner_conversions(basis, targets, values):
    """Every GarnerBasis conversion of the centred ints ``values`` from
    ``basis`` to ``targets``, against Python-int mixed radix and CRT."""
    garner = GarnerBasis(basis)
    m = prod(basis)
    h = (m - 1) // 2
    x = np.array([[v % p for v in values] for p in basis], dtype=np.uint64)
    radix = [prod(basis[:i]) for i in range(len(basis))]
    want_digits = [[(v + h) // r % p for v in values] for r, p in zip(radix, basis)]
    digits = garner.to_digits(x)
    assert digits.dtype == np.uint64
    assert digits.tolist() == want_digits
    want = [[v % w for v in values] for w in targets]
    assert garner.digits_to_residues(digits, targets).tolist() == want
    assert garner.lift(x, targets).tolist() == want
    assert list(garner.residues_to_ints(x)) == list(values)


def centred_lift(residues: np.ndarray, primes, targets) -> list[list[int]]:
    """The centred value in [-h, h], h = (Q - 1)/2, of each column of the
    (R, columns) residues mod ``primes`` (Q their odd product), reduced mod
    each target prime: CRT in Python ints, one row per target."""
    m = prod(primes)
    xs = [sum(int(r) * (m // p) * pow(m // p, -1, p) for r, p in zip(col, primes)) % m
          for col in residues.T]
    xs = [x - m if x > m // 2 else x for x in xs]
    return [[x % w for x in xs] for w in targets]


def rounded_quotient(residues: np.ndarray, primes, divisor: int, targets) -> list[list[int]]:
    """round(x / divisor) mod each target prime, one row per target, for
    the x in [0, prod(primes)) whose (R, columns) residues mod ``primes``
    are given: CRT in Python ints, ``divisor`` odd so no value ties."""
    m = prod(primes)
    xs = [sum(int(r) * (m // p) * pow(m // p, -1, p) for r, p in zip(col, primes)) % m
          for col in residues.T]
    return [[(2 * x + divisor) // (2 * divisor) % w for x in xs] for w in targets]


def check_ntt_definition(plan: NttPlan, a: np.ndarray, start: int, ks) -> None:
    """``plan.forward`` of the rows ``a`` (plan rows from ``start``) at the
    positions ``ks`` against its definition a_r(psi^(2k+1)), evaluated by
    Horner's rule in Python ints with psi = root_of_unity(2N, p) for the
    row's prime p; and ``plan.inverse`` of the whole transform against ``a``."""
    out = plan.forward(a, start)
    assert out.dtype == np.uint64 and out.shape == a.shape
    for row, p in enumerate(plan.moduli[start : start + len(a)]):
        psi = root_of_unity(2 * plan.n, p)
        coeffs = [int(c) for c in a[row, ::-1]]  # highest degree first
        for k in ks:
            x = pow(psi, 2 * k + 1, p)
            value = 0
            for c in coeffs:
                value = (value * x + c) % p
            assert int(out[row, k]) == value, (p, k)
    assert np.array_equal(plan.inverse(out, start), a)
