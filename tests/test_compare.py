"""The comparison gadget: truth tables, oracle agreement, encrypted variants."""

import numpy as np
import pytest

from hedgerow import ModelFormatError
from hedgerow.compare import (
    FeatureCode,
    compare_clear,
    compare_encrypted,
    compare_encrypted_model,
    encode_feature,
    encode_split,
    normalize_copy_number,
    split_plane,
)

from oracles import compare_boolean

FEATURE_VALUES = (-1, 0, 1)
THRESHOLDS = (-0.5, 0.5)


def direct_less_than(feature: int, threshold: float) -> int:
    """The semantic oracle: an honest numeric comparison."""
    return int(feature < threshold)


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------


def test_normalize_copy_number_mapping():
    assert normalize_copy_number(-2) == -1
    assert normalize_copy_number(-1) == -1
    assert normalize_copy_number(0) == 0
    assert normalize_copy_number(1) == 1
    assert normalize_copy_number(2) == 1
    with pytest.raises(ModelFormatError):
        normalize_copy_number(3)
    with pytest.raises(ModelFormatError):
        normalize_copy_number(-3)


def test_feature_encoding_table():
    assert encode_feature(-1) == FeatureCode(0, 0, 1)
    assert encode_feature(0) == FeatureCode(0, 1, 0)
    assert encode_feature(1) == FeatureCode(1, 0, 0)
    with pytest.raises(ModelFormatError):
        encode_feature(2)


def test_feature_code_must_be_one_hot():
    with pytest.raises(ModelFormatError):
        FeatureCode(1, 1, 0)
    with pytest.raises(ModelFormatError):
        FeatureCode(0, 0, 0)


def test_split_encoding():
    assert encode_split(-0.5) == 1
    assert encode_split(0.5) == 0
    with pytest.raises(ModelFormatError):
        encode_split(0.3)
    with pytest.raises(ModelFormatError):
        encode_split(0.0)


# ---------------------------------------------------------------------------
# exhaustive three-way agreement
# ---------------------------------------------------------------------------


def test_exhaustive_truth_table_three_forms_agree():
    for feature in FEATURE_VALUES:
        for threshold in THRESHOLDS:
            code = encode_feature(feature)
            y = encode_split(threshold)
            arithmetic = compare_clear(code, y)
            boolean = compare_boolean(code, y)
            direct = direct_less_than(feature, threshold)
            assert arithmetic == boolean == direct, (feature, threshold)
            assert arithmetic in (0, 1)


def test_specific_comparison_cases():
    assert compare_clear(encode_feature(-1), encode_split(-0.5)) == 1
    assert compare_clear(encode_feature(0), encode_split(-0.5)) == 0
    assert compare_clear(encode_feature(0), encode_split(0.5)) == 1
    assert compare_clear(encode_feature(1), encode_split(-0.5)) == 0
    assert compare_clear(encode_feature(1), encode_split(0.5)) == 0


def test_x1_independence():
    import inspect

    class BitsWithoutX1:
        """Stand-in exposing only x2/x0; touching x1 would raise."""

        def __init__(self, x2, x0):
            self.x2 = x2
            self.x0 = x0

    for x2, x0 in ((0, 0), (0, 1), (1, 0)):
        for y in (0, 1):
            expect = compare_clear(encode_feature({(0, 1): -1, (0, 0): 0, (1, 0): 1}[(x2, x0)]), y)
            assert compare_clear(BitsWithoutX1(x2, x0), y) == expect
    # the encrypted APIs take no x1 stream at all
    for fn in (compare_encrypted, compare_encrypted_model):
        assert "x1" not in " ".join(inspect.signature(fn).parameters)


# ---------------------------------------------------------------------------
# encrypted gadget
# ---------------------------------------------------------------------------


def _pack_cases(backend, features, splits):
    """Encode per-slot x0/x2 planes and the split plane for a case list."""
    x0 = np.array([1 if f == -1 else 0 for f in features], dtype=np.int64)
    x2 = np.array([1 if f == 1 else 0 for f in features], dtype=np.int64)
    y = np.array(splits, dtype=np.int64)
    return x0, x2, y


def _expected(features, splits, n):
    out = np.zeros(n, dtype=np.int64)
    for i, (f, y) in enumerate(zip(features, splits)):
        out[i] = compare_clear(encode_feature(f), y)
    return out


def test_compare_encrypted_all_deletions(he256, keys256):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    feats = [-1] * n
    ys = [1] * n
    x0, x2, y = _pack_cases(he256, feats, ys)
    ct = compare_encrypted(
        he256,
        he256.encrypt(pk, he256.encode(x0), seed=1),
        he256.encrypt(pk, he256.encode(x2), seed=2),
        he256.encode(split_plane(y)),
        ek,
    )
    out = he256.decode(he256.decrypt(sk, ct)).astype(np.int64)
    assert (out == 1).all()


def test_compare_encrypted_zero_feature_zero_split(he256, keys256):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    zeros = np.zeros(n, dtype=np.int64)
    ct = compare_encrypted(
        he256,
        he256.encrypt(pk, he256.encode(zeros), seed=3),
        he256.encrypt(pk, he256.encode(zeros), seed=4),
        he256.encode(split_plane(zeros)),
        ek,
    )
    out = he256.decode(he256.decrypt(sk, ct)).astype(np.int64)
    assert (out == 1).all()  # 0 < +0.5 in every slot


def test_compare_encrypted_random_slots_match_oracle(he256, keys256, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    for trial in range(3):
        feats = rng.choice(FEATURE_VALUES, n)
        ys = rng.integers(0, 2, n)
        x0, x2, y = _pack_cases(he256, feats, ys)
        ct = compare_encrypted(
            he256,
            he256.encrypt(pk, he256.encode(x0), seed=10 + trial),
            he256.encrypt(pk, he256.encode(x2), seed=20 + trial),
            he256.encode(split_plane(y)),
            ek,
        )
        out = he256.decode(he256.decrypt(sk, ct)).astype(np.int64)
        assert np.array_equal(out, _expected(feats, ys, n))
        assert set(np.unique(out)) <= {0, 1}


def test_compare_encrypted_consumes_no_level(he256, keys256):
    _, pk, ek = keys256
    n = he256.params.slot_count
    zeros = np.zeros(n, dtype=np.int64)
    a = he256.encrypt(pk, he256.encode(zeros), seed=5)
    b = he256.encrypt(pk, he256.encode(zeros), seed=6)
    ct = compare_encrypted(he256, a, b, he256.encode(split_plane(zeros)), ek)
    assert ct.level == a.level  # affine in the ciphertexts: no ct-ct product


def test_compare_encrypted_model_matches_plain_variant(he256, keys256, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    feats = rng.choice(FEATURE_VALUES, n)
    ys = rng.integers(0, 2, n)
    x0, x2, y = _pack_cases(he256, feats, ys)
    ct_x0 = he256.encrypt(pk, he256.encode(x0), seed=30)
    ct_x2 = he256.encrypt(pk, he256.encode(x2), seed=31)
    plain = compare_encrypted(he256, ct_x0, ct_x2, he256.encode(split_plane(y)), ek)
    ct_ybar = he256.encrypt(pk, he256.encode(split_plane(y)), seed=32)
    encm = compare_encrypted_model(he256, ct_x0, ct_x2, ct_ybar, ek)
    a = he256.decode(he256.decrypt(sk, plain))
    b = he256.decode(he256.decrypt(sk, encm))
    assert np.array_equal(a, b)
    assert encm.level == ct_x0.level - 1  # one ct-ct product


def test_compare_encrypted_model_amplification_forces_zero(he256, keys256, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    feats = [1] * n
    ys = rng.integers(0, 2, n)
    x0, x2, y = _pack_cases(he256, feats, ys)
    ct = compare_encrypted_model(
        he256,
        he256.encrypt(pk, he256.encode(x0), seed=40),
        he256.encrypt(pk, he256.encode(x2), seed=41),
        he256.encrypt(pk, he256.encode(split_plane(y)), seed=42),
        ek,
    )
    out = he256.decode(he256.decrypt(sk, ct)).astype(np.int64)
    assert not out.any()


def test_gadget_backend_invariance(he256, clear256, keys256, clear_keys256, rng):
    sk, pk, ek = keys256
    csk, cpk, cek = clear_keys256
    n = he256.params.slot_count
    feats = rng.choice(FEATURE_VALUES, n)
    ys = rng.integers(0, 2, n)
    x0, x2, y = _pack_cases(he256, feats, ys)
    enc = compare_encrypted(
        he256,
        he256.encrypt(pk, he256.encode(x0), seed=50),
        he256.encrypt(pk, he256.encode(x2), seed=51),
        he256.encode(split_plane(y)),
        ek,
    )
    clr = compare_encrypted(
        clear256,
        clear256.encrypt(cpk, clear256.encode(x0), seed=None),
        clear256.encrypt(cpk, clear256.encode(x2), seed=None),
        clear256.encode(split_plane(y)),
        cek,
    )
    assert np.array_equal(
        he256.decode(he256.decrypt(sk, enc)), clear256.decode(clear256.decrypt(csk, clr))
    )


@pytest.mark.parametrize("backend_name", ["he", "clear"])
def test_encrypted_comparisons_match_oracle_on_all_cases(
    backend_name, he256, clear256, keys256, clear_keys256
):
    # the six (feature, split) cases, one per slot, against the paper's form
    backend, (sk, pk, ek) = {
        "he": (he256, keys256),
        "clear": (clear256, clear_keys256),
    }[backend_name]
    cases = [(f, encode_split(t)) for f in FEATURE_VALUES for t in THRESHOLDS]
    feats, ys = zip(*cases)
    x0, x2, y = _pack_cases(backend, feats, ys)
    ct_x0 = backend.encrypt(pk, backend.encode(x0), 60)
    ct_x2 = backend.encrypt(pk, backend.encode(x2), 61)
    ct_ybar = backend.encrypt(pk, backend.encode(split_plane(y)), 62)
    expect = _expected(feats, ys, len(cases))
    for ct in (
        compare_encrypted(backend, ct_x0, ct_x2, backend.encode(split_plane(y)), ek),
        compare_encrypted_model(backend, ct_x0, ct_x2, ct_ybar, ek),
    ):
        out = backend.decode(backend.decrypt(sk, ct)).astype(np.int64)
        assert np.array_equal(out[: len(cases)], expect)
