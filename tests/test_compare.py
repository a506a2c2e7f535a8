"""The comparison gadget: truth tables, oracle agreement, encrypted variants."""

import numpy as np
import pytest

from hedgerow import CountingBackend, ModelFormatError
from hedgerow.compare import (
    FeatureCode,
    compare_clear,
    compare_encrypted,
    compare_encrypted_model,
    encode_split,
)

from oracles import compare_boolean, encode_feature, normalize_copy_number, reset_counts

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
    # the encrypted comparisons read exactly the two uploaded planes and the
    # split code, public or encrypted
    assert list(inspect.signature(compare_encrypted).parameters) == [
        "backend", "ct_le0", "ct_eq0", "y_plain", "ek"]
    assert list(inspect.signature(compare_encrypted_model).parameters) == [
        "backend", "ct_le0", "ct_eq0", "ct_y", "ek"]


# ---------------------------------------------------------------------------
# encrypted gadget
# ---------------------------------------------------------------------------


def _expected(features, splits, n):
    out = np.zeros(n, dtype=np.int64)
    for i, (f, y) in enumerate(zip(features, splits)):
        out[i] = compare_clear(encode_feature(f), y)
    return out


def _encrypt_cases(backend, pk, features, splits, seed):
    """(le0 ct, eq0 ct, y plaintext, y ct) of a case list: the uploads
    le0 = [v <= 0] and eq0 = [v = 0], and the split codes y."""
    v, y = np.asarray(features, dtype=np.int64), np.asarray(splits, dtype=np.int64)
    le0, eq0 = (v <= 0).astype(np.int64), (v == 0).astype(np.int64)
    return (backend.encrypt(pk, backend.encode(le0), seed),
            backend.encrypt(pk, backend.encode(eq0), seed + 1),
            backend.encode(y),
            backend.encrypt(pk, backend.encode(y), seed + 2))


def test_compare_encrypted_all_deletions(he256, keys256):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    le0, eq0, y, _ = _encrypt_cases(he256, pk, [-1] * n, [1] * n, seed=1)
    out = he256.decode(he256.decrypt(sk, compare_encrypted(he256, le0, eq0, y, ek)))
    assert (out == 1).all()


def test_compare_encrypted_zero_feature_zero_split(he256, keys256):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    le0, eq0, y, _ = _encrypt_cases(he256, pk, [0] * n, [0] * n, seed=3)
    out = he256.decode(he256.decrypt(sk, compare_encrypted(he256, le0, eq0, y, ek)))
    assert (out == 1).all()  # 0 < +0.5 in every slot


def test_compare_encrypted_random_slots_match_oracle(he256, keys256, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    for trial in range(3):
        feats = rng.choice(FEATURE_VALUES, n)
        ys = rng.integers(0, 2, n)
        le0, eq0, y, _ = _encrypt_cases(he256, pk, feats, ys, seed=10 * (trial + 1))
        ct = compare_encrypted(he256, le0, eq0, y, ek)
        out = he256.decode(he256.decrypt(sk, ct)).astype(np.int64)
        assert np.array_equal(out, _expected(feats, ys, n))
        assert set(np.unique(out)) <= {0, 1}


def test_compare_encrypted_consumes_no_level(he256, keys256):
    _, pk, ek = keys256
    n = he256.params.slot_count
    le0, eq0, y, _ = _encrypt_cases(he256, pk, [0] * n, [0] * n, seed=5)
    ct = compare_encrypted(he256, le0, eq0, y, ek)
    assert ct.level == le0.level  # affine in the ciphertexts: no ct-ct product


@pytest.mark.parametrize("encrypted_model", [False, True])
def test_encrypted_comparison_is_one_product_and_one_sub(encrypted_model, clear256,
                                                         clear_keys256):
    _, pk, ek = clear_keys256
    counting = CountingBackend(clear256)
    le0, eq0, y, ct_y = _encrypt_cases(counting, pk, [0, 1, -1], [1, 0, 1], seed=7)
    reset_counts(counting)
    if encrypted_model:
        compare_encrypted_model(counting, le0, eq0, ct_y, ek)
    else:
        compare_encrypted(counting, le0, eq0, y, ek)
    product = "mul_ct" if encrypted_model else "mul_pt"
    assert counting.ops.counts == {product: 1, "sub_ct": 1}


def test_compare_encrypted_model_matches_plain_variant(he256, keys256, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    feats = rng.choice(FEATURE_VALUES, n)
    ys = rng.integers(0, 2, n)
    le0, eq0, y, ct_y = _encrypt_cases(he256, pk, feats, ys, seed=30)
    plain = compare_encrypted(he256, le0, eq0, y, ek)
    encm = compare_encrypted_model(he256, le0, eq0, ct_y, ek)
    a = he256.decode(he256.decrypt(sk, plain))
    b = he256.decode(he256.decrypt(sk, encm))
    assert np.array_equal(a, b)
    assert encm.level == le0.level - 1  # one ct-ct product


def test_compare_encrypted_model_amplification_forces_zero(he256, keys256, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    ys = rng.integers(0, 2, n)
    le0, eq0, _, ct_y = _encrypt_cases(he256, pk, [1] * n, ys, seed=40)
    ct = compare_encrypted_model(he256, le0, eq0, ct_y, ek)
    out = he256.decode(he256.decrypt(sk, ct)).astype(np.int64)
    assert not out.any()


def test_gadget_backend_invariance(he256, clear256, keys256, clear_keys256, rng):
    sk, pk, ek = keys256
    csk, cpk, cek = clear_keys256
    n = he256.params.slot_count
    feats = rng.choice(FEATURE_VALUES, n)
    ys = rng.integers(0, 2, n)
    enc = compare_encrypted(he256, *_encrypt_cases(he256, pk, feats, ys, seed=50)[:3], ek)
    clr = compare_encrypted(clear256, *_encrypt_cases(clear256, cpk, feats, ys, seed=50)[:3], cek)
    assert np.array_equal(
        he256.decode(he256.decrypt(sk, enc)), clear256.decode(clear256.decrypt(csk, clr))
    )


@pytest.mark.parametrize("backend_name", ["he", "clear"])
def test_encrypted_comparisons_match_oracle_on_all_cases(
    backend_name, he256, clear256, keys256, clear_keys256
):
    # the six (feature, split) cases, one per slot, against the paper's form;
    # every other slot is padding (v = 0, y = 0), whose bit is 1
    backend, (sk, pk, ek) = {
        "he": (he256, keys256),
        "clear": (clear256, clear_keys256),
    }[backend_name]
    n = backend.params.slot_count
    cases = [(f, encode_split(t)) for f in FEATURE_VALUES for t in THRESHOLDS]
    feats, ys = (list(col) + [0] * (n - len(cases)) for col in zip(*cases))
    le0, eq0, y, ct_y = _encrypt_cases(backend, pk, feats, ys, seed=60)
    expect = _expected(feats, ys, n)
    assert (expect[len(cases):] == 1).all()
    for ct in (
        compare_encrypted(backend, le0, eq0, y, ek),
        compare_encrypted_model(backend, le0, eq0, ct_y, ek),
    ):
        out = backend.decode(backend.decrypt(sk, ct)).astype(np.int64)
        assert np.array_equal(out, expect)
