"""Linear SVM path: quantization, exact encrypted dot products, cost contract."""

import numpy as np
import pytest

from hedgerow import HeBackend, ModelFormatError, make_test_params
from hedgerow.clear import ClearBackend, CountingBackend
from hedgerow.scheme import fold_steps, keygen
from hedgerow.svm import (
    SvmModel,
    confidence_integers,
    encoded_planes,
    infer_encrypted,
    pack_features,
    quantize_model,
    slot_features,
    svm_scores_clear,
)

from oracles import predict_class, reset_counts


def random_model(rng, s=3, d=40, scale_bits=20):
    w = rng.normal(0, 0.5, (s, d))
    b = rng.normal(0, 0.5, s)
    return quantize_model(w, b, scale_bits), w, b


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_quantize_example_half():
    model = quantize_model([[0.5]], [0.0], 20)
    assert model.weights[0, 0] == 524288
    assert model.bias[0] == 0
    assert model.quant_scale == 1 << 20


def test_quantize_zero_weights_keep_bias(rng):
    model = quantize_model(np.zeros((2, 8)), [1.25, -0.75], 20)
    x = rng.integers(-1, 2, 8)
    scores = svm_scores_clear(model, x) / model.quant_scale
    assert scores[0] == pytest.approx(1.25)
    assert scores[1] == pytest.approx(-0.75)


def test_quantized_scores_close_to_float_reference(rng):
    model, w, b = random_model(rng, s=4, d=64)
    for _ in range(50):
        x = rng.integers(-1, 2, 64)
        got = svm_scores_clear(model, x) / model.quant_scale
        ref = w @ x + b
        assert np.max(np.abs(got - ref)) <= (64 + 1) * 2**-20


def test_quantize_overflow_bound():
    with pytest.raises(ModelFormatError) as err:
        quantize_model(np.full((1, 10), 1.0), [0.0], 20, plaintext_modulus=2**21)
    assert "plaintext modulus" in str(err.value)
    # generous modulus passes
    quantize_model(np.full((1, 10), 1.0), [0.0], 20, plaintext_modulus=2**40)


# ---------------------------------------------------------------------------
# encrypted inference
# ---------------------------------------------------------------------------


def _pack_x(backend, x):
    return pack_features(x, backend.params.slot_count)


@pytest.mark.parametrize("d", [1, 5, 128, 129, 256])
def test_packing_shifts_x_into_row_one(d, rng):
    # d <= N/2: row 1 holds x shifted left by one slot, v[N/2 + n] =
    # x[(n + 1) mod N/2]; a wider x spans both rows and nothing moves
    n, row = 256, 128
    x = rng.integers(-1, 2, d)
    padded = np.zeros(n, dtype=np.int64)
    padded[:d] = x
    v = pack_features(x, n)
    assert np.array_equal(v[:row], padded[:row])
    if d <= row:
        assert np.array_equal(v[row:], np.roll(padded[:row], -1))
    else:
        assert np.array_equal(v, padded)
    assert np.array_equal(v, padded[slot_features(d, n)])


def test_zero_input_gives_bias(he256, keys256, rng):
    sk, pk, ek = keys256
    model, _, _ = random_model(rng, s=3, d=50)
    ct = he256.encrypt(pk, he256.encode(_pack_x(he256, np.zeros(50, dtype=np.int64))), seed=1)
    outs = infer_encrypted(he256, ct, model, ek)
    assert len(outs) == 1
    got = confidence_integers(he256, sk, outs, model)
    assert np.array_equal(got, model.bias)


def test_all_ones_weights_count_amp_minus_del(he256, keys256, rng):
    sk, pk, ek = keys256
    d = 60
    model = SvmModel(1, d, 20, np.full((1, d), 1 << 20, dtype=np.int64), np.array([7], dtype=np.int64))
    x = rng.integers(-1, 2, d)
    ct = he256.encrypt(pk, he256.encode(_pack_x(he256, x)), seed=2)
    outs = infer_encrypted(he256, ct, model, ek)
    got = confidence_integers(he256, sk, outs, model)
    expect = (int((x == 1).sum()) - int((x == -1).sum())) * (1 << 20) + 7
    assert got[0] == expect


def test_random_models_match_clear_exactly(he256, keys256, rng):
    sk, pk, ek = keys256
    model, _, _ = random_model(rng, s=4, d=100)
    for i in range(10):
        x = rng.integers(-1, 2, 100)
        ct = he256.encrypt(pk, he256.encode(_pack_x(he256, x)), seed=10 + i)
        outs = infer_encrypted(he256, ct, model, ek)
        got = confidence_integers(he256, sk, outs, model)
        assert np.array_equal(got, svm_scores_clear(model, x))


def test_negative_confidence_decodes_negative(he256, keys256):
    sk, pk, ek = keys256
    model = quantize_model([[-1.0]], [-0.5], 20)
    ct = he256.encrypt(pk, he256.encode(_pack_x(he256, np.array([1]))), seed=3)
    outs = infer_encrypted(he256, ct, model, ek)
    got = confidence_integers(he256, sk, outs, model)
    assert got[0] == -1.5 * model.quant_scale


def test_confidence_roundtrip_and_argmax_stability(he256, keys256, clear256, clear_keys256, rng):
    sk, pk, ek = keys256
    csk, cpk, cek = clear_keys256
    model, w, b = random_model(rng, s=5, d=80)
    for i in range(10):
        x = rng.integers(-1, 2, 80)
        packed = _pack_x(he256, x)
        enc = infer_encrypted(he256, he256.encrypt(pk, he256.encode(packed), seed=50 + i), model, ek)
        clr = infer_encrypted(clear256, clear256.encrypt(cpk, clear256.encode(packed), None), model, cek)
        got = confidence_integers(he256, sk, enc, model)
        mirror = confidence_integers(clear256, csk, clr, model)
        assert np.array_equal(got, mirror)
        assert predict_class(got) == predict_class(svm_scores_clear(model, x))
        # float argmax agrees whenever the float margin clears the quantization error
        ref = w @ x + b
        top = np.sort(ref)[::-1]
        if top[0] - top[1] > 80 * 2**-20:
            assert predict_class(got) == int(np.argmax(ref))


def test_oversize_feature_vector_rejected(he256, keys256):
    _, pk, ek = keys256
    model = quantize_model(np.zeros((1, 300)), [0.0], 20)  # 300 features > 256 slots
    ct = he256.encrypt(pk, he256.encode([0]), seed=4)
    with pytest.raises(ModelFormatError):
        infer_encrypted(he256, ct, model, ek)


def test_cost_contract_counts(params256, clear_keys256, rng):
    counting = CountingBackend(ClearBackend(params256))
    csk, cpk, cek = clear_keys256
    model, _, _ = random_model(rng, s=3, d=128)
    x = _pack_x(counting, rng.integers(-1, 2, 128))
    ct = counting.encrypt(cpk, counting.encode(x), None)
    reset_counts(counting)
    infer_encrypted(counting, ct, model, cek)
    # g = 4 diagonals at stride 2 (row 1 holds the odd ones): 2 planes, b = 1,
    # so no baby step, one giant step by 2, the row fold 64..4 (5) and the swap
    assert counting.ops.get("mul_pt") == 2
    assert counting.ops.get("rotate") == 6
    assert counting.ops.get("swap_rows") == 1
    assert counting.ops.get("add_ct") == 7
    assert counting.ops.get("add_pt") == 1
    assert counting.ops.get("mul_ct") == 0
    assert counting.ops.get("mod_switch") == 1  # before the fold, for download


@pytest.mark.parametrize("d", [100, 200], ids=["one-row", "swap-path"])
@pytest.mark.parametrize("g", [1, 2, 4, 8, 16, 32, 128])
def test_rotations_are_baby_giant_and_fold_steps(params256, clear_keys256, rng, g, d):
    counting = CountingBackend(ClearBackend(params256))
    _, cpk, cek = clear_keys256
    model, _, _ = random_model(rng, s=g // 2 + 1, d=d)
    ct = counting.encrypt(cpk, counting.encode(_pack_x(counting, rng.integers(-1, 2, d))), None)
    reset_counts(counting)
    infer_encrypted(counting, ct, model, cek)
    row = params256.rotation_group_size
    # one row: g/2 even shifts, row 1 holding the odd ones; both rows: g shifts
    stride = 2 if d <= row else 1
    planes = max(stride, g) // stride
    b = 1 << int(np.log2(planes)) // 2
    fold = sum(1 for step in fold_steps(row) if step >= max(stride, g))
    assert counting.ops.get("rotate") == (b - 1) + (planes // b - 1) + fold
    assert counting.ops.get("swap_rows") == 1
    assert counting.ops.get("mul_pt") == planes


def diagonal_product_slots(model, v, row, t):
    """Every slot of the plain diagonal product, from the unrotated planes.
    Each slot n of v holds feature f(n): n in row 0, and in row 1 (n + 1)
    mod row when d <= row, n itself otherwise.  With the stride 2 or 1 and
    g = max(stride, next_pow2(s)): sum_j rot(v * plane_j, stride*j), j <
    g/stride, with plane_j[n] = W[(n - stride*j) mod g, f(n)], plus the bias
    at the class slots, folded by the steps >= g within each row, plus the
    other row."""
    n = len(v)
    d, s = model.num_features, model.num_classes
    stride = 2 if d <= row else 1
    g = max(stride, 1 << (s - 1).bit_length())
    w = np.zeros((g, n), dtype=np.int64)
    w[:s, :d] = model.weights
    cols = np.arange(n)
    feature = (cols + cols // row) % row if stride == 2 else cols

    def rot(u, k):
        return np.roll(u.reshape(2, row), -k, axis=1).reshape(-1)

    z = sum(rot(v * w[(cols - stride * j) % g, feature], stride * j) for j in range(g // stride))
    z[:s] += model.bias
    step = g
    while step < row:
        z = z + rot(z, step)
        step *= 2
    z = z + z.reshape(2, row)[::-1].reshape(-1)
    return (z % t).astype(np.uint64)


@pytest.mark.parametrize(
    "d, s",
    [(200, 5), (100, 128), (256, 11), (40, 1), (128, 3), (129, 3)],
    ids=["swap-path", "row-of-classes", "full-ring", "one-class", "half-ring", "half-ring-plus-one"],
)
def test_every_output_slot_matches_the_plain_diagonal_product(
    he256, keys256, clear256, clear_keys256, rng, d, s
):
    # the slots whose feature index reaches d hold ternary values too: the
    # pre-rotated planes must cancel them and leave every slot as the
    # unrotated product does
    params = he256.params
    n = params.slot_count
    model, _, _ = random_model(rng, s=s, d=d)
    x = rng.integers(-1, 2, d)
    v = np.where(slot_features(d, n) < d, _pack_x(he256, x), rng.integers(-1, 2, n))
    expect = diagonal_product_slots(model, v, params.rotation_group_size, params.plaintext_modulus)
    for backend, (sk, pk, ek) in ((he256, keys256), (clear256, clear_keys256)):
        (out,) = infer_encrypted(backend, backend.encrypt(pk, backend.encode(v), 7), model, ek)
        assert out.prime_count == params.output_primes
        assert np.array_equal(backend.decode(backend.decrypt(sk, out)), expect)
        assert np.array_equal(confidence_integers(backend, sk, [out], model), svm_scores_clear(model, x))
        assert backend.noise_budget(sk, out) >= 10


@pytest.mark.parametrize(
    "d, s",
    [(200, 5), (256, 3), (90, 1), (256, 1), (60, 7), (128, 128), (100, 2), (128, 11), (129, 11)],
    ids=["swap-path", "full-ring", "one-class", "one-class-swap", "seven-classes", "row-of-classes",
         "two-classes", "half-ring", "half-ring-plus-one"],
)
def test_diagonal_product_exact_on_both_backends(
    he256, keys256, clear256, clear_keys256, rng, d, s
):
    sk, pk, ek = keys256
    csk, cpk, cek = clear_keys256
    model, _, _ = random_model(rng, s=s, d=d)
    for i in range(2):
        x = rng.integers(-1, 2, d)
        packed = _pack_x(he256, x)
        enc = infer_encrypted(he256, he256.encrypt(pk, he256.encode(packed), seed=70 + i), model, ek)
        clr = infer_encrypted(clear256, clear256.encrypt(cpk, clear256.encode(packed)), model, cek)
        assert len(enc) == len(clr) == 1
        expect = svm_scores_clear(model, x)
        assert np.array_equal(confidence_integers(he256, sk, enc, model), expect)
        assert np.array_equal(confidence_integers(clear256, csk, clr, model), expect)
        assert he256.noise_budget(sk, enc[0]) >= 10


def test_more_classes_than_a_row_rejected(he256, keys256):
    _, pk, ek = keys256
    model = quantize_model(np.zeros((129, 8)), np.zeros(129), 20)  # 129 > N/2 = 128
    ct = he256.encrypt(pk, he256.encode([0]), seed=4)
    with pytest.raises(ModelFormatError):
        infer_encrypted(he256, ct, model, ek)


def test_default_fold_keys_suffice(rng):
    params = make_test_params(64, num_primes=5, depth_budget=1)
    sk, pk, ek = keygen(params, seed=11)
    assert set(ek.galois) == set(fold_steps(params.rotation_group_size))
    he = HeBackend(params)
    for d, s in ((64, 1), (7, 32), (40, 5)):
        model, _, _ = random_model(rng, s=s, d=d)
        x = rng.integers(-1, 2, d)
        ct = he.encrypt(pk, he.encode(_pack_x(he, x)), seed=d)
        got = confidence_integers(he, sk, infer_encrypted(he, ct, model, ek), model)
        assert np.array_equal(got, svm_scores_clear(model, x))


@pytest.mark.parametrize("backend_type", [HeBackend, ClearBackend])
def test_planes_encoded_once_per_model_and_backend(params256, backend_type, rng):
    backend = backend_type(params256)
    sk, pk, ek = backend.keygen(seed=5)
    encodes = []
    encode = backend.encode
    backend.encode = lambda values: encodes.append(1) or encode(values)
    model, _, _ = random_model(rng, s=5, d=100)
    x = rng.integers(-1, 2, 100)
    ct = backend.encrypt(pk, encode(_pack_x(backend, x)), 1)
    first = infer_encrypted(backend, ct, model, ek)
    assert len(encodes) == 4 + 1  # g/2 = 4 planes and the bias
    second = infer_encrypted(backend, ct, model, ek)
    assert len(encodes) == 5
    assert encoded_planes(backend, model) is encoded_planes(backend, model)
    for outs in (first, second):
        assert np.array_equal(confidence_integers(backend, sk, outs, model), svm_scores_clear(model, x))
