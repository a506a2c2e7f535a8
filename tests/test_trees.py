"""Tree scoring: leaf transform equivalence, slot evaluation, class sums."""

import itertools

import numpy as np
import pytest

from hedgerow import ModelFormatError
from hedgerow.compare import compare_clear
from hedgerow.modelio import ensemble_scores_clear_batch
from hedgerow.svm import check_aggregate_bound
from hedgerow.trees import (
    Ensemble,
    class_sums,
    route,
    transform_leaves,
    tree_score_clear,
    tree_scores_encrypted,
)

from oracles import encode_feature, path_score_clear, predict_class, route_leaf

ALL_Z = list(itertools.product((0, 1), repeat=3))


def brute_force_path_sum(z, leaves):
    """Independent oracle: enumerate the four root-to-leaf paths."""
    z1, z2, z3 = z
    total = 0
    # path to c1: root true, left true
    total += leaves[0] if (z1 == 1 and z2 == 1) else 0
    total += leaves[1] if (z1 == 1 and z2 == 0) else 0
    total += leaves[2] if (z1 == 0 and z3 == 1) else 0
    total += leaves[3] if (z1 == 0 and z3 == 0) else 0
    return total


# ---------------------------------------------------------------------------
# clear-side algebra
# ---------------------------------------------------------------------------


def test_transform_constant_tree():
    tl = transform_leaves((7, 7, 7, 7))
    assert (tl.l1, tl.l2, tl.l3, tl.l4) == (0, 0, 0, 7)
    for z in ALL_Z:
        assert tree_score_clear(z, tl) == 7


def test_transform_indicator_tree():
    tl = transform_leaves((1, 0, 0, 0))
    assert tree_score_clear((1, 1, 0), tl) == 1
    assert tree_score_clear((1, 1, 1), tl) == 1
    assert tree_score_clear((1, 0, 0), tl) == 0
    for z3 in (0, 1):
        assert tree_score_clear((0, 0, z3), tl) == 0
        assert tree_score_clear((0, 1, z3), tl) == 0


def test_leaf_transform_equivalence_1000_random(rng):
    for _ in range(1000):
        leaves = tuple(int(v) for v in rng.integers(-(2**25), 2**25, 4))
        tl = transform_leaves(leaves)
        for z in ALL_Z:
            assert tree_score_clear(z, tl) == brute_force_path_sum(z, leaves)


def test_path_score_selection():
    leaves = (10, 20, 30, 40)
    assert path_score_clear((1, 1, 0), leaves) == 10
    assert path_score_clear((1, 1, 1), leaves) == 10
    assert path_score_clear((0, 0, 0), leaves) == 40
    assert path_score_clear((0, 1, 1), leaves) == 30
    for z in ALL_Z:
        assert path_score_clear(z, leaves) == brute_force_path_sum(z, leaves)


def test_one_path_property(rng):
    for _ in range(100):
        leaves = tuple(int(v) for v in rng.integers(1, 1000, 4))  # generically nonzero
        for z in ALL_Z:
            terms = [
                z[0] * z[1] * leaves[0],
                z[0] * (1 - z[1]) * leaves[1],
                (1 - z[0]) * z[2] * leaves[2],
                (1 - z[0]) * (1 - z[2]) * leaves[3],
            ]
            assert sum(1 for v in terms if v != 0) == 1


def test_route_leaf_enumeration():
    assert route_leaf((1, 1, 0)) == 0
    assert route_leaf((1, 0, 1)) == 1
    assert route_leaf((0, 0, 1)) == 2
    assert route_leaf((0, 1, 0)) == 3
    for z in ALL_Z:
        leaves = (100, 200, 300, 400)
        assert leaves[route_leaf(z)] == brute_force_path_sum(z, leaves)


def test_route_matches_the_scalar_oracles():
    # every ternary node-value triple against every split-code triple, in
    # one call over two leading axes
    values = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
    splits = np.array(ALL_Z)
    leaf = route(values[:, None, :], splits[None, :, :])
    assert leaf.shape == (27, 8)
    for (i, v), (j, y) in itertools.product(enumerate(values), enumerate(splits)):
        z = [compare_clear(encode_feature(int(f)), int(b)) for f, b in zip(v, y)]
        assert leaf[i, j] == route_leaf(z)


def test_predict_class():
    assert predict_class([0.1, 0.9, 0.3]) == 1
    assert predict_class([5, 5]) == 0  # tie breaks low
    assert predict_class([3]) == 0
    with pytest.raises(ModelFormatError):
        predict_class([])


def test_predict_class_random_vs_reference(rng):
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 12))
        assert predict_class(v) == int(np.argmax(v))


# ---------------------------------------------------------------------------
# ensemble containers
# ---------------------------------------------------------------------------


def _toy_tables(n, f=0, y=0, leaves=(0, 0, 0, 0)):
    """features, splits and leaves of n identical trees that test feature f."""
    return np.full((n, 3), f), np.full((n, 3), y), np.tile(leaves, (n, 1))


def test_ensemble_validation():
    with pytest.raises(ModelFormatError):
        Ensemble(1, 3, 4, 20, *_toy_tables(3))  # 3 not pow2
    with pytest.raises(ModelFormatError):
        Ensemble(1, 2, 4, 20, *_toy_tables(1))  # wrong count
    with pytest.raises(ModelFormatError):
        Ensemble(1, 1, 1, 20, *_toy_tables(1, f=5))  # feature out of range
    ens = Ensemble(2, 2, 4, 20, *_toy_tables(4, leaves=(1, 2, 3, 4)))
    assert ens.worst_case_aggregate() == 8
    assert ens.quant_scale == 1 << 20


def test_ensemble_scores_clear_single_tree():
    ens = Ensemble(1, 1, 3, 20, np.array([[0, 1, 2]]), np.array([[1, 0, 1]]),
                   np.array([[5, 6, 7, 8]]))
    # features: -1 < -0.5 -> 1; 0 < 0.5 -> 1; 1 < -0.5 -> 0
    # z = (1,1,0) routes to c1 = 5
    assert ensemble_scores_clear_batch(ens, np.array([[-1, 0, 1]]))[0, 0] == 5


# ---------------------------------------------------------------------------
# encrypted scoring
# ---------------------------------------------------------------------------


def _encrypt_streams(backend, pk, z_vectors, seed):
    return [backend.encrypt(pk, backend.encode(z), seed + i) for i, z in enumerate(z_vectors)]


def _l_vectors(n, tl_list):
    out = [np.zeros(n, dtype=np.int64) for _ in range(4)]
    for slot, tl in enumerate(tl_list):
        for i, v in enumerate((tl.l1, tl.l2, tl.l3, tl.l4)):
            out[i][slot] = v
    return out


def test_tree_scores_encrypted_constant_trees(he256, keys256, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    tls = [transform_leaves((9, 9, 9, 9)) for _ in range(n)]
    zs = _encrypt_streams(
        he256, pk, [rng.integers(0, 2, n, dtype=np.int64) for _ in range(3)], seed=100
    )
    ls = [he256.encode(v) for v in _l_vectors(n, tls)]
    out = he256.decode(he256.decrypt(sk, tree_scores_encrypted(he256, zs, ls, ek)))
    assert (out.astype(np.int64) == 9).all()


def test_tree_scores_encrypted_matches_clear_per_slot(he256, keys256, params64, rng):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    t = he256.params.plaintext_modulus
    leaves = [tuple(int(v) for v in rng.integers(-1000, 1000, 4)) for _ in range(n)]
    tls = [transform_leaves(c) for c in leaves]
    z_vecs = [rng.integers(0, 2, n, dtype=np.int64) for _ in range(3)]
    zs = _encrypt_streams(he256, pk, z_vecs, seed=200)
    ls = [he256.encode(v) for v in _l_vectors(n, tls)]
    out = he256.decode(he256.decrypt(sk, tree_scores_encrypted(he256, zs, ls, ek)))
    for slot in range(n):
        z = (int(z_vecs[0][slot]), int(z_vecs[1][slot]), int(z_vecs[2][slot]))
        expect = brute_force_path_sum(z, leaves[slot]) % t
        assert int(out[slot]) == expect


def test_tree_scores_encrypted_level_consumption(he256, keys256, rng):
    _, pk, ek = keys256
    n = he256.params.slot_count
    zs = _encrypt_streams(
        he256, pk, [rng.integers(0, 2, n, dtype=np.int64) for _ in range(3)], seed=300
    )
    ls = [he256.encode(np.zeros(n, dtype=np.int64)) for _ in range(4)]
    out = tree_scores_encrypted(he256, zs, ls, ek)
    assert out.level == zs[0].level - 1


@pytest.mark.parametrize("backend_name, keys_name", [("he256", "keys256"),
                                                     ("clear256", "clear_keys256")])
@pytest.mark.parametrize("deep", [False, True], ids=["fresh", "deep"])
def test_tree_scores_encrypted_all_patterns_extreme_leaves(request, backend_name, keys_name,
                                                           deep):
    backend = request.getfixturevalue(backend_name)
    sk, pk, ek = request.getfixturevalue(keys_name)
    n = backend.params.slot_count
    t = backend.params.plaintext_modulus
    # the largest |leaf| a loaded single-tree class admits: l1 = c1 - c2 and
    # l3 = c4 - c3 reach t - 1 in magnitude and so leave the signed range mod t
    top = (t - 1) // 2
    check_aggregate_bound(top, t)
    with pytest.raises(ModelFormatError):
        check_aggregate_bound(top + 1, t)
    extremes = [(top, -top, top, -top), (-top, top, -top, top), (top, -top, -top, top)]
    # period 8 for z and 3 for leaves: every pattern meets every leaf tuple
    zs_clear = [ALL_Z[slot % 8] for slot in range(n)]
    leaves = [extremes[slot % 3] for slot in range(n)]
    z_vecs = [np.array([z[i] for z in zs_clear], dtype=np.int64) for i in range(3)]
    zs = _encrypt_streams(backend, pk, z_vecs, seed=700)
    if deep:
        # as in the encrypted-model path, z arrives one product below fresh
        ones = backend.encrypt(pk, backend.encode(np.ones(n, dtype=np.int64)), seed=710)
        zs = [backend.mul_ct(z, ones, ek) for z in zs]
        assert zs[0].level == backend.params.depth_budget - 1
    ls = [backend.encode(v) for v in _l_vectors(n, [transform_leaves(c) for c in leaves])]
    out_ct = tree_scores_encrypted(backend, zs, ls, ek)
    assert out_ct.level == zs[0].level - 1
    out = backend.decode(backend.decrypt(sk, out_ct))
    for slot in range(n):
        assert int(out[slot]) == brute_force_path_sum(zs_clear[slot], leaves[slot]) % t


def test_class_sums_small_example(he256, keys256):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    v = np.zeros(n, dtype=np.int64)
    v[:4] = [1, 2, 3, 4]
    ct = he256.encrypt(pk, he256.encode(v), seed=600)
    out = he256.decode(he256.decrypt(sk, class_sums(he256, ct, 2, 2, ek)))
    assert int(out[0]) == 3 and int(out[2]) == 7


def test_class_sums_zero_scores(he256, keys256):
    sk, pk, ek = keys256
    n = he256.params.slot_count
    ct = he256.encrypt(pk, he256.encode(np.zeros(n, dtype=np.int64)), seed=601)
    out = he256.decode(he256.decrypt(sk, class_sums(he256, ct, 8, 4, ek)))
    assert not out.any()


def test_class_sums_strided_slots_match_block_oracle(clear256, clear_keys256, rng):
    # large-stride check on the mirror backend: k=128, s=11 needs 1408 slots,
    # so emulate with the clear backend at this ring by splitting across rows
    csk, cpk, cek = clear_keys256
    n = clear256.params.slot_count
    k, s = 32, 8  # 256 slots exactly, 4 classes per row
    v = rng.integers(-1000, 1000, n).astype(np.int64)
    ct = clear256.encrypt(cpk, clear256.encode(v), seed=None)
    out = clear256.decode(clear256.decrypt(csk, class_sums(clear256, ct, k, s, cek)))
    t = clear256.params.plaintext_modulus
    for c in range(s):
        expect = int(v[c * k : (c + 1) * k].sum()) % t
        assert int(out[c * k]) == expect


def test_class_sums_rejects_oversize(he256, keys256):
    _, pk, ek = keys256
    ct = he256.encrypt(pk, he256.encode([0]), seed=602)
    with pytest.raises(ModelFormatError):
        class_sums(he256, ct, 256, 2, ek)  # 512 > 256 slots
    with pytest.raises(ModelFormatError):
        class_sums(he256, ct, 3, 1, ek)


# ---------------------------------------------------------------------------
# quantization argmax consistency
# ---------------------------------------------------------------------------


def test_quantization_argmax_consistency(rng):
    scale_bits = 20
    scale = 1 << scale_bits
    trees_per_class = 16
    agree_wide = 0
    total_wide = 0
    for _ in range(2000):
        float_scores = rng.normal(0, 1.0, 4)
        # simulate per-class sums of trees_per_class quantized leaves
        quant = np.round(float_scores * scale).astype(np.int64)
        order = np.sort(float_scores)[::-1]
        margin = order[0] - order[1]
        same = int(np.argmax(quant)) == int(np.argmax(float_scores))
        if margin > 4 * trees_per_class * 2**-scale_bits:
            assert same  # guaranteed regime
        if margin > 2**-10:
            total_wide += 1
            agree_wide += int(same)
    assert total_wide > 100
    assert agree_wide / total_wide >= 0.99
