"""Model files, layouts, client packing, synthetic generation."""

import hashlib
import json

import numpy as np
import pytest

from hedgerow import ModelFormatError
from hedgerow.modelio import (
    STREAMS,
    Dataset,
    build_layout,
    ensemble_scores_clear_batch,
    ensemble_slot_streams,
    gen_synthetic,
    load_dataset,
    load_ensemble,
    load_layout,
    load_svm,
    normalize_samples,
    pack_client_input,
    save_dataset,
    save_ensemble,
    save_layout,
    save_svm,
)
from hedgerow.compare import FeatureCode
from hedgerow.params import gen_params
from hedgerow.pipeline import (
    decrypt_class_scores,
    encrypt_bundle,
    infer_xgb_sample,
    model_plane_plaintexts,
)

from oracles import encode_feature, ensemble_agreement, normalize_copy_number


def write_ensemble_json(path, classes, k, trees, scale_bits=20, features=None):
    doc = {
        "classes": classes,
        "trees_per_class": k,
        "scale_bits": scale_bits,
        "trees": trees,
    }
    if features is not None:
        doc["features"] = features
    path.write_text(json.dumps(doc), encoding="utf-8")


def tree_doc(feat, thresh, leaves):
    return {"feat": feat, "thresh": thresh, "leaves": leaves}


def same_ensemble(a, b):
    """Equal counts, scale and tables."""
    counts = ("num_classes", "trees_per_class", "num_features", "scale_bits")
    return all(getattr(a, n) == getattr(b, n) for n in counts) and all(
        np.array_equal(getattr(a, t), getattr(b, t)) for t in ("features", "splits", "leaves")
    )


# ---------------------------------------------------------------------------
# ensemble files
# ---------------------------------------------------------------------------


def test_load_ensemble_normalizes_fig2_style_root(tmp_path):
    # a root comparing feature 25486 against -0.5 carries split code y=1
    path = tmp_path / "ens.json"
    write_ensemble_json(
        path, 1, 1,
        [tree_doc([25486, 3, 4], [-0.5, 0.5, 0.5], [0.1, -0.2, 0.3, -0.4])],
    )
    ens = load_ensemble(path)
    assert ens.splits[0].tolist() == [1, 0, 0]
    assert ens.features[0, 0] == 25486
    assert ens.leaves[0, 0] == round(0.1 * (1 << 20))


def test_load_ensemble_pads_to_power_of_two(tmp_path):
    path = tmp_path / "ens.json"
    trees = [tree_doc([0, 0, 0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0]) for _ in range(100)]
    write_ensemble_json(path, 1, 100, trees)
    ens = load_ensemble(path)
    assert ens.trees_per_class == 128
    assert len(ens.leaves) == 128
    assert not ens.leaves[100:].any()


def test_load_ensemble_pads_every_class_after_its_own_trees(tmp_path):
    # 2 classes x 100 hand-written trees: tree j of class c lands in row
    # 128 c + j, and each class's rows 100..127 are zero-leaf trees
    path = tmp_path / "ens.json"
    trees = [tree_doc([c, j % 7, 6], [-0.5, 0.5, -0.5], [c + 1, -(j + 1), 0.5, 0.25])
             for c in range(2) for j in range(100)]
    write_ensemble_json(path, 2, 100, trees, scale_bits=2, features=7)
    ens = load_ensemble(path)
    assert (ens.num_classes, ens.trees_per_class, ens.leaves.shape) == (2, 128, (256, 4))
    for c in range(2):
        rows = slice(128 * c, 128 * c + 100)
        assert (ens.features[rows, 0] == c).all()
        assert ens.features[rows, 1].tolist() == [j % 7 for j in range(100)]
        assert (ens.splits[rows] == [1, 0, 1]).all()
        assert ens.leaves[rows, 1].tolist() == [-4 * (j + 1) for j in range(100)]
        assert (ens.leaves[rows, [0, 2, 3]] == [4 * (c + 1), 2, 1]).all()
        pad = slice(128 * c + 100, 128 * (c + 1))
        assert not ens.leaves[pad].any() and not ens.splits[pad].any()
    # class 1: tree 0's largest |leaf| is c1 = 2, every other tree's is j + 1
    assert ens.worst_case_aggregate() == 4 * (2 + sum(range(2, 101)))


# seed-1 ensemble at 2048 slots: SHA-256 of save_ensemble's bytes, the
# layout's tree_digest, and SHA-256 of the model planes' dtypes and bytes
PINNED_SEED1_SAVE_SHA256 = "f7f75ac441edeaaf865a961719adfc686227fe7bd2ca79753d8fdaf15a54e8c0"
PINNED_SEED1_TREE_DIGEST = "1ef2cd9e704c656ba8cd2862ac992c9304a1585bdbacd11bd07783ddf813c561"
PINNED_SEED1_PLANES_SHA256 = "5e5ba2e4d97257446d968538f2ec26ee54f737396faa198377fee1a0aa935ee1"


def test_seed1_wire_forms_are_pinned(tmp_path):
    # the benchmark's ensemble: its saved file, layout digest and model
    # planes (values and dtype) must not move with the container
    ens, _, _ = gen_synthetic(seed=1, s=11, k=128, d=256, n_samples=1024)
    save_ensemble(ens, tmp_path / "xgb.json")
    assert hashlib.sha256((tmp_path / "xgb.json").read_bytes()).hexdigest() == \
        PINNED_SEED1_SAVE_SHA256
    layout = build_layout(ens, 2048)
    assert layout.tree_digest == PINNED_SEED1_TREE_DIGEST
    planes = hashlib.sha256()
    for vector in ensemble_slot_streams(ens, layout).reshape(-1, layout.slot_count):
        planes.update(str(vector.dtype).encode() + vector.tobytes())
    assert planes.hexdigest() == PINNED_SEED1_PLANES_SHA256
    assert same_ensemble(load_ensemble(tmp_path / "xgb.json"), ens)
    # the table reduction against a per-tree loop in Python ints
    k = ens.trees_per_class
    assert ens.worst_case_aggregate() == max(
        sum(max(abs(int(v)) for v in ens.leaves[g]) for g in range(c * k, (c + 1) * k))
        for c in range(ens.num_classes)
    )


# SHA-256 of the rest of the seed-1 draw: the quantized SVM weights and
# bias, then the dataset's samples and labels (dtype, shape and bytes each)
PINNED_SEED1_DRAW_SHA256 = {
    256: "27355f3a886b349e89bd0529b24a384541f004f061d4be4fde155f6abc795a90",
    2048: "7f2597e67c2569baa15a6426091168793019d265e5a9ba29f32318a716284bbb",
}


@pytest.mark.parametrize("d", sorted(PINNED_SEED1_DRAW_SHA256))
def test_seed1_synthetic_draw_is_pinned(d):
    # the float scores behind the labels and the skeleton behind the SVM are
    # summed in a fixed order: a reordered float sum moves these bytes
    _, model, ds = gen_synthetic(seed=1, s=11, k=128, d=d, n_samples=1024)
    digest = hashlib.sha256()
    for array in (model.weights, model.bias, ds.samples, ds.labels):
        digest.update(str(array.dtype).encode() + str(array.shape).encode() + array.tobytes())
    assert digest.hexdigest() == PINNED_SEED1_DRAW_SHA256[d]


def test_load_ensemble_rejects_bad_threshold(tmp_path):
    path = tmp_path / "ens.json"
    write_ensemble_json(path, 1, 1, [tree_doc([0, 0, 0], [0.3, 0.5, 0.5], [0, 0, 0, 0])])
    with pytest.raises(ModelFormatError):
        load_ensemble(path)


def test_load_ensemble_rejects_malformed_json(tmp_path):
    path = tmp_path / "ens.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_ensemble(path)


def test_load_ensemble_checks_aggregate_bound(tmp_path):
    path = tmp_path / "ens.json"
    write_ensemble_json(path, 1, 1, [tree_doc([0, 0, 0], [0.5, 0.5, 0.5], [2.0, 2.0, 2.0, 2.0])])
    with pytest.raises(ModelFormatError):
        load_ensemble(path, plaintext_modulus=2**21)
    load_ensemble(path, plaintext_modulus=2**40)
    # the benchmark's models (seed 1, 11 x 128 trees, 1024 samples; worst-case
    # aggregates 2^26.25 and 2^25.91) keep 3 bits of headroom: they load under
    # their preset's t/8
    ens, _, _ = gen_synthetic(seed=1, s=11, k=128, d=256, n_samples=1024)
    _, svm_model, _ = gen_synthetic(seed=1, s=11, k=128, d=2048, n_samples=1024)
    save_ensemble(ens, tmp_path / "xgb.json")
    save_svm(svm_model, tmp_path / "svm.json")
    for preset in ("xgb-d2", "xgb-encmodel-d3"):
        t = gen_params(preset).plaintext_modulus
        assert same_ensemble(load_ensemble(tmp_path / "xgb.json", plaintext_modulus=t >> 3), ens)
    load_svm(tmp_path / "svm.json", plaintext_modulus=gen_params("svm-d1").plaintext_modulus >> 3)


@pytest.mark.parametrize("leaf", [1e300, 2.0**42, -(2.0**42)])
def test_load_ensemble_refuses_leaves_beyond_int64_without_a_modulus(tmp_path, leaf):
    # quantized at 2^20, a class sum of 2^62 or more cannot be held in int64:
    # refused at load, before any table or slot vector is built
    path = tmp_path / "ens.json"
    write_ensemble_json(path, 1, 2, [tree_doc([0, 0, 0], [0.5, 0.5, 0.5], [0, 0, 0, leaf]),
                                     tree_doc([0, 0, 0], [0.5, 0.5, 0.5], [leaf, 0, 0, 0])])
    with pytest.raises(ModelFormatError, match="2\\^62"):
        load_ensemble(path)


@pytest.mark.parametrize("feat, features", [([0, 2**70, 1], None), ([0, 2**63, 1], None),
                                            ([0, 1, 2], 2**70), ([0, 1, 2], 2**63)])
def test_load_ensemble_refuses_feature_indices_beyond_int64(tmp_path, feat, features):
    path = tmp_path / "ens.json"
    write_ensemble_json(path, 1, 1, [tree_doc(feat, [0.5, 0.5, 0.5], [0, 0, 0, 0])],
                        features=features)
    with pytest.raises(ModelFormatError):
        load_ensemble(path)


@pytest.mark.parametrize("feat, features", [([0, 2**70, 1], 2**71), ([0, 2**63, 1], 2**64),
                                            ([0, 1, 2], 2**63)])
def test_load_layout_refuses_feature_indices_beyond_int64(tmp_path, feat, features):
    # the ensemble's bound: every index and the feature count below 2^63
    path = tmp_path / "layout.json"
    save_layout(build_layout(_small_ensemble(s=1, k=1, d=4), 8), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(features=features, tree_features=[feat])
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_layout(path)


def test_ensemble_roundtrip_fixed_point(tmp_path, rng):
    ens, _, _ = gen_synthetic(seed=5, s=3, k=5, d=16, n_samples=2)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_ensemble(ens, p1)
    again = load_ensemble(p1)
    assert same_ensemble(again, ens)
    save_ensemble(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# svm files
# ---------------------------------------------------------------------------


def test_svm_zero_weight_file(tmp_path):
    path = tmp_path / "svm.json"
    path.write_text(
        json.dumps(
            {"classes": 2, "features": 3, "scale_bits": 20,
             "weights": [0.0] * 6, "bias": [0.0, 0.0]}
        ),
        encoding="utf-8",
    )
    model = load_svm(path)
    assert not model.weights.any()
    assert not model.bias.any()


def test_svm_scale_honored(tmp_path):
    path = tmp_path / "svm.json"
    path.write_text(
        json.dumps(
            {"classes": 1, "features": 1, "scale_bits": 20, "weights": [0.5], "bias": [0.0]}
        ),
        encoding="utf-8",
    )
    assert load_svm(path).weights[0, 0] == 524288


def test_svm_roundtrip_fixed_point(tmp_path, rng):
    _, model, _ = gen_synthetic(seed=6, s=4, k=4, d=24, n_samples=2)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_svm(model, p1)
    again = load_svm(p1)
    assert np.array_equal(again.weights, model.weights)
    assert np.array_equal(again.bias, model.bias)
    save_svm(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def _small_ensemble(s=1, k=2, d=8):
    ens, _, _ = gen_synthetic(seed=4, s=s, k=k, d=d, n_samples=1)
    return ens


def test_layout_two_trees_one_class():
    ens = _small_ensemble(s=1, k=2, d=8)
    layout = build_layout(ens, 64)
    roots = sorted(e for e in layout.entries if e[1] == "root")
    assert [(b, sl) for b, _, sl, _ in roots] == [(0, 0), (0, 1)]
    assert roots[0][3] == ens.features[0, 0]
    assert roots[1][3] == ens.features[1, 0]


def test_layout_spill_block_count_formula():
    for s, k, slots in ((4, 32, 64), (11, 16, 64), (3, 64, 64), (5, 8, 128)):
        ens = _small_ensemble(s=s, k=k, d=16)
        layout = build_layout(ens, slots)
        tpb = min(s * k, (slots // k) * k)
        assert layout.trees_per_block == tpb
        assert layout.num_blocks == -(-s * k // tpb)  # ceil
        # classes never straddle blocks
        for c in range(s):
            b0, _ = layout.class_positions[c]
            bl, _ = divmod((c + 1) * k - 1, tpb)
            assert b0 == bl


def test_layout_rejects_oversize_class():
    ens = _small_ensemble(s=1, k=128, d=8)
    with pytest.raises(ModelFormatError):
        build_layout(ens, 64)


def test_layout_deterministic_and_roundtrips(tmp_path):
    ens = _small_ensemble(s=3, k=8, d=32)
    p1, p2, p3 = tmp_path / "l1.json", tmp_path / "l2.json", tmp_path / "l3.json"
    save_layout(build_layout(ens, 128), p1)
    save_layout(build_layout(ens, 128), p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_layout(p1)
    assert loaded.tree_features.dtype == np.int64
    assert np.array_equal(loaded.tree_features, ens.features)
    save_layout(loaded, p3)
    assert p1.read_bytes() == p3.read_bytes()


# ---------------------------------------------------------------------------
# client packing
# ---------------------------------------------------------------------------


def test_pack_all_zero_sample(rng):
    ens = _small_ensemble(s=2, k=4, d=16)
    layout = build_layout(ens, 64)
    bundle = pack_client_input(np.zeros(16, dtype=np.int64), layout)
    assert bundle.xgb_planes.shape == (layout.num_blocks, 3, 2, 64)
    # every slot, a tree's or padding, reads v = 0: both le0 and eq0 are set
    assert bundle.xgb_planes.dtype == np.int64 and (bundle.xgb_planes == 1).all()
    assert not bundle.svm_vector.any()


def test_pack_all_deletion_sample():
    ens = _small_ensemble(s=2, k=4, d=16)
    layout = build_layout(ens, 64)
    bundle = pack_client_input(np.full(16, -1, dtype=np.int64), layout)
    for block, stream, slot, _ in layout.entries:
        le0, eq0 = bundle.xgb_planes[block, STREAMS.index(stream)]
        assert le0[slot] == 1 and eq0[slot] == 0
    assert (bundle.svm_vector[:16] == -1).all()


def test_pack_unpack_recovers_one_hot_codes(rng):
    ens = _small_ensemble(s=2, k=8, d=24)
    layout = build_layout(ens, 64)
    raw = rng.integers(-2, 3, 24)
    bundle = pack_client_input(raw, layout)
    ternary = normalize_samples(raw)
    for block, stream, slot, feature in layout.entries:
        le0, eq0 = bundle.xgb_planes[block, STREAMS.index(stream)]
        code = encode_feature(int(ternary[feature]))
        # x2 = 1 - le0, x1 = eq0, x0 = le0 - eq0
        assert FeatureCode(1 - le0[slot], eq0[slot], le0[slot] - eq0[slot]) == code


def test_pack_rejects_short_sample():
    ens = _small_ensemble(s=1, k=2, d=8)
    layout = build_layout(ens, 64)
    with pytest.raises(ModelFormatError):
        pack_client_input(np.zeros(4, dtype=np.int64), layout)


def test_slot_streams_hold_split_codes_and_leaves():
    ens = _small_ensemble(s=2, k=4, d=16)
    layout = build_layout(ens, 64)
    planes = ensemble_slot_streams(ens, layout)
    from hedgerow.trees import transform_leaves

    assert planes.shape == (layout.num_blocks, 7, 64) and planes.dtype == np.int64
    # rows: y_root, y_left, y_right, l1, l2, l3, l4
    assert planes[0, 1, 3] == ens.splits[3, 1]
    tl = transform_leaves(ens.leaves[3])
    assert planes[0, 3, 3] == tl.l1
    assert planes[0, 6, 3] == tl.l4
    # slots past the last tree stay zero-leaf
    assert planes[-1, 6, ens.num_classes * ens.trees_per_class :].sum() == 0


# 2- and 3-block spills: (classes, trees per class, slots)
SPILLS = [pytest.param(3, 16, 32, id="2-blocks"), pytest.param(5, 8, 16, id="3-blocks")]


@pytest.mark.parametrize("s, k, slots", SPILLS)
def test_scatter_places_row_g_at_its_block_and_slot(s, k, slots):
    layout = build_layout(_small_ensemble(s=s, k=k, d=16), slots)
    tpb, trees = layout.trees_per_block, s * k
    rows = np.arange(1, 2 * trees + 1).reshape(trees, 2) * [1, -1]
    out = layout.scatter(rows)
    assert out.shape == (layout.num_blocks, 2, slots) and out.dtype == np.int64
    expected = np.zeros_like(out)
    for g in range(trees):
        expected[g // tpb, :, g % tpb] = rows[g]
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("s, k, slots", SPILLS)
def test_every_node_plane_on_a_spill(s, k, slots, rng):
    from hedgerow.trees import transform_leaves

    ens = _small_ensemble(s=s, k=k, d=16)
    layout = build_layout(ens, slots)
    raw = rng.integers(-2, 3, 16)
    ternary = normalize_samples(raw)
    bundle = pack_client_input(raw, layout)
    planes = ensemble_slot_streams(ens, layout)
    assert len(bundle.xgb_planes) == len(planes) == layout.num_blocks > 1
    held = set()
    for node, (block, stream, slot, feature) in enumerate(layout.entries):
        code = encode_feature(int(ternary[feature]))
        i = STREAMS.index(stream)
        le0, eq0 = bundle.xgb_planes[block, i]
        assert (le0[slot], eq0[slot]) == (1 - code.x2, code.x1)
        g = node // 3  # entries list each tree's three nodes in turn
        assert planes[block, i, slot] == ens.splits[g, i]
        tl = transform_leaves(ens.leaves[g])
        assert planes[block, 3:, slot].tolist() == [tl.l1, tl.l2, tl.l3, tl.l4]
        held.add((block, slot))
    assert len(held) < layout.num_blocks * slots  # the last block has empty slots
    for block in range(layout.num_blocks):
        empty = [sl for sl in range(slots) if (block, sl) not in held]
        # a slot that holds no tree reads v = 0 (both planes set) and y = 0
        assert (bundle.xgb_planes[block][..., empty] == 1).all()
        assert not planes[block][:, empty].any()


# ---------------------------------------------------------------------------
# dataset CSV
# ---------------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path, rng):
    samples = rng.integers(-2, 3, (10, 6))
    labels = rng.integers(0, 3, 10)
    ds = Dataset(samples, labels)
    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    again = load_dataset(path, labeled=True)
    assert np.array_equal(again.samples, samples)
    assert np.array_equal(again.labels, labels)
    unlabeled = load_dataset(path, labeled=False)
    assert unlabeled.samples.shape == (10, 7)  # labels kept as a data column


def test_save_dataset_refuses_unlabeled(tmp_path):
    with pytest.raises(ModelFormatError):
        save_dataset(Dataset(np.zeros((2, 3), dtype=np.int64)), tmp_path / "d.csv")
    assert not (tmp_path / "d.csv").exists()


def test_dataset_rejects_out_of_range():
    with pytest.raises(ModelFormatError):
        Dataset(np.array([[3]]), None)


def test_normalize_samples_matches_scalar_rule(rng):
    raw = rng.integers(-2, 3, 100)
    v = normalize_samples(raw)
    for i in range(100):
        assert v[i] == normalize_copy_number(int(raw[i]))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_gen_synthetic_deterministic():
    a = gen_synthetic(seed=12, s=3, k=4, d=20, n_samples=30)
    b = gen_synthetic(seed=12, s=3, k=4, d=20, n_samples=30)
    assert same_ensemble(a[0], b[0])
    assert np.array_equal(a[1].weights, b[1].weights)
    assert np.array_equal(a[2].samples, b[2].samples)
    assert np.array_equal(a[2].labels, b[2].labels)
    c = gen_synthetic(seed=13, s=3, k=4, d=20, n_samples=30)
    assert not np.array_equal(a[2].samples, c[2].samples)


def test_gen_synthetic_agreement_about_ninety_percent():
    ens, _, ds = gen_synthetic(seed=2, s=11, k=32, d=128, n_samples=1000)
    agreement = ensemble_agreement(ens, ds)
    assert 0.87 <= agreement <= 0.93


def test_gen_synthetic_thresholds_admissible():
    ens, _, _ = gen_synthetic(seed=3, s=2, k=4, d=10, n_samples=5)
    assert np.isin(ens.splits, (0, 1)).all()


def test_batch_scores_match_scalar_path(rng, params256, clear256, clear_keys256):
    # oracle: the slot circuit itself, run sample by sample on the clear mirror
    csk, cpk, cek = clear_keys256
    ens, _, ds = gen_synthetic(seed=8, s=4, k=8, d=32, n_samples=20)
    layout = build_layout(ens, params256.slot_count)
    pts = model_plane_plaintexts(clear256, ensemble_slot_streams(ens, layout))
    batch = ensemble_scores_clear_batch(ens, normalize_samples(ds.samples))
    for i in range(ds.num_samples):
        cts = encrypt_bundle(clear256, cpk, pack_client_input(ds.samples[i], layout), seed=i)
        out = infer_xgb_sample(clear256, cts["xgb"], pts, layout, cek)
        assert np.array_equal(batch[i], decrypt_class_scores(clear256, csk, out, layout))
