"""Acceptance criteria, one test per criterion, each printing a pass line.

Heavy criteria run at full benchmark dimensions (11 classes x 128 depth-2
trees; 2048-feature SVM) on the real presets; equality checks against the
clear fixed-point pipeline are exact, with zero tolerance.
"""

import itertools
import os
import time

import numpy as np
import pytest

from hedgerow import ClearBackend, CountingBackend, HeBackend, gen_params, make_test_params
from hedgerow.compare import compare_clear, encode_split
from hedgerow.metrics import micro_auc
from hedgerow.modelio import (
    build_layout,
    ensemble_scores_clear_batch,
    gen_synthetic,
    normalize_samples,
    pack_client_input,
    save_ensemble,
)
from hedgerow.ntt import NttPlan, find_ntt_primes
from hedgerow.pipeline import (
    decrypt_class_scores,
    encrypt_bundle,
    encrypt_split_planes,
    infer_xgb_sample,
    model_plane_plaintexts,
    run_bench,
    format_bench_table,
    BENCH_COLUMNS,
)
from hedgerow.modelio import ensemble_slot_streams
from hedgerow.svm import (
    confidence_integers,
    infer_encrypted,
    pack_features,
    quantize_model,
    svm_scores_clear,
)
from hedgerow.trees import transform_leaves, tree_score_clear

from oracles import compare_boolean, encode_feature, negacyclic_mul, reset_counts

SEED = 2026


def _report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------
# shared full-scale artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_dims():
    ens, svm_model, ds = gen_synthetic(seed=SEED, s=11, k=128, d=256, n_samples=100)
    clear_ref = ensemble_scores_clear_batch(ens, normalize_samples(ds.samples))
    return {"ens": ens, "svm": svm_model, "ds": ds, "clear_ref": clear_ref}


def _run_xgb_pipeline(dims, preset: str, encrypted_model: bool):
    params = gen_params(preset)
    he = HeBackend(params)
    sk, pk, ek = he.keygen(seed=SEED)
    ens, ds = dims["ens"], dims["ds"]
    layout = build_layout(ens, params.slot_count)
    planes = ensemble_slot_streams(ens, layout)
    plane_pts = model_plane_plaintexts(he, planes)
    enc_split = (
        encrypt_split_planes(he, pk, planes, seed=SEED + 1) if encrypted_model else None
    )
    scores = np.empty((ds.num_samples, ens.num_classes), dtype=np.int64)
    budgets = []
    for i in range(ds.num_samples):
        bundle = pack_client_input(ds.samples[i], layout)
        cts = encrypt_bundle(he, pk, bundle, seed=SEED + 10 + i)
        out_cts = infer_xgb_sample(he, cts["xgb"], plane_pts, layout, ek, enc_split)
        scores[i] = decrypt_class_scores(he, sk, out_cts, layout)
        budgets.extend(he.noise_budget(sk, ct) for ct in out_cts)
    return scores, budgets


@pytest.fixture(scope="module")
def xgb_run(full_dims):
    return _run_xgb_pipeline(full_dims, "xgb-d2", encrypted_model=False)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_comparison_gadget_exhaustive():
    start = time.perf_counter()
    for feature, threshold in itertools.product((-1, 0, 1), (-0.5, 0.5)):
        code = encode_feature(feature)
        y = encode_split(threshold)
        arithmetic = compare_clear(code, y)
        boolean = compare_boolean(code, y)
        direct = int(feature < threshold)
        assert arithmetic == boolean == direct
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"6-case truth table, three forms agree ({elapsed:.3f}s)")


def test_criterion_2_leaf_transform_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    for _ in range(1000):
        leaves = tuple(int(v) for v in rng.integers(-(2**25), 2**25, 4))
        tl = transform_leaves(leaves)
        for z in itertools.product((0, 1), repeat=3):
            z1, z2, z3 = z
            path_sum = (
                z1 * z2 * leaves[0]
                + z1 * (1 - z2) * leaves[1]
                + (1 - z1) * z3 * leaves[2]
                + (1 - z1) * (1 - z3) * leaves[3]
            )
            assert tree_score_clear(z, tl) == path_sum
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"1000 leaf quadruples x 8 paths, simplified == path sum ({elapsed:.3f}s)")


def test_criterion_3_homomorphism_suite():
    start = time.perf_counter()
    params = make_test_params(64, num_primes=6, depth_budget=2)
    t = params.plaintext_modulus
    he, cl = HeBackend(params), ClearBackend(params)
    steps_pool = [1, 2, 4, 8, 16, -1, -2, -4, -8, -16]
    sk, pk, ek = he.keygen(seed=SEED, rotation_steps=steps_pool)
    csk, cpk, cek = cl.keygen(seed=SEED, rotation_steps=steps_pool)
    rng = np.random.default_rng(SEED)

    cases = 1000

    def pair(seed):
        u = rng.integers(0, t, 64, dtype=np.int64)
        v = rng.integers(0, t, 64, dtype=np.int64)
        return (
            u,
            v,
            he.encrypt(pk, he.encode(u), seed),
            he.encrypt(pk, he.encode(v), seed + 1),
            cl.encrypt(cpk, cl.encode(u), None),
            cl.encrypt(cpk, cl.encode(v), None),
        )

    def check(got_ct, ref_ct):
        assert np.array_equal(
            he.decode(he.decrypt(sk, got_ct)), cl.decode(cl.decrypt(csk, ref_ct))
        )

    for i in range(cases):
        u, v, a, b, ca, cb = pair(2 * i)
        check(he.add_ct(a, b), cl.add_ct(ca, cb))
        check(he.sub_ct(a, b), cl.sub_ct(ca, cb))
        check(he.mul_pt(a, he.encode(v)), cl.mul_pt(ca, cl.encode(v)))

    for i in range(cases):
        u, v, a, b, ca, cb = pair(10_000 + 2 * i)
        check(he.mul_ct(a, b, ek), cl.mul_ct(ca, cb, cek))

    for i in range(cases):
        u, v, a, _, ca, _ = pair(40_000 + 2 * i)
        steps = steps_pool[i % len(steps_pool)]
        check(he.rotate(a, steps, ek), cl.rotate(ca, steps, cek))

    widths = [2, 4, 8, 16, 32, 64]
    for i in range(cases):
        u, v, a, _, ca, _ = pair(80_000 + 2 * i)
        width = widths[i % len(widths)]
        check(he.sum_slots(a, width, ek), cl.sum_slots(ca, width, cek))

    # NTT vs schoolbook negacyclic convolution for N <= 64
    for n in (4, 8, 16, 32, 64):
        primes = tuple(find_ntt_primes(29, 2, 2 * n))
        plan = NttPlan(n, primes)
        for _ in range(5):
            a = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
            b = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
            got = negacyclic_mul(plan, a, b)
            for row, p in enumerate(primes):
                ref = [0] * n
                for x in range(n):
                    for yj in range(n):
                        k2 = x + yj
                        val = int(a[row, x]) * int(b[row, yj])
                        if k2 >= n:
                            k2 -= n
                            val = -val
                        ref[k2] = (ref[k2] + val) % p
                assert np.array_equal(got[row], np.array(ref, dtype=np.uint64))

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"{cases} cases/op vs clear mirror + NTT-vs-schoolbook ({elapsed:.1f}s)")


def test_criterion_4_xgb_end_to_end_full_dims(full_dims, xgb_run):
    start = time.perf_counter()
    scores, budgets = xgb_run
    assert np.array_equal(scores, full_dims["clear_ref"])  # exact, zero tolerance
    assert min(budgets) >= 10
    elapsed = time.perf_counter() - start
    _report(
        4,
        "s=11 k=128 depth-2, 100 samples exact vs clear pipeline, "
        f"min budget {min(budgets)} bits",
    )


def test_criterion_5_encrypted_model_equivalence(full_dims, xgb_run):
    scores_em, budgets = _run_xgb_pipeline(full_dims, "xgb-encmodel-d3", encrypted_model=True)
    plain_scores, _ = xgb_run
    assert np.array_equal(scores_em, plain_scores)
    assert np.array_equal(scores_em, full_dims["clear_ref"])
    assert min(budgets) >= 10
    _report(5, f"xgb-encmodel scores identical to xgb, min budget {min(budgets)} bits")


def test_criterion_6_svm_end_to_end():
    start = time.perf_counter()
    params = gen_params("svm-d1")
    rng = np.random.default_rng(SEED)
    d, s = 2048, 11
    model = quantize_model(rng.normal(0, 0.1, (s, d)), rng.normal(0, 0.5, s), 20,
                           plaintext_modulus=params.plaintext_modulus)

    he = CountingBackend(HeBackend(params))
    sk, pk, ek = he.keygen(seed=SEED)
    n_samples = 10
    for i in range(n_samples):
        x = rng.integers(-1, 2, d)
        ct = he.encrypt(pk, he.encode(pack_features(x, params.slot_count)), seed=SEED + i)
        reset_counts(he)
        outs = infer_encrypted(he, ct, model, ek)
        # g = next_pow2(11) = 16 diagonals, the odd ones in row 1: 8 planes
        assert he.ops.get("mul_pt") == 8
        assert he.ops.get("rotate") == 11  # b = 2: 1 baby, 3 giant, the fold 1024..16
        assert he.ops.get("swap_rows") == 1  # the fold's last step, adding the rows
        assert he.ops.get("add_pt") == 1
        assert he.ops.get("mul_ct") == 0
        assert he.ops.get("mod_switch") == 1  # to the preset's 4 of 5 primes
        assert outs[0].prime_count == params.output_primes == 4
        got = confidence_integers(he, sk, outs, model)
        assert np.array_equal(got, svm_scores_clear(model, x))  # exact
        assert he.noise_budget(sk, outs[0]) >= 10
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        6,
        f"d=2048 s=11, {n_samples} samples exact; per sample 8 mul_pt + 11 rot + 1 swap + "
        f"1 add_pt, 1 output at 4 primes ({elapsed:.1f}s)",
    )


def test_criterion_7_micro_auc(full_dims, xgb_run):
    rng = np.random.default_rng(SEED)

    def pairwise_oracle(scores, labels):
        n, s = scores.shape
        pos, neg = [], []
        for i in range(n):
            for c in range(s):
                (pos if labels[i] == c else neg).append(scores[i, c])
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        return wins / (len(pos) * len(neg))

    for _ in range(10):
        n = int(rng.integers(5, 50))
        s = int(rng.integers(2, 5))
        scores = rng.normal(size=(n, s))
        labels = rng.integers(0, s, n)
        assert abs(micro_auc(scores, labels) - pairwise_oracle(scores, labels)) < 1e-9

    ties = rng.integers(0, 3, (40, 3)).astype(float)
    tie_labels = rng.integers(0, 3, 40)
    assert abs(micro_auc(ties, tie_labels) - pairwise_oracle(ties, tie_labels)) < 1e-9

    scores, _ = xgb_run
    confidences = scores / full_dims["ens"].quant_scale
    auc = micro_auc(confidences, full_dims["ds"].labels)
    assert 0.90 <= auc < 1.0
    _report(7, f"microAUC matches pairwise oracle; pipeline microAUC {auc:.4f} in [0.90, 1.0)")


def test_criterion_8_determinism_and_role_separation(tmp_path):
    from hedgerow.cli import EXIT_FORMAT, main
    from hedgerow.pipeline import (
        export_public_keyset,
        load_keyset,
        run_decrypt,
        run_encrypt,
        run_infer,
        write_keyset,
    )

    params = gen_params("xgb-d2")
    ens, svm_model, ds = gen_synthetic(seed=SEED, s=3, k=16, d=64, n_samples=3)
    save_ensemble(ens, tmp_path / "ens.json")
    layout = build_layout(ens, params.slot_count)

    # identical seeds: byte-identical keys
    write_keyset(tmp_path / "k1", params, seed=SEED)
    write_keyset(tmp_path / "k2", params, seed=SEED)
    for name in ("secret.key", "public.key", "eval.key", "params.txt"):
        assert (tmp_path / "k1" / name).read_bytes() == (tmp_path / "k2" / name).read_bytes()

    keyset = load_keyset(tmp_path / "k1", need_secret=True)
    export_public_keyset(tmp_path / "k1", tmp_path / "server")

    # byte-identical ciphertexts across runs and thread counts
    run_encrypt(layout, ds, keyset, SEED, tmp_path / "e1")
    run_encrypt(layout, ds, keyset, SEED, tmp_path / "e2")
    old = os.environ.get("HEDGEROW_THREADS")
    try:
        os.environ["HEDGEROW_THREADS"] = "1"
        run_infer("xgb", tmp_path / "ens.json", tmp_path / "e1", tmp_path / "server", tmp_path / "o1")
        os.environ["HEDGEROW_THREADS"] = "4"
        run_infer("xgb", tmp_path / "ens.json", tmp_path / "e2", tmp_path / "server", tmp_path / "o2")
    finally:
        if old is None:
            os.environ.pop("HEDGEROW_THREADS", None)
        else:
            os.environ["HEDGEROW_THREADS"] = old
    for d1, d2 in (("e1", "e2"), ("o1", "o2")):
        for sample_dir in sorted((tmp_path / d1).iterdir()):
            if sample_dir.is_dir():
                for f in sorted(sample_dir.iterdir()):
                    twin = tmp_path / d2 / sample_dir.name / f.name
                    assert f.read_bytes() == twin.read_bytes(), f
    run_decrypt(tmp_path / "o1", tmp_path / "k1", tmp_path / "r1.csv")
    run_decrypt(tmp_path / "o2", tmp_path / "k1", tmp_path / "r2.csv")
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    # the server subcommand refuses a key directory holding a secret key
    rc = main(
        [
            "infer", "--mode", "xgb",
            "--model", str(tmp_path / "ens.json"),
            "--in", str(tmp_path / "e1"),
            "--keys", str(tmp_path / "k1"),
            "--out", str(tmp_path / "refused"),
        ]
    )
    assert rc == EXIT_FORMAT
    _report(8, "byte-identical keys/ciphertexts/reports at any thread count; role guard holds")


def test_criterion_9_bench_column_sequence(tmp_path):
    rows = []
    for mode in ("svm", "xgb", "xgb-encmodel"):
        timing, evals = run_bench(
            mode, samples=2, seed=SEED, classes=3, trees=8, features=64,
            workdir=tmp_path / mode,
        )
        rows.append((mode, timing, evals.micro_auc))
        doc = timing.as_dict()
        assert list(doc.keys())[:5] == ["KeyGen", "Enc", "Comp", "Dec", "EndtoEnd"]
    table = format_bench_table(rows)
    header = table.splitlines()[0]
    assert BENCH_COLUMNS == ("KeyGen", "Enc", "Comp", "Dec", "EndtoEnd", "microAUC")
    position = [header.index(c) for c in BENCH_COLUMNS]
    assert position == sorted(position)
    assert len(table.splitlines()) == 4  # header + three mode rows
    print(table)
    _report(9, "bench table emits KeyGen, Enc, Comp, Dec, EndtoEnd, microAUC for all modes")
