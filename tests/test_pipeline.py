"""Pipeline-level properties: bench determinism, comp scaling, reports."""

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from hedgerow import (
    Ciphertext, CountingBackend, HeBackend, NoiseBudgetError, make_test_params,
)
from hedgerow.modelio import (
    ClientBundle,
    build_layout,
    ensemble_scores_clear_batch,
    ensemble_slot_streams,
    gen_synthetic,
    normalize_samples,
    pack_client_input,
)
from hedgerow import pipeline, serial
from hedgerow.pipeline import (
    decrypt_class_scores,
    encrypt_bundle,
    encrypt_split_planes,
    infer_xgb_sample,
    model_plane_plaintexts,
    run_bench,
)
from hedgerow.svm import infer_encrypted
from oracles import reset_counts


@pytest.mark.parametrize(
    "cap, workers",
    [("²", 8), ("abc", 8), ("0", 8), ("", 8), ("3", 3), (" 5 ", 5)],
    ids=["superscript-two", "abc", "zero", "empty", "three", "padded-five"],
)
def test_thread_count_reads_decimal_caps_only(monkeypatch, cap, workers):
    # "²" passes str.isdigit but not int(); like any non-cap it leaves the cpu count
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 8)
    monkeypatch.setenv("HEDGEROW_THREADS", cap)
    assert pipeline.thread_count(100) == workers
    assert pipeline.thread_count(2) == min(workers, 2)


def test_bench_same_seed_same_outputs(tmp_path):
    a, b = (run_bench("xgb", samples=2, seed=5, classes=2, trees=4, features=16,
                      workdir=tmp_path / run) for run in "ab")
    for key in ("microAUC", "accuracy", "metadata"):
        assert a[key] == b[key], key
    # key, upload, score and report artifacts byte-identical too
    scores = [f"scores/sample_{i:05d}/score_000.ct" for i in range(2)]
    for rel in ("keys/secret.key", "encrypted/sample_00000/svm.ct", "report.csv", *scores):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_comp_scales_with_block_count():
    # same ring, same per-block circuit; 1 vs 3 ciphertext blocks
    params = make_test_params(256, num_primes=11, depth_budget=2)
    he = HeBackend(params)
    sk, pk, ek = he.keygen(seed=1)

    def prepared(s, k):
        ens, _, ds = gen_synthetic(seed=2, s=s, k=k, d=32, n_samples=1)
        layout = build_layout(ens, params.slot_count)
        planes = model_plane_plaintexts(he, ensemble_slot_streams(ens, layout))
        cts = encrypt_bundle(he, pk, pack_client_input(ds.samples[0], layout), seed=3)
        return layout.num_blocks, (he, cts["xgb"], planes, layout, ek)

    b1, one = prepared(s=2, k=128)  # 256 trees = 1 block
    b3, three = prepared(s=6, k=128)  # 768 trees = 3 blocks
    assert (b1, b3) == (1, 3)
    # alternate the two sides, so a slow spell of the machine hits both;
    # the best of each side is its time
    best = {b1: float("inf"), b3: float("inf")}
    for _ in range(5):
        for blocks, args in ((b1, one), (b3, three)):
            t0 = time.perf_counter()
            infer_xgb_sample(*args)
            best[blocks] = min(best[blocks], time.perf_counter() - t0)
    ratio = best[b3] / best[b1]
    assert 1.8 <= ratio <= 5.0, f"comp did not scale ~linearly in blocks: {ratio:.2f}"


@pytest.mark.parametrize(
    "encrypted_model, mul_ct, mul_pt", [(False, 1, 5), (True, 4, 2)]
)
def test_xgb_block_cost_contract(encrypted_model, mul_ct, mul_pt, params256, clear256,
                                 clear_keys256):
    # per block: 3 comparisons (1 mul_pt, or 1 mul_ct with encrypted split
    # codes, and 1 sub_ct each) + tree scoring (1 mul_ct, 2 mul_pt) + log2(k)
    # class-sum rotations + the output's switch for download; the
    # comparisons read the split codes as stored and encode no constant
    counting = CountingBackend(clear256)
    _, cpk, cek = clear_keys256
    ens, _, ds = gen_synthetic(seed=8, s=2, k=8, d=24, n_samples=1)
    layout = build_layout(ens, params256.slot_count)
    assert layout.num_blocks == 1
    planes = ensemble_slot_streams(ens, layout)
    pts = model_plane_plaintexts(counting, planes)
    enc_split = encrypt_split_planes(counting, cpk, planes, seed=2) if encrypted_model else None
    cts = encrypt_bundle(counting, cpk, pack_client_input(ds.samples[0], layout), seed=1)
    reset_counts(counting)
    infer_xgb_sample(counting, cts["xgb"], pts, layout, cek, enc_split)
    assert counting.ops.get("mul_ct") == mul_ct
    assert counting.ops.get("mul_pt") == mul_pt
    assert counting.ops.get("rotate") == 3  # log2(8)
    assert counting.ops.get("mod_switch") == 1  # one output
    assert counting.ops.get("encode") == 0
    assert counting.ops.get("sub_pt") == 0
    # and every addition, (add_ct, sub_ct, add_pt): the same in both modes
    assert tuple(map(counting.ops.get, ("add_ct", "sub_ct", "add_pt"))) == (4, 4, 2)


def test_counting_backend_counts_every_public_op(clear256, clear_keys256):
    # no op list to keep in step with the backend: any public method counts
    sk, pk, _ = clear_keys256
    counting = CountingBackend(clear256)
    ct = counting.encrypt(pk, counting.encode([1, 2]), seed=0)
    counting.decode(counting.decrypt(sk, ct))
    counting.noise_budget(sk, ct)
    counting._check(ct)
    assert counting.ops.counts == {
        "encode": 1, "encrypt": 1, "decrypt": 1, "decode": 1, "noise_budget": 1,
    }


# SHA-256 over the serialized output ciphertexts of test_server_outputs_are_pinned;
# a change that alters these bytes on purpose updates the digest and says why
PINNED_OUTPUTS_SHA256 = "56c54582d75f795591af7c95bf4ce11d92a9b08328755ba6a9e454c13c6d97e8"


def test_server_outputs_are_pinned(params256):
    # both tree modes on a 1-block (2 x 4) and a 2-block (3 x 128) ensemble,
    # then the SVM, each output switched to 7 of the 11 primes: a circuit
    # that reorders its ops changes these bytes
    he = HeBackend(dataclasses.replace(params256, output_primes=7))
    _, pk, ek = he.keygen(seed=0xFACE)
    outputs = []
    for s, k in ((2, 4), (3, 128)):
        ens, model, ds = gen_synthetic(seed=9, s=s, k=k, d=32, n_samples=1)
        layout = build_layout(ens, he.params.slot_count)
        planes = ensemble_slot_streams(ens, layout)
        pts = model_plane_plaintexts(he, planes)
        cts = encrypt_bundle(he, pk, pack_client_input(ds.samples[0], layout), seed=s)
        for enc_split in (None, encrypt_split_planes(he, pk, planes, seed=k)):
            outputs += infer_xgb_sample(he, cts["xgb"], pts, layout, ek, enc_split)
    assert len(outputs) == 6
    outputs += infer_encrypted(he, cts["svm"], model, ek)
    assert {ct.prime_count for ct in outputs} == {7}
    digest = hashlib.sha256(b"".join(map(serial.serialize_ciphertext, outputs)))
    assert digest.hexdigest() == PINNED_OUTPUTS_SHA256


def _keyless_difference(backend, sk, x, y):
    """m_x - m_y read from c0_x - c0_y alone, as a server can when x and y
    share their encryption randomness: with c1 = 0 the key plays no part.
    None where no slot value can be read (no noise margin)."""
    c0 = backend.sub_ct(x, y).parts[0]
    try:
        return backend.decode(backend.decrypt(sk, Ciphertext(x.params, x.level, (c0, 0 * c0))))
    except NoiseBudgetError:
        return None


def test_upload_seeds_are_bound_to_the_plane(he256, keys256):
    # one encryption seed over two samples whose root eq0 planes differ
    sk, _, _ = keys256
    ens, _, ds = gen_synthetic(seed=4, s=2, k=4, d=16, n_samples=1)
    layout = build_layout(ens, he256.params.slot_count)
    a = pack_client_input(ds.samples[0], layout)
    planes = a.xgb_planes.copy()
    planes[0, 0, 1, :3] ^= 1
    b = ClientBundle(planes, a.svm_vector)
    cts_a, again, cts_b = (encrypt_bundle(he256, sk, x, seed=7) for x in (a, a, b))
    eq0_a, eq0_b = (cts["xgb"][0]["root"][1] for cts in (cts_a, cts_b))

    # the recovery reads m_A - m_B when two encryptions share their seed
    pt_a, pt_b = (he256.encode(p[0, 0, 1]) for p in (a.xgb_planes, planes))
    shared = [he256.encrypt(sk, pt, seed=11) for pt in (pt_a, pt_b)]
    truth = he256.decode(he256.decrypt(sk, he256.sub_ct(*shared)))
    assert truth.any() and np.array_equal(_keyless_difference(he256, sk, *shared), truth)
    # the uploads of different planes draw their own seeds, and it fails
    assert eq0_a.a_seed != eq0_b.a_seed
    recovered = _keyless_difference(he256, sk, eq0_a, eq0_b)
    assert recovered is None or not np.array_equal(recovered, truth)

    # one seed and one plane: the same bytes, so equal planes still show as equal
    def uploads(cts):
        return [serial.serialize_ciphertext(ct) for block in cts["xgb"]
                for pair in block.values() for ct in pair] + [serial.serialize_ciphertext(cts["svm"])]

    assert uploads(cts_a) == uploads(again)
    differs = [x != y for x, y in zip(uploads(cts_a), uploads(cts_b))]
    assert differs == [False, True] + [False] * (len(differs) - 2)


def test_clear_backend_runs_full_program(params256, clear256, clear_keys256):
    # the mirror backend executes the identical pipeline code path
    csk, cpk, cek = clear_keys256
    ens, _, ds = gen_synthetic(seed=6, s=3, k=8, d=24, n_samples=3)
    layout = build_layout(ens, params256.slot_count)
    pts = model_plane_plaintexts(clear256, ensemble_slot_streams(ens, layout))
    ref = ensemble_scores_clear_batch(ens, normalize_samples(ds.samples))
    for i in range(ds.num_samples):
        bundle = pack_client_input(ds.samples[i], layout)
        cts = encrypt_bundle(clear256, cpk, bundle, seed=i)
        out = infer_xgb_sample(clear256, cts["xgb"], pts, layout, cek)
        got = decrypt_class_scores(clear256, csk, out, layout)
        assert np.array_equal(got, ref[i])
    assert clear256.noise_budget(csk, out[0]) > 0
