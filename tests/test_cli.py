"""CLI flows: file-based phases, role separation, exit codes, determinism."""

import dataclasses
import json
import os
import shutil
import time

import numpy as np
import pytest

from hedgerow import HeBackend, HeParams, make_test_params
from hedgerow.cli import EXIT_CRYPTO, EXIT_FORMAT, EXIT_OK, main
from hedgerow.modelio import (
    build_layout,
    gen_synthetic,
    load_dataset,
    load_ensemble,
    normalize_samples,
    save_dataset,
    save_ensemble,
    save_layout,
    save_svm,
    ensemble_scores_clear_batch,
)
from hedgerow.pipeline import (
    export_public_keyset,
    load_keyset,
    run_decrypt,
    run_encrypt,
    run_infer,
    write_keyset,
)
from hedgerow.ntt import find_ntt_primes
from hedgerow.params import default_plaintext_modulus
from hedgerow.ring import get_ring
from hedgerow.serial import deserialize_ciphertext
from hedgerow.svm import svm_scores_clear


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small-ring working directory with keys, models, data, and bundles;
    the scores download at 7 of the 11 primes."""
    base = tmp_path_factory.mktemp("cliwork")
    params = dataclasses.replace(make_test_params(256, num_primes=11, depth_budget=3),
                                 output_primes=7)
    keydir = base / "keys"
    write_keyset(keydir, params, seed=99)
    server = base / "server-keys"
    export_public_keyset(keydir, server)

    ens, svm_model, ds = gen_synthetic(seed=21, s=3, k=8, d=32, n_samples=4)
    save_ensemble(ens, base / "ensemble.json")
    save_svm(svm_model, base / "svm.json")
    save_dataset(ds, base / "data.csv")

    layout = build_layout(ens, params.slot_count, svm_features=svm_model.num_features)
    save_layout(layout, base / "layout.json")

    keyset = load_keyset(keydir, need_secret=True)
    dataset = load_dataset(base / "data.csv", labeled=True)
    run_encrypt(layout, dataset, keyset, 7, base / "enc")
    return {
        "base": base,
        "params": params,
        "keydir": keydir,
        "server": server,
        "ens": ens,
        "svm": svm_model,
        "ds": ds,
        "layout": layout,
    }


def test_infer_decrypt_xgb_matches_clear_pipeline(workspace):
    base = workspace["base"]
    run_infer("xgb", base / "ensemble.json", base / "enc", workspace["server"], base / "out-xgb")
    _, preds, conf = run_decrypt(base / "out-xgb", workspace["keydir"], base / "report-xgb.csv")
    ref = ensemble_scores_clear_batch(
        workspace["ens"], normalize_samples(workspace["ds"].samples)
    )
    scale = workspace["ens"].quant_scale
    assert np.array_equal(conf * scale, ref.astype(np.float64))
    assert np.array_equal(preds, np.argmax(ref, axis=1))


def test_infer_decrypt_encmodel_identical_scores(workspace):
    base = workspace["base"]
    run_infer(
        "xgb-encmodel", base / "ensemble.json", base / "enc", workspace["server"], base / "out-em"
    )
    _, _, conf_em = run_decrypt(base / "out-em", workspace["keydir"], base / "report-em.csv")
    _, _, conf_plain = run_decrypt(base / "out-xgb", workspace["keydir"], base / "r2.csv")
    assert np.array_equal(conf_em, conf_plain)


def test_infer_decrypt_svm_matches_clear(workspace):
    base = workspace["base"]
    run_infer("svm", base / "svm.json", base / "enc", workspace["server"], base / "out-svm")
    _, preds, conf = run_decrypt(base / "out-svm", workspace["keydir"], base / "report-svm.csv")
    tern = normalize_samples(workspace["ds"].samples)
    model = workspace["svm"]
    ref = np.stack([svm_scores_clear(model, row[: model.num_features]) for row in tern])
    assert np.array_equal(conf * model.quant_scale, ref.astype(np.float64))
    assert np.array_equal(preds, np.argmax(ref, axis=1))


def test_report_csv_shape(workspace, xgb_scores, tmp_path):
    # the last column is each sample's smallest output margin, as
    # noise_budget reads it from the switched score files
    run_decrypt(xgb_scores, workspace["keydir"], tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "sample,pred,conf_0,conf_1,conf_2,noise_bits"
    assert len(lines) == 1 + workspace["ds"].num_samples
    be, sk = HeBackend(workspace["params"]), load_keyset(workspace["keydir"]).secret
    for i, line in enumerate(lines[1:]):
        cts = [deserialize_ciphertext(path.read_bytes(), workspace["params"])
               for path in sorted((xgb_scores / f"sample_{i:05d}").glob("score_*.ct"))]
        assert {ct.prime_count for ct in cts} == {7}
        assert int(line.split(",")[-1]) == min(be.noise_budget(sk, ct) for ct in cts) >= 10


def test_infer_refuses_a_switched_upload(workspace, xgb_scores, tmp_path, capsys):
    # a score file (7 of the 11 primes) put in an upload's place: exit 3,
    # naming the file, before any output is written
    enc = tmp_path / "enc"
    shutil.copytree(workspace["base"] / "enc", enc)
    target = enc / "sample_00000" / "svm.ct"
    shutil.copy(xgb_scores / "sample_00000" / "score_000.ct", target)
    argv = ["infer", "--mode", "svm", "--model", str(workspace["base"] / "svm.json"),
            "--in", str(enc), "--keys", str(workspace["server"]), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith(f"error: {target}: an upload holds all 11 primes")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [0, 7 - 1, 11 + 1])
def test_decrypt_refuses_a_bad_prime_count(workspace, xgb_scores, tmp_path, capsys, count):
    scores = tmp_path / "scores"
    shutil.copytree(xgb_scores, scores)
    target = scores / "sample_00000" / "score_000.ct"
    blob = target.read_bytes()
    assert int.from_bytes(blob[46:54], "little") == 7  # after the header and the level
    target.write_bytes(blob[:46] + count.to_bytes(8, "little") + blob[54:])
    argv = ["decrypt", "--in", str(scores), "--keys", str(workspace["keydir"]),
            "--report", str(tmp_path / "r.csv")]
    assert main(argv) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith(f"error: {target}: ")


def test_infer_refuses_secret_key(workspace):
    base = workspace["base"]
    rc = main(
        [
            "infer", "--mode", "xgb",
            "--model", str(base / "ensemble.json"),
            "--in", str(base / "enc"),
            "--keys", str(workspace["keydir"]),  # holds secret.key
            "--out", str(base / "refused"),
        ]
    )
    assert rc == EXIT_FORMAT
    assert not (base / "refused").exists()


@pytest.mark.parametrize(
    "mode, model",
    [("svm", "svm.json"), ("xgb", "ensemble.json"), ("xgb-encmodel", "ensemble.json")],
    ids=["svm", "xgb", "xgb-encmodel"],
)
def test_infer_thread_count_invariance(workspace, monkeypatch, mode, model):
    base = workspace["base"]
    runs = {}
    for threads in ("1", "3"):
        monkeypatch.setenv("HEDGEROW_THREADS", threads)
        if threads == "3":
            get_ring.cache_clear()  # a fresh ring, built before the pool starts
        out = runs[threads] = base / f"threads{threads}-{mode}"
        run_infer(mode, base / model, base / "enc", workspace["server"], out)
        run_decrypt(out, workspace["keydir"], out / "report.csv")
    one, three = (sorted(p.relative_to(runs[t]) for p in runs[t].rglob("*")) for t in ("1", "3"))
    assert one == three
    for rel in one:
        if (runs["1"] / rel).is_file():
            assert (runs["1"] / rel).read_bytes() == (runs["3"] / rel).read_bytes(), rel


def test_client_roles_read_only_their_keys(workspace, tmp_path):
    # encrypt and decrypt read params.txt and secret.key: encrypt needs
    # neither public.key nor eval.key, and refuses a directory without
    # secret.key (the server's) before writing anything
    base = workspace["base"]
    client = tmp_path / "client-keys"
    shutil.copytree(workspace["keydir"], client)
    (client / "eval.key").unlink()
    (client / "public.key").unlink()
    encrypt = ["encrypt", "--model-layout", str(base / "layout.json"), "--data",
               str(base / "data.csv"), "--labeled", "--seed", "7", "--keys"]
    assert main(encrypt + [str(client), "--out", str(tmp_path / "enc")]) == EXIT_OK
    assert (tmp_path / "enc" / "sample_00000" / "svm.ct").read_bytes() == (
        base / "enc" / "sample_00000" / "svm.ct").read_bytes()
    refused = tmp_path / "enc-server"
    assert main(encrypt + [str(workspace["server"]), "--out", str(refused)]) == EXIT_FORMAT
    assert not refused.exists()
    infer = ["infer", "--mode", "svm", "--model", str(base / "svm.json"),
             "--in", str(tmp_path / "enc"), "--out", str(tmp_path / "scores"), "--keys"]
    assert main(infer + [str(client)]) == EXIT_FORMAT  # still refused: secret key present
    assert main(infer + [str(workspace["server"])]) == EXIT_OK
    rc = main(["decrypt", "--in", str(tmp_path / "scores"), "--keys", str(client),
               "--report", str(tmp_path / "report.csv")])
    assert rc == EXIT_OK
    _, _, full = run_decrypt(tmp_path / "scores", workspace["keydir"], None)
    _, _, trimmed = run_decrypt(tmp_path / "scores", client, None)
    assert np.array_equal(trimmed, full)


def test_encrypt_writes_seeded_uploads(workspace):
    # every upload is encrypted under the secret key: c0 and its own a_seed,
    # 78 + 4*K*N bytes, with no two ciphertexts sharing a seed
    params = workspace["params"]
    uploads = sorted((workspace["base"] / "enc").glob("sample_*/*.ct"))
    size = 78 + 4 * len(params.coeff_modulus) * params.ring_degree
    assert uploads and {p.stat().st_size for p in uploads} == {size}
    seeds = {deserialize_ciphertext(p.read_bytes(), params).a_seed for p in uploads}
    assert None not in seeds and len(seeds) == len(uploads)


def test_encrypt_deterministic_bytes(workspace, tmp_path):
    base = workspace["base"]
    keyset = load_keyset(workspace["keydir"], need_secret=True)
    dataset = load_dataset(base / "data.csv", labeled=True)
    run_encrypt(workspace["layout"], dataset, keyset, 7, tmp_path / "enc2")
    for sample_dir in sorted((base / "enc").iterdir()):
        if sample_dir.is_dir():
            for f in sorted(sample_dir.iterdir()):
                twin = tmp_path / "enc2" / sample_dir.name / f.name
                assert f.read_bytes() == twin.read_bytes()


def test_encrypt_draws_a_fresh_seed_unless_one_is_given(workspace, tmp_path):
    # one plane encrypted twice under one seed gives the same ciphertext (equal
    # c1), so without --seed every run draws its own; --seed reproduces the bytes
    base = workspace["base"]
    argv = ["encrypt", "--model-layout", str(base / "layout.json"), "--data",
            str(base / "data.csv"), "--labeled", "--keys", str(workspace["keydir"])]
    runs = {"a": [], "b": [], "c": ["--seed", "7"], "d": ["--seed", "7"]}
    for name, seed in runs.items():
        assert main(argv + seed + ["--out", str(tmp_path / name)]) == EXIT_OK

    def upload(name):
        return (tmp_path / name / "sample_00000" / "block_000.root.eq0.ct").read_bytes()

    c1a, c1b = (deserialize_ciphertext(upload(n), workspace["params"]).parts[1] for n in "ab")
    assert not np.array_equal(c1a, c1b)
    assert upload("c") == upload("d") == (
        base / "enc" / "sample_00000" / "block_000.root.eq0.ct").read_bytes()


def test_keygen_draws_a_fresh_seed_unless_one_is_given(tmp_path):
    # the secret key is a function of the seed, so a guessable seed would
    # give a guessable key: without --seed every run draws its own
    for name in "ab":
        assert main(["keygen", "--preset", "xgb-d2", "--out", str(tmp_path / name)]) == EXIT_OK
    for name in "cd":
        argv = ["keygen", "--preset", "xgb-d2", "--seed", "5", "--out", str(tmp_path / name)]
        assert main(argv) == EXIT_OK

    def secret(name):
        return (tmp_path / name / "secret.key").read_bytes()

    assert secret("a") != secret("b")
    assert secret("c") == secret("d")


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
def test_secret_key_is_written_owner_only(tmp_path):
    keydir = tmp_path / "keys"
    keydir.mkdir()
    (keydir / "secret.key").write_bytes(b"old")
    (keydir / "secret.key").chmod(0o644)  # an older, world-readable key is replaced
    write_keyset(keydir, make_test_params(64, num_primes=6, depth_budget=2), seed=5)
    assert (keydir / "secret.key").stat().st_mode & 0o077 == 0
    assert (keydir / "secret.key").read_bytes() != b"old"


@pytest.fixture(scope="module")
def shallow(workspace, tmp_path_factory):
    """Depth-1 keys (server copy) and bundles encrypted under them."""
    base = tmp_path_factory.mktemp("shallow")
    params = make_test_params(256, num_primes=11, depth_budget=1)
    write_keyset(base / "keys", params, seed=1)
    export_public_keyset(base / "keys", base / "server")
    keyset = load_keyset(base / "keys", need_secret=True)
    dataset = load_dataset(workspace["base"] / "data.csv", labeled=True)
    layout = build_layout(workspace["ens"], params.slot_count)
    run_encrypt(layout, dataset, keyset, 7, base / "enc")
    return base


def test_depth_guard_rejects_shallow_params(workspace, shallow, tmp_path):
    rc = main(
        [
            "infer", "--mode", "xgb-encmodel",
            "--model", str(workspace["base"] / "ensemble.json"),
            "--in", str(shallow / "enc"),
            "--keys", str(shallow / "server"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_FORMAT


def test_xgb_exact_at_depth_one(workspace, shallow, tmp_path):
    run_infer("xgb", workspace["base"] / "ensemble.json", shallow / "enc", shallow / "server",
              tmp_path / "out")
    _, _, conf = run_decrypt(tmp_path / "out", shallow / "keys", None)
    ref = ensemble_scores_clear_batch(
        workspace["ens"], normalize_samples(workspace["ds"].samples)
    )
    assert np.array_equal(conf * workspace["ens"].quant_scale, ref.astype(np.float64))


def test_infer_rejects_tampered_upload(workspace, tmp_path):
    enc = tmp_path / "enc"
    shutil.copytree(workspace["base"] / "enc", enc)
    target = enc / "sample_00000" / "block_000.root.le0.ct"
    blob = bytearray(target.read_bytes())
    blob[-4:] = (2**32 - 1).to_bytes(4, "little")  # a limb far above its prime
    target.write_bytes(bytes(blob))
    rc = main(
        [
            "infer", "--mode", "xgb",
            "--model", str(workspace["base"] / "ensemble.json"),
            "--in", str(enc),
            "--keys", str(workspace["server"]),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_FORMAT


def test_infer_refuses_bundles_with_the_old_plane_names(workspace, tmp_path, capsys):
    # uploads named for the one-hot planes x0 / x2 are not the planes the
    # comparison reads: the server refuses them and names the file it misses
    enc = tmp_path / "enc"
    shutil.copytree(workspace["base"] / "enc", enc)
    for new, old in (("le0", "x0"), ("eq0", "x2")):
        for path in enc.glob(f"sample_*/*.{new}.ct"):
            path.rename(path.with_name(path.name.replace(f".{new}.", f".{old}.")))
    argv = ["infer", "--mode", "xgb", "--model", str(workspace["base"] / "ensemble.json"),
            "--in", str(enc), "--keys", str(workspace["server"]), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_FORMAT
    assert str(enc / "sample_00000" / "block_000.root.le0.ct") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def xgb_scores(workspace):
    base = workspace["base"]
    run_infer("xgb", base / "ensemble.json", base / "enc", workspace["server"], base / "xgb-scores")
    return base / "xgb-scores"


_DROP = object()


@pytest.mark.parametrize(
    "role, field, value",
    [
        pytest.param("infer", "samples", _DROP, id="infer-no-samples"),
        pytest.param("infer", "svm_features", _DROP, id="infer-no-svm_features"),
        pytest.param("infer", "samples", "abc", id="infer-samples-abc"),
        pytest.param("infer", "samples", -3, id="infer-samples-negative"),
        pytest.param("infer", "layout_digest", _DROP, id="infer-no-layout_digest"),
        pytest.param("infer", "layout_digest", "ab" * 31, id="infer-layout_digest-short"),
        pytest.param("infer", "layout_digest", "AB" * 32, id="infer-layout_digest-upper"),
        pytest.param("decrypt", "samples", _DROP, id="decrypt-no-samples"),
        pytest.param("decrypt", "samples", "abc", id="decrypt-samples-abc"),
        pytest.param("decrypt", "samples", -3, id="decrypt-samples-negative"),
        pytest.param("decrypt", "samples", 2**62, id="decrypt-samples-huge"),
        pytest.param("decrypt", "scale_bits", -1, id="decrypt-scale_bits-negative"),
        pytest.param("decrypt", "class_positions", [[0, 99999]] * 3, id="decrypt-slot-outside"),
        pytest.param("decrypt", "class_positions", [[1, 0]] * 3, id="decrypt-output-outside"),
        pytest.param("decrypt", "mode", "bogus", id="decrypt-mode-bogus"),
        pytest.param("decrypt", "mode", ["xgb"], id="decrypt-mode-list"),
        pytest.param("ensemble", "scale_bits", -1, id="ensemble-scale_bits-negative"),
    ],
)
def test_hostile_manifest_exits_format(workspace, xgb_scores, tmp_path, role, field, value):
    base = workspace["base"]
    enc, scores, ensemble = tmp_path / "enc", tmp_path / "scores", tmp_path / "ensemble.json"
    shutil.copytree(base / "enc", enc)
    shutil.copytree(xgb_scores, scores)
    shutil.copy(base / "ensemble.json", ensemble)
    edited = {"infer": enc / "manifest.json", "decrypt": scores / "manifest.json",
              "ensemble": ensemble}[role]
    doc = json.loads(edited.read_text())
    if value is _DROP:
        del doc[field]
    else:
        doc[field] = value
    edited.write_text(json.dumps(doc))
    if role == "decrypt":
        argv = ["decrypt", "--in", str(scores), "--keys", str(workspace["keydir"]),
                "--report", str(tmp_path / "r.csv")]
    else:
        mode, model = ("svm", base / "svm.json") if role == "infer" else ("xgb", ensemble)
        argv = ["infer", "--mode", mode, "--model", str(model), "--in", str(enc),
                "--keys", str(workspace["server"]), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_FORMAT


def test_zero_sample_manifest_writes_header_only(workspace, xgb_scores, tmp_path):
    scores, report = tmp_path / "scores", tmp_path / "r.csv"
    shutil.copytree(xgb_scores, scores)
    doc = json.loads((scores / "manifest.json").read_text())
    doc["samples"] = 0
    (scores / "manifest.json").write_text(json.dumps(doc))
    argv = ["decrypt", "--in", str(scores), "--keys", str(workspace["keydir"]),
            "--report", str(report)]
    assert main(argv) == EXIT_OK
    header = "sample,pred," + ",".join(f"conf_{c}" for c in range(doc["classes"])) + ",noise_bits"
    assert report.read_text().splitlines() == [header]


@pytest.mark.parametrize("packing", [_DROP, "row1-zero"], ids=["no-svm_packing", "other-packing"])
def test_infer_svm_refuses_bundles_packed_before_the_row_shift(workspace, tmp_path, packing):
    # a bundle packed with row 1 zero carries the same svm_features: the SVM
    # would read the empty row as x's shift and decrypt to wrong scores, so
    # it is refused before any output is written; the tree modes read it
    enc = tmp_path / "enc"
    shutil.copytree(workspace["base"] / "enc", enc)
    doc = json.loads((enc / "manifest.json").read_text())
    assert doc["svm_packing"] == "row1-shift1"
    if packing is _DROP:
        del doc["svm_packing"]
    else:
        doc["svm_packing"] = packing
    (enc / "manifest.json").write_text(json.dumps(doc))
    base, keys = workspace["base"], str(workspace["server"])
    argv = ["infer", "--mode", "svm", "--model", str(base / "svm.json"), "--in", str(enc),
            "--keys", keys, "--out", str(tmp_path / "scores")]
    assert main(argv) == EXIT_FORMAT
    assert not (tmp_path / "scores").exists()
    argv = ["infer", "--mode", "xgb", "--model", str(base / "ensemble.json"), "--in", str(enc),
            "--keys", keys, "--out", str(tmp_path / "xgb-scores")]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("mode", ["xgb", "xgb-encmodel"])
def test_infer_refuses_bundles_packed_for_another_ensemble(workspace, tmp_path, mode):
    # same shape, other features: without the layout digest the server would
    # read each upload as another tree's feature and decrypt to wrong scores
    other, _, _ = gen_synthetic(seed=22, s=3, k=8, d=32, n_samples=1)
    assert (other.features[0] != workspace["ens"].features[0]).any()
    save_ensemble(other, tmp_path / "other.json")
    argv = ["infer", "--mode", mode, "--model", str(tmp_path / "other.json"), "--in",
            str(workspace["base"] / "enc"), "--keys", str(workspace["server"]),
            "--out", str(tmp_path / "scores")]
    assert main(argv) == EXIT_FORMAT
    assert not (tmp_path / "scores").exists()


def test_svm_infer_ignores_the_block_count(workspace, tmp_path):
    # svm mode reads one upload per sample, so no block count may size
    # anything and the tree layout's digest is not checked
    base = workspace["base"]
    hostile = tmp_path / "hostile"
    shutil.copytree(base / "enc", hostile)
    doc = json.loads((hostile / "manifest.json").read_text())
    doc["blocks"] = 2**62
    doc["layout_digest"] = "0" * 64
    (hostile / "manifest.json").write_text(json.dumps(doc))
    reports = []
    for enc, scores in ((base / "enc", tmp_path / "scores"),
                        (hostile, tmp_path / "hostile-scores")):
        start = time.perf_counter()
        assert main(["infer", "--mode", "svm", "--model", str(base / "svm.json"), "--in",
                     str(enc), "--keys", str(workspace["server"]), "--out", str(scores)]) == EXIT_OK
        assert time.perf_counter() - start < 30
        assert main(["decrypt", "--in", str(scores), "--keys", str(workspace["keydir"]),
                     "--report", str(scores / "report.csv")]) == EXIT_OK
        reports.append((scores / "report.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[]"], ids=["not-utf8", "not-an-object"])
def test_unreadable_manifest_exits_format(workspace, xgb_scores, tmp_path, content):
    scores = tmp_path / "scores"
    shutil.copytree(xgb_scores, scores)
    (scores / "manifest.json").write_bytes(content)
    argv = ["decrypt", "--in", str(scores), "--keys", str(workspace["keydir"]),
            "--report", str(tmp_path / "r.csv")]
    assert main(argv) == EXIT_FORMAT


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: {"tree_features": [[-1, 0, 0]] + d["tree_features"][1:]},
                     id="feature-minus-one"),
        pytest.param(lambda d: {"tree_features": [[d["features"], 0, 0]] + d["tree_features"][1:]},
                     id="feature-equal-features"),
        pytest.param(lambda d: {"tree_features": [[0, 0]] + d["tree_features"][1:]},
                     id="tree-of-two-features"),
        pytest.param(lambda d: {"features": 2**71,
                                "tree_features": [[0, 2**70, 1]] + d["tree_features"][1:]},
                     id="feature-beyond-int64"),
        pytest.param(lambda d: {"tree_features": d["tree_features"][:-1]}, id="tree-count"),
        pytest.param(lambda d: {"trees_per_class": 3, "tree_features": d["tree_features"][:9]},
                     id="trees_per_class-3"),
        pytest.param(lambda d: {"trees_per_class": 512, "tree_features": [[0, 0, 0]] * 3 * 512},
                     id="trees_per_class-above-slots"),
        pytest.param(lambda d: {"svm_features": 0}, id="svm_features-0"),
        pytest.param(lambda d: {"svm_features": -5}, id="svm_features-negative"),
        pytest.param(lambda d: {"svm_features": d["slot_count"] + 1}, id="svm_features-above-slots"),
        pytest.param(lambda d: {"svm_features": True}, id="bool-count"),
        pytest.param(lambda d: {"features": float(d["features"])}, id="float-count"),
    ],
)
def test_hostile_layout_exits_format(workspace, tmp_path, edit):
    base = workspace["base"]
    doc = json.loads((base / "layout.json").read_text())
    assert (doc["slot_count"], doc["classes"], doc["trees_per_class"]) == (256, 3, 8)
    doc.update(edit(doc))
    (tmp_path / "layout.json").write_text(json.dumps(doc))
    argv = ["encrypt", "--model-layout", str(tmp_path / "layout.json"),
            "--data", str(base / "data.csv"), "--labeled", "--keys", str(workspace["keydir"]),
            "--out", str(tmp_path / "enc")]
    assert main(argv) == EXIT_FORMAT


def _first_tree(field, value):
    def edit(doc):
        doc["trees"][0][field] = value
    return edit


@pytest.mark.parametrize(
    "model, edit",
    [
        # each edit keeps the tree count and feature range consistent, so only
        # the type of the edited field is wrong
        pytest.param("ensemble", lambda d: d.update(classes=3.5), id="classes-float"),
        pytest.param("ensemble", lambda d: d.update(classes=24, trees_per_class=True),
                     id="trees_per_class-bool"),
        pytest.param("ensemble", lambda d: d.update(scale_bits=20.7), id="scale_bits-float"),
        pytest.param("ensemble", lambda d: d.update(features=str(d["features"])),
                     id="features-string"),
        pytest.param("ensemble", _first_tree("feat", [0, 1.5, True]), id="feat-float-bool"),
        pytest.param("ensemble", _first_tree("leaves", [float("nan")] * 4), id="leaf-nan"),
        pytest.param("ensemble", _first_tree("leaves", [float("inf")] * 4), id="leaf-inf"),
        pytest.param("ensemble", lambda d: d.update(trees=5), id="trees-int"),
        pytest.param("svm", lambda d: d["weights"].__setitem__(0, float("nan")), id="weight-nan"),
        pytest.param("svm", lambda d: d["weights"].__setitem__(0, 1e300), id="weight-1e300"),
    ],
)
def test_hostile_model_exits_format(workspace, tmp_path, model, edit):
    base = workspace["base"]
    for name in ("ensemble.json", "svm.json"):
        shutil.copy(base / name, tmp_path / name)
    doc = json.loads((tmp_path / f"{model}.json").read_text())
    edit(doc)
    (tmp_path / f"{model}.json").write_text(json.dumps(doc))
    argv = ["layout", "--model", str(tmp_path / "ensemble.json"), "--svm", str(tmp_path / "svm.json"),
            "--keys", str(workspace["keydir"]), "--out", str(tmp_path / "layout.json")]
    assert main(argv) == EXIT_FORMAT


@pytest.mark.parametrize(
    "key, line",
    [("preset", "preset=caf\u00e9"), ("N", "N=abc"), ("primes", "primes="), ("depth", "depth=x"),
     ("depth", "depth=100000000000000000000000"),
     # the 41-bit default t that key directories held before t became word-sized
     ("t", f"t={find_ntt_primes(41, 1, 512)[0]}")],
    ids=["non-ascii", "N-abc", "primes-empty", "depth-x", "depth-1e23", "t-41-bit"],
)
def test_bad_params_file_exits_format(workspace, tmp_path, key, line):
    keys = tmp_path / "keys"
    shutil.copytree(workspace["keydir"], keys)
    text = (keys / "params.txt").read_text(encoding="ascii")
    lines = [line if old.startswith(key + "=") else old for old in text.splitlines()]
    (keys / "params.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["layout", "--model", str(workspace["base"] / "ensemble.json"), "--keys", str(keys),
            "--out", str(tmp_path / "layout.json")]
    assert main(argv) == EXIT_FORMAT


def test_noise_exhaustion_exits_crypto(tmp_path):
    # parameters far too small for the depth-2 circuit: decrypt must refuse
    params = make_test_params(64, num_primes=4, depth_budget=2)
    keydir = tmp_path / "keys"
    write_keyset(keydir, params, seed=3)
    server = tmp_path / "server"
    export_public_keyset(keydir, server)
    ens, svm_model, ds = gen_synthetic(seed=5, s=2, k=4, d=16, n_samples=1)
    save_ensemble(ens, tmp_path / "ens.json")
    layout = build_layout(ens, params.slot_count)
    keyset = load_keyset(keydir, need_secret=True)
    run_encrypt(layout, ds, keyset, 1, tmp_path / "enc")
    run_infer("xgb", tmp_path / "ens.json", tmp_path / "enc", server, tmp_path / "out")
    rc = main(
        [
            "decrypt",
            "--in", str(tmp_path / "out"),
            "--keys", str(keydir),
            "--report", str(tmp_path / "r.csv"),
        ]
    )
    assert rc == EXIT_CRYPTO


def test_cli_synth_layout_roundtrip(tmp_path):
    assert (
        main(
            [
                "synth", "--seed", "11", "--classes", "2", "--trees", "4",
                "--features", "16", "--samples", "3", "--out", str(tmp_path / "synth"),
            ]
        )
        == EXIT_OK
    )
    synth = tmp_path / "synth"
    for name in ("ensemble.json", "svm.json", "data.csv"):
        assert (synth / name).exists()
    ens = load_ensemble(synth / "ensemble.json")
    samples = load_dataset(synth / "data.csv", labeled=True).samples
    ref = ensemble_scores_clear_batch(ens, normalize_samples(samples))
    primes = tuple(find_ntt_primes(29, 5, 128))
    # the second set adds a 30-bit coefficient prime to the 29-bit ones
    for case, coeff in enumerate((primes, primes + (1073741441,))):
        work = tmp_path / f"case{case}"
        keys, server = work / "keys", work / "server"
        write_keyset(keys, HeParams(64, coeff, default_plaintext_modulus(64), 2), seed=1)
        export_public_keyset(keys, server)
        steps = [
            ["layout", "--model", str(synth / "ensemble.json"), "--svm", str(synth / "svm.json"),
             "--keys", str(keys), "--out", str(work / "layout.json")],
            ["encrypt", "--model-layout", str(work / "layout.json"), "--data",
             str(synth / "data.csv"), "--labeled", "--keys", str(keys), "--seed", "7",
             "--out", str(work / "enc")],
            ["infer", "--mode", "xgb", "--model", str(synth / "ensemble.json"), "--in",
             str(work / "enc"), "--keys", str(server), "--out", str(work / "scores")],
            ["decrypt", "--in", str(work / "scores"), "--keys", str(keys),
             "--report", str(work / "report.csv")],
        ]
        for argv in steps:
            assert main(argv) == EXIT_OK, argv[0]
        assert json.loads((work / "layout.json").read_text())["slot_count"] == 64
        _, _, conf = run_decrypt(work / "scores", keys, None)
        assert np.array_equal(conf * ens.quant_scale, ref.astype(np.float64))


def test_xgb_round_trip_with_more_features_than_slots(tmp_path):
    # trees read only the features they name, so a 100-feature ensemble runs
    # on 64 slots; the layout command needs no --svm for it
    params = make_test_params(64, num_primes=6, depth_budget=2)
    keys, server = tmp_path / "keys", tmp_path / "server"
    write_keyset(keys, params, seed=1)
    export_public_keyset(keys, server)
    ens, _, ds = gen_synthetic(1, 2, 4, 100, 3)
    assert ens.num_features == 100
    save_ensemble(ens, tmp_path / "ensemble.json")
    save_dataset(ds, tmp_path / "data.csv")
    steps = [
        ["layout", "--model", str(tmp_path / "ensemble.json"), "--keys", str(keys),
         "--out", str(tmp_path / "layout.json")],
        ["encrypt", "--model-layout", str(tmp_path / "layout.json"), "--data",
         str(tmp_path / "data.csv"), "--labeled", "--keys", str(keys), "--seed", "7",
         "--out", str(tmp_path / "enc")],
        ["infer", "--mode", "xgb", "--model", str(tmp_path / "ensemble.json"), "--in",
         str(tmp_path / "enc"), "--keys", str(server), "--out", str(tmp_path / "scores")],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv[0]
    assert json.loads((tmp_path / "layout.json").read_text())["svm_features"] == 64
    _, preds, conf = run_decrypt(tmp_path / "scores", keys, None)
    ref = ensemble_scores_clear_batch(ens, normalize_samples(ds.samples))
    assert conf.shape == (3, 2)
    assert np.array_equal(conf * ens.quant_scale, ref.astype(np.float64))
    assert np.array_equal(preds, np.argmax(ref, axis=1))


def test_bench_json_into_missing_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--mode", "xgb", "--samples", "2", "--classes", "2", "--trees", "4",
            "--features", "16", "--json", "work/bench/bench.json"]
    assert main(argv) == EXIT_OK
    report = json.loads((tmp_path / "work/bench/bench.json").read_text())
    assert {"KeyGen", "Enc", "Comp", "Dec", "EndtoEnd", "microAUC"} <= set(report["xgb"])


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["keygen", "--preset", "svm-d1"])  # missing --out
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["infer", "--mode", "bogus", "--model", "x", "--in", "y", "--keys", "z", "--out", "w"])
    assert err.value.code == 2


def test_bad_seed_exits_format(tmp_path):
    rc = main(["synth", "--seed", "xyz", "--out", str(tmp_path / "s")])
    assert rc == EXIT_FORMAT


def test_missing_model_file_exits_format(workspace, tmp_path):
    rc = main(
        [
            "infer", "--mode", "xgb",
            "--model", str(tmp_path / "missing.json"),
            "--in", str(workspace["base"] / "enc"),
            "--keys", str(workspace["server"]),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == EXIT_FORMAT


@pytest.mark.parametrize("damage, code", [("cut-upload", EXIT_FORMAT),
                                           ("eval-key-version-4", EXIT_FORMAT),
                                           ("eval-key-other-params", EXIT_CRYPTO)])
def test_refused_container_names_its_file(workspace, tmp_path, capsys, damage, code):
    enc, keys = tmp_path / "enc", tmp_path / "server"
    shutil.copytree(workspace["base"] / "enc", enc)
    shutil.copytree(workspace["server"], keys)
    if damage == "cut-upload":
        target = enc / "sample_00000" / "svm.ct"
        target.write_bytes(target.read_bytes()[:-8])
    else:
        target = keys / "eval.key"
        blob = bytearray(target.read_bytes())
        if damage == "eval-key-version-4":
            blob[4] = 4  # the version byte
        else:
            blob[6] ^= 1  # the first byte of the params fingerprint
        target.write_bytes(bytes(blob))
    argv = ["infer", "--mode", "svm", "--model", str(workspace["base"] / "svm.json"),
            "--in", str(enc), "--keys", str(keys), "--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: {target}: ")


def test_params_beyond_exact_base_conversion_exit_format(workspace, tmp_path, capsys):
    # 33 coefficient primes are valid params, but their tensor basis holds
    # more than the 64 primes an exact base conversion allows
    keys = tmp_path / "server"
    shutil.copytree(workspace["server"], keys)
    n = workspace["params"].ring_degree
    t, *primes = find_ntt_primes(31, 34, 2 * n)
    (keys / "params.txt").write_text(
        f"N={n}\nprimes={','.join(map(str, primes))}\nt={t}\ndepth=1\n", encoding="ascii")
    argv = ["infer", "--mode", "svm", "--model", str(workspace["base"] / "svm.json"),
            "--in", str(workspace["base"] / "enc"), "--keys", str(keys),
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_FORMAT
    assert "exceeds 64" in capsys.readouterr().err
