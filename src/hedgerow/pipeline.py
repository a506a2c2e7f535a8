"""End-to-end phases: client packing/encryption, server evaluation, client
decryption, and benchmark reporting.

The exchange between roles is file-based: a key directory (params.txt plus
key containers), a directory of per-sample upload ciphertexts, and one of
per-sample score ciphertexts, each with a manifest that ``read_manifest``
validates.  Every mode writes the same scores: ``score_NNN.ct`` files and a
manifest ``{mode, samples, classes, scale_bits, outputs, class_positions}``
placing class c at (output, slot) ``class_positions[c]``.  Only
``server_model`` looks at the mode.  Each role reads only the key files
it uses: encrypt and decrypt ``secret.key``, infer ``eval.key`` (and
``public.key`` to encrypt split codes).  The client encrypts its uploads
under the secret key, so each is written seeded: c0 and the 32-byte seed
its c1 expands from, half the bytes of a public-key encryption (serial.py).
The server-side entry points never accept or load a secret key;
``load_keyset(forbid_secret=True)`` additionally refuses to run when one is
present in the key directory.

Evaluation works against either backend (encrypted or clear mirror), which
is how the oracle-equivalence tests drive the identical circuit on both.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import serial
from .compare import compare_encrypted, compare_encrypted_model
from .errors import FingerprintMismatchError, ModelFormatError, SerializationError
from .metrics import accuracy, micro_auc
from .modelio import (
    PLANES,
    STREAMS,
    ClientBundle,
    FeatureLayout,
    build_layout,
    ensemble_slot_streams,
    gen_synthetic,
    is_int,
    load_ensemble,
    load_svm,
    pack_client_input,
    read_json,
    save_ensemble,
    save_svm,
)
from .params import HeParams, gen_params, load_params, save_params
from .scheme import HeBackend, Prg, decrypt_scores, keygen, read_scores
from .svm import MAX_SCALE_BITS, PACKING as SVM_PACKING, encoded_planes, infer_encrypted
from .trees import class_sums, tree_scores_encrypted

# mode -> (the preset ``run_bench`` runs it at, its ciphertext-ciphertext
# multiplication depth).  A public split code makes the comparison affine, so
# xgb multiplies only in tree scoring; encrypted split codes add one product.
MODES = {"svm": ("svm-d1", 0), "xgb": ("xgb-d2", 1), "xgb-encmodel": ("xgb-encmodel-d3", 2)}

PARAMS_FILE = "params.txt"
SECRET_FILE = "secret.key"
PUBLIC_FILE = "public.key"
EVAL_FILE = "eval.key"
MANIFEST_FILE = "manifest.json"
SCORE_FILE = "score_{:03d}.ct"
# Integer fields of the manifests run_encrypt and run_infer write.
BUNDLE_COUNTS = ("samples", "slot_count", "svm_features")
SCORE_COUNTS = ("samples", "classes", "scale_bits", "outputs")


def thread_count(n_tasks: int) -> int:
    """Worker count for sample-parallel stages, capped by HEDGEROW_THREADS."""
    cap = os.environ.get("HEDGEROW_THREADS", "")
    workers = int(cap) if cap.strip().isdecimal() and int(cap) > 0 else (os.cpu_count() or 1)
    return max(1, min(workers, n_tasks))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class TimingReport:
    """Wall-clock seconds per phase, Table-style: KeyGen Enc Comp Dec EndtoEnd."""

    keygen_s: float
    enc_s: float
    comp_s: float
    dec_s: float
    end_to_end_s: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        parts = (self.keygen_s, self.enc_s, self.comp_s, self.dec_s)
        if any(v < 0 for v in parts):
            raise ModelFormatError("phase timings cannot be negative")
        if self.end_to_end_s < max(parts):
            raise ModelFormatError("end-to-end time cannot undercut a component")

    def as_dict(self) -> dict:
        return {
            "KeyGen": self.keygen_s,
            "Enc": self.enc_s,
            "Comp": self.comp_s,
            "Dec": self.dec_s,
            "EndtoEnd": self.end_to_end_s,
            "metadata": dict(self.metadata),
        }


@dataclass
class EvalReport:
    micro_auc: float
    accuracy: float
    confidences: np.ndarray  # (samples, classes)

    def __post_init__(self):
        if not 0.0 <= self.micro_auc <= 1.0:
            raise ModelFormatError("microAUC must lie in [0, 1]")


BENCH_COLUMNS = ("KeyGen", "Enc", "Comp", "Dec", "EndtoEnd", "microAUC")


def format_bench_table(rows: list[tuple[str, TimingReport, float]]) -> str:
    """Fixed-order timing table; one row per (mode, timings, microAUC)."""
    header = f"{'Mode':<14}" + "".join(f"{c:>10}" for c in BENCH_COLUMNS)
    lines = [header]
    for mode, tr, auc in rows:
        cells = [tr.keygen_s, tr.enc_s, tr.comp_s, tr.dec_s, tr.end_to_end_s]
        line = f"{mode:<14}" + "".join(f"{v:>9.3f}s" for v in cells) + f"{auc:>10.4f}"
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# key directories
# ---------------------------------------------------------------------------


def _read_container(path: Path, load, params: HeParams):
    """``load`` of the container at ``path``; a refusal names the file."""
    try:
        return load(path.read_bytes(), params)
    except (SerializationError, FingerprintMismatchError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _key_file(name: str, load):
    """A KeySet attribute read from the container ``name`` on first use; a
    key directory without that file is refused."""

    def read(keys):
        path = keys.keydir / name
        if not path.exists():
            raise ModelFormatError(f"no {name} in {keys.keydir}")
        return _read_container(path, load, keys.params)

    return cached_property(read)


class KeySet:
    """A key directory's parameters and, read on first use, its keys: each
    role reads only the key files it uses."""

    public = _key_file(PUBLIC_FILE, serial.deserialize_public_key)
    evals = _key_file(EVAL_FILE, serial.deserialize_eval_keys)
    secret = _key_file(SECRET_FILE, serial.deserialize_secret_key)

    def __init__(self, keydir: Path, params: HeParams):
        self.keydir, self.params = keydir, params


def write_keyset(outdir, params: HeParams, seed) -> float:
    """Generate and store params + keys; returns key-generation seconds."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    sk, pk, ek = keygen(params, seed)
    elapsed = time.perf_counter() - t0
    save_params(params, out / PARAMS_FILE)
    # owner-only from its creation, not after a chmod; an old file goes, mode and all
    (out / SECRET_FILE).unlink(missing_ok=True)
    fd = os.open(out / SECRET_FILE, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    with os.fdopen(fd, "wb") as f:
        f.write(serial.serialize_secret_key(sk))
    (out / PUBLIC_FILE).write_bytes(serial.serialize_public_key(pk))
    (out / EVAL_FILE).write_bytes(serial.serialize_eval_keys(ek))
    return elapsed


def export_public_keyset(keydir, outdir) -> None:
    """Copy the server-visible part of a key directory (no secret key)."""
    src, out = Path(keydir), Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name in (PARAMS_FILE, PUBLIC_FILE, EVAL_FILE):
        (out / name).write_bytes((src / name).read_bytes())


def load_keyset(keydir, need_secret: bool = False, forbid_secret: bool = False) -> KeySet:
    """The key directory's ``KeySet``; ``need_secret`` requires a secret key
    in it, ``forbid_secret`` (the server role) refuses one."""
    src = Path(keydir)
    params = load_params(src / PARAMS_FILE)
    has_secret = (src / SECRET_FILE).exists()
    if forbid_secret and has_secret:
        raise ModelFormatError(f"refusing to run the server role: secret key present in {src}")
    if need_secret and not has_secret:
        raise ModelFormatError(f"no secret key in {src}")
    return KeySet(src, params)


# ---------------------------------------------------------------------------
# circuit glue (backend-generic)
# ---------------------------------------------------------------------------


def encrypt_bundle(backend, pk, bundle: ClientBundle, seed) -> dict:
    """Encrypt one packed sample: per block, {stream: (le0 ct, eq0 ct)} for
    each of ``STREAMS``, plus the SVM vector.  ``pk`` may be the secret
    key, which gives seeded ciphertexts (``HeBackend.encrypt``).  Each
    ciphertext's seed hashes ``seed``, its label and its plane's int64
    slots: under one seed, only equal planes share encryption randomness."""
    prg = Prg(seed)

    def encrypt(label: str, plane: np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(plane, dtype="<i8").tobytes()).hexdigest()
        return backend.encrypt(pk, backend.encode(plane), prg.bytes(f"{label}.{digest}", 32))

    blocks = [
        {
            stream: tuple(encrypt(f"b{b}.{stream}.{p}", x) for p, x in zip(PLANES, pair))
            for stream, pair in zip(STREAMS, planes)
        }
        for b, planes in enumerate(bundle.xgb_planes)
    ]
    return {"xgb": blocks, "svm": encrypt("svm.x", bundle.svm_vector)}


def model_plane_plaintexts(backend, planes: np.ndarray) -> list[list]:
    """Encode an ``ensemble_slot_streams`` table as it is: per block, a
    list of 7 plaintexts, y_root, y_left and y_right, then l1, l2, l3, l4."""
    return [[backend.encode(v) for v in block] for block in planes]


def encrypt_split_planes(backend, pk, planes: np.ndarray, seed) -> list[list]:
    """Encrypt only the split codes y (the encrypted-model mode): per block,
    the ciphertexts of ``STREAMS`` in order."""
    prg = Prg(seed)
    return [
        [
            backend.encrypt(pk, backend.encode(y), prg.bytes(f"model.b{b}.{s}.y", 32))
            for s, y in zip(STREAMS, block[:3])
        ]
        for b, block in enumerate(planes)
    ]


def infer_xgb_sample(
    backend,
    bundle_blocks: list[dict],
    model_plaintexts: list[list],
    layout: FeatureLayout,
    ek,
    encrypted_split_blocks: list[list] | None = None,
) -> list:
    """Per-block encrypted class sums for one sample, at the preset's k'
    output primes; nothing is encoded.  Each block's tree scores are
    switched (``mod_switch``) after their last multiply, so the class-sum
    fold keyswitches mod q'P', P' the shortest prefix of the special primes
    above q': (2s+1)(k'+L') rows in place of (2s+1)(K+L) (180 against 300
    at xgb-d2), and its sums leave at k' primes as they are.

    ``bundle_blocks[b][stream]`` is the (le0, eq0) ciphertext pair of a
    stream, as ``encrypt_bundle`` returns it; ``model_plaintexts[b]`` is
    ``model_plane_plaintexts``' list, whose first 3 entries (the split
    codes) the comparisons read and whose last 4 are the leaf streams.
    With ``encrypted_split_blocks`` given, its 3 encrypted split codes per
    block (one ct-ct product per node stream) replace the public ones.
    """
    classes_in_block = layout.trees_per_block // layout.trees_per_class
    out = []
    for b, enc in enumerate(bundle_blocks):
        planes = model_plaintexts[b]
        compare, ys = (
            (compare_encrypted, planes[:3]) if encrypted_split_blocks is None
            else (compare_encrypted_model, encrypted_split_blocks[b])
        )
        zs = [compare(backend, *enc[s], y, ek) for s, y in zip(STREAMS, ys)]
        scores = backend.mod_switch(tree_scores_encrypted(backend, zs, planes[3:], ek))
        out.append(class_sums(backend, scores, layout.trees_per_class, classes_in_block, ek))
    return out


def decrypt_class_scores(backend, sk, block_cts: list, layout: FeatureLayout) -> np.ndarray:
    """Signed fixed-point class sums recovered from per-block score ciphertexts."""
    return decrypt_scores(backend, sk, block_cts, layout.class_positions)


# ---------------------------------------------------------------------------
# file-based phases
# ---------------------------------------------------------------------------


def _sample_dir(base: Path, index: int) -> Path:
    return base / f"sample_{index:05d}"


def upload_name(key) -> str:
    """File name of one upload ciphertext of a sample, whose key is
    (block, stream, plane) for a tree stream and "svm" for the SVM vector."""
    if key == "svm":
        return "svm.ct"
    b, s, p = key
    return f"block_{b:03d}.{s}.{p}.ct"


def read_manifest(directory, counts: tuple[str, ...], slot_count: int) -> dict:
    """A bundle or score directory's manifest with each field in ``counts``
    a non-negative integer, checked against the keys' ``slot_count``; a bundle's
    layout digest and a score manifest's mode, scale and class positions too."""
    path = Path(directory) / MANIFEST_FILE
    doc = read_json(path)
    for key in counts:
        if not is_int(doc.get(key)) or doc[key] < 0:
            raise ModelFormatError(f"{path}: {key}={doc.get(key)!r} is not a non-negative integer")
    if counts == BUNDLE_COUNTS:
        if doc["slot_count"] != slot_count:
            raise ModelFormatError("input bundles were packed for different parameters")
        digest = doc.get("layout_digest")
        if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
            raise ModelFormatError(f"{path}: layout_digest is not a SHA-256 hex digest")
        return doc
    if not isinstance(doc.get("mode"), str) or doc["mode"] not in MODES:
        raise ModelFormatError(f"{path}: unknown mode {doc.get('mode')!r}")
    if doc["scale_bits"] > MAX_SCALE_BITS:
        raise ModelFormatError(f"{path}: scale_bits above {MAX_SCALE_BITS}")
    positions = doc.get("class_positions")
    if not (
        isinstance(positions, list)
        and 0 < len(positions) == doc["classes"]
        and all(_in_grid(p, doc["outputs"], slot_count) for p in positions)
    ):
        raise ModelFormatError(f"{path}: class_positions must place each class in "
                               f"{doc['outputs']} outputs x {slot_count} slots")
    return doc


def _in_grid(p, outputs: int, slots: int) -> bool:
    return (isinstance(p, list) and len(p) == 2 and all(map(is_int, p))
            and 0 <= p[0] < outputs and 0 <= p[1] < slots)


def run_encrypt(layout: FeatureLayout, dataset, keyset: KeySet, seed, outdir) -> float:
    """Client role: pack and encrypt every sample under the key directory's
    secret key, which it must hold.  Returns seconds (packing included)."""
    if layout.slot_count != keyset.params.slot_count:
        raise ModelFormatError(
            f"layout was built for {layout.slot_count} slots, keys provide "
            f"{keyset.params.slot_count}"
        )
    sk = keyset.secret
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    backend = HeBackend(keyset.params)
    prg = Prg(seed)
    t0 = time.perf_counter()
    for i in range(dataset.num_samples):
        bundle = pack_client_input(dataset.samples[i], layout)
        cts = encrypt_bundle(backend, sk, bundle, prg.bytes(f"sample.{i}", 32))
        uploads = {
            (b, s, p): ct
            for b, enc in enumerate(cts["xgb"]) for s in STREAMS for p, ct in zip(PLANES, enc[s])
        }
        uploads["svm"] = cts["svm"]
        sdir = _sample_dir(out, i)
        sdir.mkdir(parents=True, exist_ok=True)
        for key, ct in uploads.items():
            (sdir / upload_name(key)).write_bytes(serial.serialize_ciphertext(ct))
    elapsed = time.perf_counter() - t0
    manifest = {
        "samples": dataset.num_samples,
        "slot_count": layout.slot_count,
        "svm_features": layout.svm_features,
        "svm_packing": SVM_PACKING,
        "layout_digest": layout.tree_digest,
    }
    (out / MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")
    return elapsed


def _read_ct(path: Path, params: HeParams):
    return _read_container(path, serial.deserialize_ciphertext, params)


def _read_upload(path: Path, params: HeParams):
    """An upload ciphertext, which must hold all of q's primes."""
    ct = _read_ct(path, params)
    if ct.prime_count != len(params.coeff_modulus):
        raise SerializationError(f"{path}: an upload holds all {len(params.coeff_modulus)} "
                                 f"primes of q, this one {ct.prime_count}")
    return ct


class ServerModel(NamedTuple):
    """One mode's model as the server evaluates it."""

    uploads: list  # the ``upload_name`` keys one sample needs
    evaluate: Callable[[dict], list]  # {upload key: ciphertext} -> output ciphertexts
    scores: dict  # the score manifest's classes, scale_bits, outputs, class_positions


def server_model(mode, model_path, backend, keyset: KeySet, bundles: dict, seed) -> ServerModel:
    """The server's only per-mode code: load the mode's model, check it
    against the bundle manifest, and prepare the evaluation of one sample.
    The evaluation keys are read here, before any thread evaluates a sample."""
    params, ek = keyset.params, keyset.evals
    if mode == "svm":
        model = load_svm(model_path, params.plaintext_modulus)
        if model.num_features != bundles["svm_features"]:
            raise ModelFormatError(
                f"model has {model.num_features} features but bundles were packed "
                f"for {bundles['svm_features']}"
            )
        if bundles.get("svm_packing") != SVM_PACKING:
            raise ModelFormatError(
                f"bundles were packed as {bundles.get('svm_packing')!r}, the SVM reads "
                f"{SVM_PACKING!r}: re-encrypt them"
            )
        encoded_planes(backend, model)  # encode (or refuse) once, before any thread
        return ServerModel(
            ["svm"],
            lambda cts: infer_encrypted(backend, cts["svm"], model, ek),
            {"classes": model.num_classes, "scale_bits": model.scale_bits, "outputs": 1,
             "class_positions": model.class_positions},
        )
    ens = load_ensemble(model_path, params.plaintext_modulus)
    layout = build_layout(ens, params.slot_count)
    if layout.tree_digest != bundles["layout_digest"]:
        raise ModelFormatError("bundles were packed for another tree layout than this model's")
    planes = ensemble_slot_streams(ens, layout)
    plane_pts = model_plane_plaintexts(backend, planes)
    enc_split = None
    if mode == "xgb-encmodel":
        enc_split = encrypt_split_planes(backend, keyset.public, planes, seed)

    def evaluate(cts: dict) -> list:
        blocks = [
            {s: tuple(cts[b, s, p] for p in PLANES) for s in STREAMS}
            for b in range(layout.num_blocks)
        ]
        return infer_xgb_sample(backend, blocks, plane_pts, layout, ek, enc_split)

    return ServerModel(
        [(b, s, p) for b in range(layout.num_blocks) for s in STREAMS for p in PLANES],
        evaluate,
        {"classes": layout.num_classes, "scale_bits": ens.scale_bits,
         "outputs": layout.num_blocks, "class_positions": layout.class_positions},
    )


def run_infer(mode: str, model_path, indir, keydir, outdir, seed=0) -> float:
    """Server role: evaluate encrypted scores.  Returns Comp wall-clock seconds.

    Refuses to run when the key directory holds a secret key; no code path
    here accepts one.  Inputs are loaded and outputs written outside the
    timed window, so the returned Comp time excludes file IO.
    """
    if mode not in MODES:
        raise ModelFormatError(f"unknown mode {mode!r}; expected one of {tuple(MODES)}")
    keyset = load_keyset(keydir, forbid_secret=True)
    params = keyset.params
    _, depth = MODES[mode]
    if params.depth_budget < depth:
        raise ModelFormatError(
            f"mode {mode} needs depth {depth}, parameters provide {params.depth_budget}"
        )
    backend = HeBackend(params)
    src, out = Path(indir), Path(outdir)
    bundles = read_manifest(src, BUNDLE_COUNTS, params.slot_count)
    model = server_model(mode, model_path, backend, keyset, bundles, seed)
    inputs = [
        {key: _read_upload(_sample_dir(src, i) / upload_name(key), params) for key in model.uploads}
        for i in range(bundles["samples"])
    ]

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=thread_count(len(inputs))) as pool:
        results = list(pool.map(model.evaluate, inputs))
    comp_seconds = time.perf_counter() - t0

    out.mkdir(parents=True, exist_ok=True)
    for i, outputs in enumerate(results):
        sdir = _sample_dir(out, i)
        sdir.mkdir(exist_ok=True)
        for o, ct in enumerate(outputs):
            (sdir / SCORE_FILE.format(o)).write_bytes(serial.serialize_ciphertext(ct))
    manifest = {"mode": mode, "samples": len(results), **model.scores}
    (out / MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")
    return comp_seconds


def run_decrypt(indir, keydir, report_path) -> tuple[float, np.ndarray, np.ndarray]:
    """Client role: decrypt scores, emit the report CSV with each sample's
    smallest output margin as ``noise_bits``, read from decryption's own
    pass.  Decryption raises NoiseBudgetError on an output with no noise
    margin left.

    Returns (seconds, predictions, confidence matrix).
    """
    keyset = load_keyset(keydir, need_secret=True)
    params, sk = keyset.params, keyset.secret
    backend = HeBackend(params)
    src = Path(indir)
    manifest = read_manifest(src, SCORE_COUNTS, params.slot_count)
    scale = float(1 << manifest["scale_bits"])

    # rows grow as samples decrypt: the manifest's count is outside input and
    # must not size an allocation, so a count beyond the files ends at the
    # first missing one
    rows, noise_bits = [], []
    elapsed = 0.0
    for i in range(manifest["samples"]):
        sdir = _sample_dir(src, i)
        cts = [_read_ct(sdir / SCORE_FILE.format(o), params) for o in range(manifest["outputs"])]
        t0 = time.perf_counter()
        pts = [backend.decrypt(sk, ct) for ct in cts]
        rows.append(read_scores(backend, pts, manifest["class_positions"]) / scale)
        noise_bits.append(min(pt.noise_bits for pt in pts))
        elapsed += time.perf_counter() - t0
    confidences = np.array(rows, dtype=np.float64).reshape(len(rows), manifest["classes"])

    predictions = np.argmax(confidences, axis=1).astype(np.int64)
    if report_path is not None:
        _write_report_csv(report_path, predictions, confidences, noise_bits)
    return elapsed, predictions, confidences


def _write_report_csv(path, predictions: np.ndarray, confidences: np.ndarray,
                      noise_bits: list[int]) -> None:
    classes = confidences.shape[1]
    lines = ["sample,pred," + ",".join(f"conf_{c}" for c in range(classes)) + ",noise_bits"]
    for i in range(confidences.shape[0]):
        confs = ",".join(f"{v:.10g}" for v in confidences[i])
        lines.append(f"{i},{predictions[i]},{confs},{noise_bits[i]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def run_bench(
    mode: str,
    samples: int,
    seed: int,
    classes: int = 11,
    trees: int = 128,
    features: int = 256,
    workdir=None,
) -> tuple[TimingReport, EvalReport]:
    """Full synthetic pipeline in a work directory, timed per phase."""
    if mode not in MODES:
        raise ModelFormatError(f"unknown mode {mode!r}; expected one of {tuple(MODES)}")
    preset, _ = MODES[mode]

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(workdir) if workdir is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        ens, svm_model, dataset = gen_synthetic(seed, classes, trees, features, samples)
        ens_path = base / "ensemble.json"
        svm_path = base / "svm.json"
        save_ensemble(ens, ens_path)
        save_svm(svm_model, svm_path)

        t_start = time.perf_counter()
        params = gen_params(preset)
        keydir = base / "keys"
        keygen_s = write_keyset(keydir, params, seed)
        serverkeys = base / "server-keys"
        export_public_keyset(keydir, serverkeys)

        keyset = load_keyset(keydir, need_secret=True)
        layout = build_layout(ens, params.slot_count, svm_features=svm_model.num_features)
        enc_dir = base / "encrypted"
        enc_s = run_encrypt(layout, dataset, keyset, seed, enc_dir)

        model_path = svm_path if mode == "svm" else ens_path
        score_dir = base / "scores"
        comp_s = run_infer(mode, model_path, enc_dir, serverkeys, score_dir, seed)

        report_path = base / "report.csv"
        dec_s, predictions, confidences = run_decrypt(score_dir, keydir, report_path)
        end_to_end = time.perf_counter() - t_start

        timing = TimingReport(
            keygen_s, enc_s, comp_s, dec_s, end_to_end,
            metadata={
                "mode": mode,
                "preset": preset,
                "classes": classes,
                "trees_per_class": trees,
                "features": features,
                "samples": samples,
                "seed": seed,
                "enc_includes_packing": True,
                "comp_excludes_file_io": True,
            },
        )
        evals = EvalReport(
            micro_auc=micro_auc(confidences, dataset.labels),
            accuracy=accuracy(confidences, dataset.labels),
            confidences=confidences,
        )
        return timing, evals

