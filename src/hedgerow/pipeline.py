"""End-to-end phases: client packing/encryption, server evaluation, client
decryption, and benchmark reporting.

The exchange between roles is file-based: a key directory (params.txt plus
key containers), a directory of per-sample ciphertext bundles, and a
directory of per-sample encrypted score outputs with a manifest describing
how to decode them.  The server-side entry points never accept or load a
secret key; ``load_keyset(forbid_secret=True)`` additionally refuses to run
when one is present in the key directory.

Evaluation works against either backend (encrypted or clear mirror), which
is how the oracle-equivalence tests drive the identical circuit on both.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import serial
from .compare import compare_encrypted, compare_encrypted_model
from .errors import ModelFormatError, NoiseBudgetError
from .metrics import accuracy, micro_auc
from .modelio import (
    STREAMS,
    ClientBundle,
    FeatureLayout,
    build_layout,
    ensemble_slot_streams,
    load_ensemble,
    load_svm,
    pack_client_input,
)
from .params import HeParams, load_params, save_params
from .scheme import HeBackend, Prg, keygen
from .svm import infer_encrypted
from .trees import NodeStreams, class_sums, tree_scores_encrypted

# Each mode's ciphertext-ciphertext multiplication depth.  A public split
# code makes the comparison affine, so xgb multiplies only in tree scoring;
# encrypted split codes add one product below it.
MODE_DEPTH = {"svm": 0, "xgb": 1, "xgb-encmodel": 2}
MODES = tuple(MODE_DEPTH)

PARAMS_FILE = "params.txt"
SECRET_FILE = "secret.key"
PUBLIC_FILE = "public.key"
EVAL_FILE = "eval.key"
MANIFEST_FILE = "manifest.json"


def thread_count(n_tasks: int) -> int:
    """Worker count for sample-parallel stages, capped by HEDGEROW_THREADS."""
    cap = os.environ.get("HEDGEROW_THREADS", "")
    workers = int(cap) if cap.strip().isdigit() and int(cap) > 0 else (os.cpu_count() or 1)
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


@dataclass
class KeySet:
    params: HeParams
    public: object
    evals: object
    secret: object | None = None


def write_keyset(outdir, params: HeParams, seed) -> float:
    """Generate and store params + keys; returns key-generation seconds."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    sk, pk, ek = keygen(params, seed)
    elapsed = time.perf_counter() - t0
    save_params(params, out / PARAMS_FILE)
    (out / SECRET_FILE).write_bytes(serial.serialize_secret_key(sk))
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
    src = Path(keydir)
    params = load_params(src / PARAMS_FILE)
    secret_path = src / SECRET_FILE
    if forbid_secret and secret_path.exists():
        raise ModelFormatError(
            f"refusing to run the server role: secret key present in {src}"
        )
    public = serial.deserialize_public_key((src / PUBLIC_FILE).read_bytes(), params)
    evals = serial.deserialize_eval_keys((src / EVAL_FILE).read_bytes(), params)
    secret = None
    if need_secret:
        if not secret_path.exists():
            raise ModelFormatError(f"no secret key in {src}")
        secret = serial.deserialize_secret_key(secret_path.read_bytes(), params)
    return KeySet(params, public, evals, secret)


# ---------------------------------------------------------------------------
# circuit glue (backend-generic)
# ---------------------------------------------------------------------------


def encrypt_bundle(backend, pk, bundle: ClientBundle, seed) -> dict:
    """Encrypt one packed sample: 6 stream ciphertexts per block + SVM vector."""
    prg = Prg(seed)
    blocks = []
    for b, planes in enumerate(bundle.xgb_planes):
        enc = {}
        for stream in STREAMS:
            x0, x2 = planes[stream]
            enc[stream] = (
                backend.encrypt(pk, backend.encode(x0), prg.bytes(f"b{b}.{stream}.x0", 32)),
                backend.encrypt(pk, backend.encode(x2), prg.bytes(f"b{b}.{stream}.x2", 32)),
            )
        blocks.append(enc)
    svm_ct = backend.encrypt(pk, backend.encode(bundle.svm_vector), prg.bytes("svm.x", 32))
    return {"xgb": blocks, "svm": svm_ct}


def model_plane_plaintexts(backend, planes: list[dict]) -> list[dict]:
    """Encode the server model streams (split codes, leaf streams) per block."""
    out = []
    for block in planes:
        out.append(
            {
                "y": {s: backend.encode(block["y"][s]) for s in STREAMS},
                "l": [backend.encode(v) for v in block["l"]],
            }
        )
    return out


def encrypt_split_planes(backend, pk, planes: list[dict], seed) -> list[dict]:
    """Encrypt only the split-code planes (the encrypted-model mode)."""
    prg = Prg(seed)
    out = []
    for b, block in enumerate(planes):
        out.append(
            {
                s: backend.encrypt(
                    pk, backend.encode(block["y"][s]), prg.bytes(f"model.b{b}.{s}.y", 32)
                )
                for s in STREAMS
            }
        )
    return out


def infer_xgb_sample(
    backend,
    bundle_blocks: list[dict],
    model_plaintexts: list[dict],
    layout: FeatureLayout,
    ek,
    encrypted_split_blocks: list[dict] | None = None,
) -> list:
    """Per-block encrypted class sums for one sample.

    With ``encrypted_split_blocks`` given, comparisons run against encrypted
    split codes (one ct-ct product per node stream) instead of public ones.
    """
    out = []
    for b, enc in enumerate(bundle_blocks):
        planes = model_plaintexts[b]
        zs = {}
        for stream in STREAMS:
            ct_x0, ct_x2 = enc[stream]
            if encrypted_split_blocks is None:
                zs[stream] = compare_encrypted(backend, ct_x0, ct_x2, planes["y"][stream], ek)
            else:
                zs[stream] = compare_encrypted_model(
                    backend, ct_x0, ct_x2, encrypted_split_blocks[b][stream], ek
                )
        streams = NodeStreams(zs["root"], zs["left"], zs["right"])
        scores = tree_scores_encrypted(backend, streams, planes["l"], ek)
        classes_in_block = layout.trees_per_block // layout.trees_per_class
        out.append(
            class_sums(backend, scores, layout.trees_per_class, classes_in_block, ek)
        )
    return out


def signed_mod_t(value: int, t: int) -> int:
    return value - t if value > t // 2 else value


def decrypt_class_scores(backend, sk, block_cts: list, layout: FeatureLayout) -> np.ndarray:
    """Signed fixed-point class sums recovered from per-block score ciphertexts."""
    t = backend.params.plaintext_modulus
    decoded = [backend.decode(backend.decrypt(sk, ct)) for ct in block_cts]
    scores = np.empty(layout.num_classes, dtype=np.int64)
    for c in range(layout.num_classes):
        block, slot = layout.class_position(c)
        scores[c] = signed_mod_t(int(decoded[block][slot]), t)
    return scores


# ---------------------------------------------------------------------------
# file-based phases
# ---------------------------------------------------------------------------


def _sample_dir(base: Path, index: int) -> Path:
    return base / f"sample_{index:05d}"


def run_encrypt(layout: FeatureLayout, dataset, keyset: KeySet, seed, outdir) -> float:
    """Client role: pack and encrypt every sample.  Returns seconds (packing included)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    backend = HeBackend(keyset.params)
    if layout.slot_count != keyset.params.slot_count:
        raise ModelFormatError(
            f"layout was built for {layout.slot_count} slots, keys provide "
            f"{keyset.params.slot_count}"
        )
    prg = Prg(seed)
    t0 = time.perf_counter()
    for i in range(dataset.num_samples):
        bundle = pack_client_input(dataset.samples[i], layout)
        cts = encrypt_bundle(backend, keyset.public, bundle, prg.bytes(f"sample.{i}", 32))
        sdir = _sample_dir(out, i)
        sdir.mkdir(parents=True, exist_ok=True)
        for b, enc in enumerate(cts["xgb"]):
            for stream in STREAMS:
                ct_x0, ct_x2 = enc[stream]
                (sdir / f"block_{b:03d}.{stream}.x0.ct").write_bytes(
                    serial.serialize_ciphertext(ct_x0)
                )
                (sdir / f"block_{b:03d}.{stream}.x2.ct").write_bytes(
                    serial.serialize_ciphertext(ct_x2)
                )
        (sdir / "svm.ct").write_bytes(serial.serialize_ciphertext(cts["svm"]))
    elapsed = time.perf_counter() - t0
    manifest = {
        "samples": dataset.num_samples,
        "blocks": layout.num_blocks,
        "slot_count": layout.slot_count,
        "svm_features": layout.svm_features,
    }
    (out / MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")
    return elapsed


def _read_ct(path: Path, params: HeParams):
    return serial.deserialize_ciphertext(path.read_bytes(), params)


def run_infer(mode: str, model_path, indir, keydir, outdir, seed=0) -> float:
    """Server role: evaluate encrypted scores.  Returns Comp wall-clock seconds.

    Refuses to run when the key directory holds a secret key; no code path
    here accepts one.  Inputs are loaded and outputs written outside the
    timed window, so the returned Comp time excludes file IO.
    """
    if mode not in MODES:
        raise ModelFormatError(f"unknown mode {mode!r}; expected one of {MODES}")
    keyset = load_keyset(keydir, forbid_secret=True)
    params = keyset.params
    if params.depth_budget < MODE_DEPTH[mode]:
        raise ModelFormatError(
            f"mode {mode} needs depth {MODE_DEPTH[mode]}, parameters provide "
            f"{params.depth_budget}"
        )
    backend = HeBackend(params)
    src = Path(indir)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = json.loads((src / MANIFEST_FILE).read_text(encoding="utf-8"))
    n_samples = int(manifest["samples"])
    if int(manifest["slot_count"]) != params.slot_count:
        raise ModelFormatError("input bundles were packed for different parameters")

    t = params.plaintext_modulus

    if mode == "svm":
        model = load_svm(model_path, t)
        if model.num_features != int(manifest["svm_features"]):
            raise ModelFormatError(
                f"model has {model.num_features} features but bundles were packed "
                f"for {manifest['svm_features']}"
            )
        inputs = [_read_ct(_sample_dir(src, i) / "svm.ct", params) for i in range(n_samples)]

        def eval_one(i: int):
            return infer_encrypted(backend, inputs[i], model, keyset.evals)

        t0 = time.perf_counter()
        results = _parallel_map(eval_one, n_samples)
        comp_seconds = time.perf_counter() - t0
        for i, outputs in enumerate(results):
            sdir = _sample_dir(out, i)
            sdir.mkdir(parents=True, exist_ok=True)
            for c, ct in enumerate(outputs):
                (sdir / f"class_{c:03d}.ct").write_bytes(serial.serialize_ciphertext(ct))
        out_manifest = {
            "mode": mode,
            "samples": n_samples,
            "classes": model.num_classes,
            "scale_bits": model.scale_bits,
            "layout": "per-class ciphertexts, confidence at slot 0",
        }
    else:
        ens = load_ensemble(model_path, t)
        layout = build_layout(ens, params.slot_count)
        if layout.num_blocks != int(manifest["blocks"]):
            raise ModelFormatError(
                f"model needs {layout.num_blocks} blocks, bundles carry {manifest['blocks']}"
            )
        planes = ensemble_slot_streams(ens, layout)
        plane_pts = model_plane_plaintexts(backend, planes)
        enc_split = None
        if mode == "xgb-encmodel":
            enc_split = encrypt_split_planes(backend, keyset.public, planes, seed)

        inputs = []
        for i in range(n_samples):
            sdir_in = _sample_dir(src, i)
            inputs.append(
                [
                    {
                        stream: (
                            _read_ct(sdir_in / f"block_{b:03d}.{stream}.x0.ct", params),
                            _read_ct(sdir_in / f"block_{b:03d}.{stream}.x2.ct", params),
                        )
                        for stream in STREAMS
                    }
                    for b in range(layout.num_blocks)
                ]
            )

        def eval_one(i: int):
            return infer_xgb_sample(
                backend, inputs[i], plane_pts, layout, keyset.evals, enc_split
            )

        t0 = time.perf_counter()
        results = _parallel_map(eval_one, n_samples)
        comp_seconds = time.perf_counter() - t0
        for i, score_cts in enumerate(results):
            sdir = _sample_dir(out, i)
            sdir.mkdir(parents=True, exist_ok=True)
            for b, ct in enumerate(score_cts):
                (sdir / f"scores_block_{b:03d}.ct").write_bytes(
                    serial.serialize_ciphertext(ct)
                )
        out_manifest = {
            "mode": mode,
            "samples": n_samples,
            "classes": layout.num_classes,
            "scale_bits": ens.scale_bits,
            "blocks": layout.num_blocks,
            "trees_per_class": layout.trees_per_class,
            "trees_per_block": layout.trees_per_block,
            "class_positions": [list(layout.class_position(c)) for c in range(layout.num_classes)],
        }
    (out / MANIFEST_FILE).write_text(json.dumps(out_manifest), encoding="utf-8")
    return comp_seconds


def _parallel_map(fn, count: int) -> list:
    workers = thread_count(count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def run_decrypt(indir, keydir, report_path) -> tuple[float, np.ndarray, np.ndarray]:
    """Client role: decrypt scores, check noise margins, emit the report CSV.

    Returns (seconds, predictions, confidence matrix).
    """
    keyset = load_keyset(keydir, need_secret=True)
    params = keyset.params
    backend = HeBackend(params)
    src = Path(indir)
    manifest = json.loads((src / MANIFEST_FILE).read_text(encoding="utf-8"))
    mode = manifest["mode"]
    n_samples = int(manifest["samples"])
    classes = int(manifest["classes"])
    scale = float(1 << int(manifest["scale_bits"]))
    t = params.plaintext_modulus

    confidences = np.empty((n_samples, classes), dtype=np.float64)
    elapsed = 0.0
    for i in range(n_samples):
        sdir = _sample_dir(src, i)
        if mode == "svm":
            cts = [_read_ct(sdir / f"class_{c:03d}.ct", params) for c in range(classes)]
            t0 = time.perf_counter()
            for c, ct in enumerate(cts):
                _check_noise(backend, keyset.secret, ct)
                raw = int(backend.decode(backend.decrypt(keyset.secret, ct))[0])
                confidences[i, c] = signed_mod_t(raw, t) / scale
            elapsed += time.perf_counter() - t0
        else:
            blocks = int(manifest["blocks"])
            cts = [_read_ct(sdir / f"scores_block_{b:03d}.ct", params) for b in range(blocks)]
            positions = manifest["class_positions"]
            t0 = time.perf_counter()
            decoded = []
            for ct in cts:
                _check_noise(backend, keyset.secret, ct)
                decoded.append(backend.decode(backend.decrypt(keyset.secret, ct)))
            for c in range(classes):
                block, slot = positions[c]
                confidences[i, c] = signed_mod_t(int(decoded[block][slot]), t) / scale
            elapsed += time.perf_counter() - t0

    predictions = np.argmax(confidences, axis=1).astype(np.int64)
    if report_path is not None:
        _write_report_csv(report_path, predictions, confidences)
    return elapsed, predictions, confidences


def _check_noise(backend, sk, ct) -> None:
    if backend.noise_budget(sk, ct) <= 0:
        raise NoiseBudgetError("noise budget exhausted; decryption unreliable")


def _write_report_csv(path, predictions: np.ndarray, confidences: np.ndarray) -> None:
    classes = confidences.shape[1]
    lines = ["sample,pred," + ",".join(f"conf_{c}" for c in range(classes))]
    for i in range(confidences.shape[0]):
        confs = ",".join(f"{v:.10g}" for v in confidences[i])
        lines.append(f"{i},{predictions[i]},{confs}")
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
    import tempfile

    from .modelio import gen_synthetic, save_ensemble, save_svm
    from .params import gen_params

    if mode not in MODES:
        raise ModelFormatError(f"unknown mode {mode!r}; expected one of {MODES}")
    preset = {"svm": "svm-d1", "xgb": "xgb-d2", "xgb-encmodel": "xgb-encmodel-d3"}[mode]

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
            keygen_s=keygen_s,
            enc_s=enc_s,
            comp_s=comp_s,
            dec_s=dec_s,
            end_to_end_s=end_to_end,
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

