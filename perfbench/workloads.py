"""The three benchmark workloads, driven through hedgerow's public functions.

Each workload is one closed loop in one process: a client keeps one sample
(latency workloads) or one batch (encmodel-batch) in flight and sends the
next only after the previous result is decrypted.  Every result is checked
against the clear fixed-point pipeline with zero tolerance and against the
10-bit noise floor; a mismatch, a low margin or a ``HedgerowError`` counts
as a failed sample and is never retried.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hedgerow import metrics as hmetrics
from hedgerow import modelio
from hedgerow import params as hparams
from hedgerow import pipeline as hp
from hedgerow import ring as hring
from hedgerow import scheme, serial
from hedgerow import svm as hsvm
from hedgerow.errors import HedgerowError

import tracing

CLASSES = 11
TREES_PER_CLASS = 128
NOISE_FLOOR_BITS = 10
# Two samples per HEDGEROW_THREADS thread, so every thread evaluates in each
# run_infer call.  The call's fixed cost (loading keys and model, preparing
# the split planes) is about 0.16 s, 3% of its wall time at 4 samples on
# 2 threads.
BATCH_SIZE = 2 * len(os.sched_getaffinity(0))
TAIL_BEYOND = 10
# Samples generated per run.  A fixed count keeps the model and data a
# function of the seed alone; it is far more than a run of 60 s uses.
SAMPLES = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # hedgerow CLI mode
    preset: str
    features: int
    batch: int  # 0: one sample in flight; else samples per run_encrypt/run_infer/run_decrypt
    # noise_bits.min reads this many first samples, which every end-to-end
    # run reaches, so it depends on the seed and the program only
    noise_samples: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("xgb-latency", "xgb", "xgb-d2", 256, 0, 8),
        Workload("svm-latency", "svm", "svm-d1", 2048, 0, 4),
        Workload("encmodel-batch", "xgb-encmodel", "xgb-encmodel-d3", 256, BATCH_SIZE, 2 * BATCH_SIZE),
    )
}
PRESETS = tuple(w.preset for w in WORKLOADS.values())


def derive_seed(seed: int, label: str) -> bytes:
    """32-byte seed for one use of the workload seed (keys, one encryption...)."""
    return hashlib.sha256(f"perfbench|{seed}|{label}".encode("ascii")).digest()


@dataclass
class Inputs:
    ens: object
    svm: object
    dataset: modelio.Dataset


def make_inputs(w: Workload, seed: int) -> Inputs:
    ens, svm_model, ds = modelio.gen_synthetic(seed, CLASSES, TREES_PER_CLASS, w.features, SAMPLES)
    return Inputs(ens, svm_model, ds)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class State:
    params: object
    backend: object
    sk: object
    pk: object
    ek: object  # server side, as deserialized
    layout: object
    ens: object  # as the server loaded it (None for svm)
    svm: object  # as the server loaded it (None for tree modes)
    plane_pts: object
    enc_split: object
    eval_key_bytes: int
    galois_keys: int
    seconds: float
    model_path: Path
    client_keys: object = None  # batch: the client's loaded key directory
    keydir: Path | None = None
    serverdir: Path | None = None


def setup(w: Workload, inputs: Inputs, seed: int, workdir: Path) -> State:
    """Keys, eval-key transfer and server model preparation, timed as set-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    ens_path, svm_path = workdir / "ensemble.json", workdir / "svm.json"
    modelio.save_ensemble(inputs.ens, ens_path)
    modelio.save_svm(inputs.svm, svm_path)
    keydir = serverdir = client = None

    t0 = time.perf_counter()
    params = hparams.gen_params(w.preset)
    t = params.plaintext_modulus
    if w.batch:
        keydir, serverdir = workdir / "keys", workdir / "server-keys"
        hp.write_keyset(keydir, params, derive_seed(seed, "keygen"))
        hp.export_public_keyset(keydir, serverdir)
        client = hp.load_keyset(keydir, need_secret=True)
        server = hp.load_keyset(serverdir, forbid_secret=True)
        sk, pk, ek = client.secret, client.public, server.evals
        eval_key_bytes = (serverdir / hp.EVAL_FILE).stat().st_size
    else:
        sk, pk, client_ek = scheme.keygen(params, derive_seed(seed, "keygen"))
        blob = serial.serialize_eval_keys(client_ek)
        ek = serial.deserialize_eval_keys(blob, params)
        eval_key_bytes = len(blob)
    backend = scheme.HeBackend(params)
    ens = svm_model = plane_pts = enc_split = None
    if w.mode == "svm":
        svm_model = modelio.load_svm(svm_path, t)
        layout = modelio.build_layout(inputs.ens, params.slot_count, inputs.svm.num_features)
    else:
        ens = modelio.load_ensemble(ens_path, t)
        layout = modelio.build_layout(ens, params.slot_count, inputs.svm.num_features)
        planes = modelio.ensemble_slot_streams(ens, layout)
        plane_pts = hp.model_plane_plaintexts(backend, planes)
        if w.mode == "xgb-encmodel":
            enc_split = hp.encrypt_split_planes(backend, pk, planes, derive_seed(seed, "model"))
        # the product basis is built on first use; build it here so the
        # first sample does not pay for it
        hring.get_ring(params).wide_basis()
    elapsed = time.perf_counter() - t0

    galois_keys = len(ek.galois) + (ek.row_swap is not None)
    model_path = svm_path if w.mode == "svm" else ens_path
    return State(params, backend, sk, pk, ek, layout, ens, svm_model, plane_pts, enc_split,
                 eval_key_bytes, galois_keys, elapsed, model_path, client, keydir, serverdir)


def references(w: Workload, st: State, inputs: Inputs, indices) -> dict[int, np.ndarray]:
    """Clear fixed-point class scores for the given sample indices."""
    idx = sorted(set(indices))
    ternary = modelio.normalize_samples(inputs.dataset.samples[idx])
    if w.mode == "svm":
        rows = [hsvm.svm_scores_clear(st.svm, row) for row in ternary]
    else:
        rows = modelio.ensemble_scores_clear_batch(st.ens, ternary)
    return {i: np.asarray(r, dtype=np.int64) for i, r in zip(idx, rows)}


# ---------------------------------------------------------------------------
# per-sample round trips
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    index: int
    latency: float = 0.0
    client: float = 0.0
    server: float = 0.0
    upload: int = 0
    download: int = 0
    noise: int = 0
    scores: np.ndarray | None = None
    error: str | None = None
    ok: bool = False


def round_trip(w: Workload, st: State, inputs: Inputs, i: int, seed: int) -> Sample:
    """One sample: client encrypts, server evaluates, client decrypts."""
    params, backend = st.params, st.backend
    out = Sample(i)
    try:
        t0 = time.perf_counter()
        bundle = modelio.pack_client_input(inputs.dataset.samples[i], st.layout)
        cts = hp.encrypt_bundle(backend, st.pk, bundle, derive_seed(seed, f"sample.{i}"))
        upload = {
            (b, stream, plane): serial.serialize_ciphertext(ct)
            for b, block in enumerate(cts["xgb"])
            for stream in hp.STREAMS
            for plane, ct in zip(("x0", "x2"), block[stream])
        }
        upload["svm"] = serial.serialize_ciphertext(cts["svm"])
        t1 = time.perf_counter()
        if w.mode == "svm":
            ct_x = serial.deserialize_ciphertext(upload["svm"], params)
            results = hsvm.infer_encrypted(backend, ct_x, st.svm, st.ek)
        else:
            blocks = [
                {
                    stream: tuple(
                        serial.deserialize_ciphertext(upload[(b, stream, plane)], params)
                        for plane in ("x0", "x2"))
                    for stream in hp.STREAMS
                }
                for b in range(st.layout.num_blocks)
            ]
            results = hp.infer_xgb_sample(
                backend, blocks, st.plane_pts, st.layout, st.ek, st.enc_split)
        download = [serial.serialize_ciphertext(ct) for ct in results]
        t2 = time.perf_counter()
        score_cts = [serial.deserialize_ciphertext(blob, params) for blob in download]
        noise = min(backend.noise_budget(st.sk, ct) for ct in score_cts)
        if w.mode == "svm":
            scores = hsvm.confidence_integers(backend, st.sk, score_cts, st.svm)
        else:
            scores = hp.decrypt_class_scores(backend, st.sk, score_cts, st.layout)
        t3 = time.perf_counter()
    except HedgerowError as exc:
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.latency, out.client, out.server = t3 - t0, (t1 - t0) + (t3 - t2), t2 - t1
    out.upload = sum(len(blob) for blob in upload.values())
    out.download = sum(len(blob) for blob in download)
    out.noise, out.scores = noise, scores
    return out


@dataclass
class Loop:
    samples: list[Sample] = field(default_factory=list)
    wall: float = 0.0  # latency: the loop's wall time; batch: summed run_infer wall
    next_index: int = 0


def _running(loop: Loop, begin: float, seconds: float, min_samples: int, needed: int) -> bool:
    """True while the loop should start another ``needed`` samples."""
    if time.perf_counter() - begin >= seconds and len(loop.samples) >= min_samples:
        return False
    if loop.next_index + needed > SAMPLES:
        raise RuntimeError(f"the loop used up all {SAMPLES} generated samples")
    return True


def latency_loop(w, st, inputs, seed, seconds, first, min_samples, tracer=None) -> Loop:
    loop = Loop(next_index=first)
    begin = time.perf_counter()
    while _running(loop, begin, seconds, min_samples, 1):
        if tracer is not None:
            tracer.sample(loop.next_index)
        loop.samples.append(round_trip(w, st, inputs, loop.next_index, seed))
        loop.next_index += 1
    loop.wall = time.perf_counter() - begin
    if tracer is not None:
        tracer.sample(None)
    return loop


def batch_loop(w, st, inputs, seed, seconds, first, min_samples, workdir, tracer=None) -> Loop:
    """Whole batches through the file-based client and server roles."""
    loop = Loop(next_index=first)
    scale = float(1 << st.ens.scale_bits)
    begin = time.perf_counter()
    while _running(loop, begin, seconds, min_samples, w.batch):
        idx = list(range(loop.next_index, loop.next_index + w.batch))
        loop.next_index += w.batch
        part = modelio.Dataset(inputs.dataset.samples[idx], inputs.dataset.labels[idx])
        bdir = workdir / f"batch-{idx[0]:06d}"
        enc_dir, score_dir = bdir / "encrypted", bdir / "scores"
        done = [Sample(i) for i in idx]
        try:
            t0 = time.perf_counter()
            hp.run_encrypt(st.layout, part, st.client_keys, derive_seed(seed, f"batch.{idx[0]}"), enc_dir)
            t1 = time.perf_counter()
            hp.run_infer(w.mode, st.model_path, enc_dir, st.serverdir, score_dir, derive_seed(seed, "model"))
            t2 = time.perf_counter()
            _, _, confidences = hp.run_decrypt(score_dir, st.keydir, None)
            t3 = time.perf_counter()
        except HedgerowError as exc:
            for s in done:
                s.error = f"{type(exc).__name__}: {exc}"
        else:
            loop.wall += t2 - t1
            if tracer is not None:
                tracer.phase = "check"
            for j, s in enumerate(done):
                sdir_in, sdir_out = enc_dir / f"sample_{j:05d}", score_dir / f"sample_{j:05d}"
                s.latency = t3 - t0
                s.client = ((t1 - t0) + (t3 - t2)) / w.batch
                s.server = (t2 - t1) / w.batch
                s.upload = sum(p.stat().st_size for p in sdir_in.glob("*.ct"))
                outputs = sorted(sdir_out.glob("*.ct"))
                s.download = sum(p.stat().st_size for p in outputs)
                s.noise = min(
                    st.backend.noise_budget(st.sk, serial.deserialize_ciphertext(p.read_bytes(), st.params))
                    for p in outputs)
                s.scores = confidences[j] * scale  # exact: a power-of-two rescale of int/2^k
            if tracer is not None:
                tracer.phase = "samples"
        finally:
            shutil.rmtree(bdir, ignore_errors=True)
        loop.samples.extend(done)
    return loop


def run_loop(w, st, inputs, seed, seconds, first, workdir, min_samples=1, tracer=None) -> Loop:
    """Samples from index ``first`` on, until ``seconds`` have passed and at
    least ``min_samples`` were attempted."""
    if w.batch:
        return batch_loop(w, st, inputs, seed, seconds, first, min_samples, workdir, tracer)
    return latency_loop(w, st, inputs, seed, seconds, first, min_samples, tracer)


def check(w: Workload, st: State, inputs: Inputs, samples: list[Sample]) -> None:
    """Exact equality with the clear pipeline and the noise floor, per sample."""
    refs = references(w, st, inputs, [s.index for s in samples])
    for s in samples:
        if s.error is not None:
            continue
        if s.noise < NOISE_FLOOR_BITS:
            s.error = f"noise margin {s.noise} bits below {NOISE_FLOOR_BITS}"
        elif not np.array_equal(s.scores, refs[s.index]):
            s.error = "decrypted class scores differ from the clear pipeline"
        else:
            s.ok = True


def micro_auc(st: State, inputs: Inputs, samples: list[Sample]) -> float:
    ok = [s for s in samples if s.ok]
    scale = float(1 << (st.svm.scale_bits if st.svm is not None else st.ens.scale_bits))
    confidences = np.stack([s.scores / scale for s in ok])
    labels = inputs.dataset.labels[[s.index for s in ok]]
    return hmetrics.micro_auc(confidences, labels)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, floored at the upper median so it is
    never below ``statistics.median``."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(w: Workload, st: State, loop: Loop, setup_times: list[float], peak_rss_mb: float) -> dict:
    ok = [s for s in loop.samples if s.ok]
    lat = [s.latency for s in ok]
    tail_value, _, _ = tail(lat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_s.p50": (statistics.median(lat), "s"),
        "latency_s.tail": (tail_value, "s"),
        "client_s.p50": (statistics.median(s.client for s in ok), "s"),
        "server_s.p50": (statistics.median(s.server for s in ok), "s"),
        "throughput_sps": (len(ok) / loop.wall, "samples/s"),
        "upload_bytes": (statistics.fmean(s.upload for s in ok), "B/sample"),
        "download_bytes": (statistics.fmean(s.download for s in ok), "B/sample"),
        "eval_key_bytes": (float(st.eval_key_bytes), "B"),
        "noise_bits.min": (float(min(s.noise for s in ok[:w.noise_samples])), "bits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Tracing targets whose output ciphertexts the noise probe measures.
NOISE_OPS = (
    "scheme.encrypt", "compare.compare_encrypted", "compare.compare_encrypted_model",
    "trees.tree_scores_encrypted", "trees.class_sums", "svm.infer_encrypted",
)


def noise_probe(w, st: State, inputs: Inputs, seed: int, index: int) -> dict:
    """Smallest noise margin after each op over one round trip, measured
    with the workload's secret key (0 where the workload never runs the op)."""
    found: dict[str, list[int]] = {name: [] for name in NOISE_OPS}
    noise_budget = st.backend.noise_budget

    def probe(name):
        def factory(original):
            def probed(*args, **kwargs):
                result = original(*args, **kwargs)
                cts = result if isinstance(result, list) else [result]
                found[name].append(min(noise_budget(st.sk, ct) for ct in cts))
                return result
            return probed
        return factory

    patcher = tracing.Patcher()
    try:
        for module, path, name in tracing.TARGETS:
            if name in found:
                patcher.wrap(module, path, probe(name))
        sample = round_trip(w, st, inputs, index, seed)
    finally:
        patcher.restore()
    if sample.error is not None:
        raise RuntimeError(f"noise probe round trip failed: {sample.error}")
    return {f"noise.bits_after.{name.rsplit('.', 1)[1]}": (float(min(v)) if v else 0.0, "bits")
            for name, v in found.items()}


def per_sample_seconds(w: Workload, loop: Loop) -> float:
    """Latency workloads: median round trip; batch: run_infer wall per sample."""
    ok = [s for s in loop.samples if s.ok]
    if w.batch:
        return loop.wall / max(1, len(ok))
    return statistics.median(s.latency for s in ok)
