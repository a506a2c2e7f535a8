"""Hedgerow benchmark: paper-scale encrypted inference, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload xgb-latency --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``xgb-latency``,
``svm-latency`` and ``encmodel-batch``.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` a separate traced run reports the per-layer metrics and
writes its spans to ``.perfbench_out/``.  Lines before it name each metric
with its unit, the environment, microAUC and the error rate.

The benchmark imports hedgerow from ``src/`` beside this directory and
exits non-zero, printing no result, when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("xgb-latency", "svm-latency", "encmodel-batch")
SETUP_REPEATS = 3  # one in the measuring process, the others in fresh processes
SETUP_TIMEOUT_S = 150


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _threads(workload: str) -> int:
    """HEDGEROW_THREADS for a workload: one for latency, every core for the batch."""
    return _nproc() if workload == "encmodel-batch" else 1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up and print it as JSON (used internally)")
    return ap.parse_args(argv)


def _import_hedgerow():
    if not (SRC / "hedgerow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hedgerow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hedgerow

    if Path(hedgerow.__file__).resolve().parent != SRC / "hedgerow":
        sys.exit(f"perfbench: imported hedgerow from {hedgerow.__file__}, not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cold_setup(args) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up process failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _environment(workload, threads) -> dict:
    import numpy
    import workloads as wl
    from hedgerow import params as hparams

    return {
        "workload": workload.name,
        "mode": workload.mode,
        "preset": workload.preset,
        "nproc": _nproc(),
        "HEDGEROW_THREADS": threads,
        "batch_size": workload.batch,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "preset_primes": {p: len(hparams.gen_params(p).coeff_modulus) for p in wl.PRESETS},
    }


def _measure(args, workdir: Path):
    import microbench
    import tracing
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    inputs = wl.make_inputs(w, args.seed)
    if args.setup_only:
        return {"setup_s": wl.setup(w, inputs, args.seed, workdir / "setup").seconds}, None

    notes = {}
    if not args.trace:
        setup_times = [_cold_setup(args) for _ in range(SETUP_REPEATS - 1)]
        st = wl.setup(w, inputs, args.seed, workdir / "setup")
        setup_times.append(st.seconds)
        loop = wl.run_loop(w, st, inputs, args.seed, args.seconds, 0, workdir, w.noise_samples)
        samples = loop.samples
        wl.check(w, st, inputs, samples)
        if not any(s.ok for s in samples):
            return None, samples
        result = wl.end_to_end(w, st, loop, setup_times, _peak_rss_mb())
        lat = [s.latency for s in samples if s.ok]
        _, pct, beyond = wl.tail(lat)
        notes["latency_s.tail"] = (f"p{pct:.0f} of {len(lat)} samples, {beyond} beyond it;"
                                   f" slowest {max(lat):.4f} s")
        notes["setup_s"] = "median of " + ", ".join(f"{t:.4f}" for t in setup_times)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            st = wl.setup(w, inputs, args.seed, workdir / "setup")
        finally:
            tracer.uninstall()
        half = args.seconds / 2
        plain = wl.run_loop(w, st, inputs, args.seed, half, 0, workdir)
        tracer.phase = "samples"
        tracer.install()
        try:
            traced = wl.run_loop(w, st, inputs, args.seed, half, plain.next_index, workdir,
                                 tracer=tracer)
        finally:
            tracer.uninstall()
        samples = plain.samples + traced.samples
        wl.check(w, st, inputs, samples)
        if not any(s.ok for s in traced.samples) or not any(s.ok for s in plain.samples):
            return None, samples
        spans = tracer.spans()
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(spans, OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
        threads = min(_threads(w.name), w.batch) if w.batch else 1
        result = tracing.layer_metrics(spans, len(traced.samples), threads)
        result["scheme.keygen.galois_keys"] = (float(st.galois_keys), "count")
        result.update(wl.noise_probe(w, st, inputs, args.seed, traced.next_index))
        untraced_s, traced_s = wl.per_sample_seconds(w, plain), wl.per_sample_seconds(w, traced)
        result["trace.sample_s.untraced"] = (untraced_s, "s")
        result["trace.sample_s.traced"] = (traced_s, "s")
        result["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
        result.update(microbench.run(w.preset, wl.derive_seed(args.seed, "micro")))
        failed = sum(1 for s in samples if not s.ok)
        result["check.error_rate"] = (failed / len(samples), "fraction")
        result["check.micro_auc"] = (wl.micro_auc(st, inputs, samples), "fraction")
        notes["spans"] = f"{len(spans)} spans written to {OUT.name}/"
    notes["microAUC"] = f"{wl.micro_auc(st, inputs, samples):.4f}"
    return (result, notes), samples


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    threads = _threads(args.workload)
    os.environ["HEDGEROW_THREADS"] = str(threads)  # never inherited
    _import_hedgerow()
    import workloads as wl

    workdir = OUT / f"work-{os.getpid()}"
    try:
        measured, samples = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.setup_only:
        print(json.dumps(measured))
        return 0

    w = wl.WORKLOADS[args.workload]
    print("env " + json.dumps(_environment(w, threads), sort_keys=True))
    failed = [s for s in samples if not s.ok]
    for s in failed[:5]:
        print(f"FAILED sample {s.index}: {s.error}")
    if measured is None:
        print(f"perfbench: no sample of {len(samples)} verified", file=sys.stderr)
        return 1
    result, notes = measured
    print(f"error_rate = {len(failed) / len(samples):.4f} ({len(failed)} of {len(samples)} samples)")
    for name, (value, unit) in result.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    for key in ("microAUC", "spans"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
