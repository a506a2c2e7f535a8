"""Spans around hedgerow's public callables, recorded from outside the program.

A :class:`Patcher` swaps a wrapper in for a module function (and for every
other module attribute of the hedgerow package bound to the same object, so
``from .compare import compare_encrypted`` call sites are covered too) or for
a class method, and puts the originals back on ``restore``.

A :class:`Tracer` uses it to record one span per call: name, start, end,
parent span, sample id and phase, plus the bytes or rows the call handled.
Spans live in per-thread lists and are only read after tracing stops.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass

# (module, attribute path, metric name).  HeBackend methods keep the short
# ``scheme.<op>`` names; other classes keep their class name in the metric.
TARGETS = (
    *(("hedgerow.scheme", f"HeBackend.{op}", f"scheme.{op}") for op in (
        "mul_ct", "rotate", "swap_rows", "mul_pt", "add_ct", "sub_ct", "negate",
        "add_pt", "sub_pt", "encode", "encrypt", "decrypt", "noise_budget",
    )),
    ("hedgerow.scheme", "keygen", "scheme.keygen"),
    ("hedgerow.ntt", "NttPlan.forward", "ntt.NttPlan.forward"),
    ("hedgerow.ntt", "NttPlan.inverse", "ntt.NttPlan.inverse"),
    *(("hedgerow.ring", f"GarnerBasis.{fn}", f"ring.GarnerBasis.{fn}") for fn in (
        "to_digits", "digits_to_residues", "digits_to_ints", "residues_to_ints",
    )),
    ("hedgerow.ring", "RingContext.apply_automorphism", "ring.RingContext.apply_automorphism"),
    ("hedgerow.ring", "RingContext.scale_plaintext", "ring.RingContext.scale_plaintext"),
    ("hedgerow.compare", "compare_encrypted", "compare.compare_encrypted"),
    ("hedgerow.compare", "compare_encrypted_model", "compare.compare_encrypted_model"),
    ("hedgerow.trees", "tree_scores_encrypted", "trees.tree_scores_encrypted"),
    ("hedgerow.trees", "class_sums", "trees.class_sums"),
    ("hedgerow.svm", "infer_encrypted", "svm.infer_encrypted"),
    ("hedgerow.modelio", "pack_client_input", "modelio.pack_client_input"),
    ("hedgerow.modelio", "ensemble_slot_streams", "modelio.ensemble_slot_streams"),
    ("hedgerow.params", "gen_params", "params.gen_params"),
    *(("hedgerow.serial", fn, f"serial.{fn}") for fn in (
        "serialize_ciphertext", "deserialize_ciphertext",
        "serialize_eval_keys", "deserialize_eval_keys",
    )),
    *(("hedgerow.pipeline", fn, f"pipeline.{fn}") for fn in (
        "encrypt_bundle", "infer_xgb_sample", "decrypt_class_scores",
        "run_encrypt", "run_infer", "run_decrypt",
    )),
)

# Set-up layers: read from the traced set-up, per set-up.  The batch's
# run_infer and run_decrypt repeat some of them on every call, so they are
# also reported per sample as ``.sample_calls``, ``.sample_self_s`` (and
# ``.sample_bytes``).
SETUP_LAYERS = (
    "params.gen_params",
    "modelio.ensemble_slot_streams",
    "serial.serialize_eval_keys",
    "serial.deserialize_eval_keys",
)
# Per-sample layers measured with {calls, self_s}.
CALL_LAYERS = tuple(
    name for _, _, name in TARGETS
    if name not in SETUP_LAYERS
    and name != "scheme.keygen"
    and not name.startswith(("serial.", "ntt."))
)
SERIAL_LAYERS = tuple(name for _, _, name in TARGETS if name.startswith("serial."))
NTT_LAYERS = ("ntt.NttPlan.forward", "ntt.NttPlan.inverse")
# A call of one of these starts a new sample id unless one is already set
# (the batch workload's run_infer evaluates samples on pool threads).
SAMPLE_ROOTS = ("pipeline.infer_xgb_sample",)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Patcher:
    """Replaces hedgerow callables with wrappers and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name != "hedgerow" and not name.startswith("hedgerow."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    sample: int | None
    phase: str
    nbytes: int = 0
    rows: int = 0
    width: int = 0


class _ThreadState:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.sample: int | None = None


class Tracer:
    """Records spans for every target while installed."""

    def __init__(self):
        self.phase = "setup"
        self._ids = itertools.count()
        self._samples = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[list[Span]] = []
        self._main = self._thread_state()
        self._patcher = Patcher()

    def _thread_state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state.spans)
        return state

    def install(self) -> None:
        for module, path, name in TARGETS:
            self._patcher.wrap(module, path, functools.partial(self._wrapper, name))

    def uninstall(self) -> None:
        self._patcher.restore()

    def sample(self, index: int | None):
        """Tag spans opened by this thread with a sample id (None clears it)."""
        self._thread_state().sample = index

    def _wrapper(self, name: str, original):
        tracer = self
        ntt = name in NTT_LAYERS
        serialize = name.startswith("serial.serialize_")
        deserialize = name.startswith("serial.deserialize_")

        def traced(*args, **kwargs):
            local = tracer._thread_state()
            main = tracer._main
            if local.stack:
                parent = local.stack[-1]
            else:  # a pool thread: the caller is whatever the main thread has open
                parent = main.stack[-1] if local is not main and main.stack else None
            sample = local.sample
            if sample is None and local is not main:
                sample = main.sample
            new_root = sample is None and name in SAMPLE_ROOTS
            if new_root:
                sample = next(tracer._samples)
                local.sample = sample
            span = Span(next(tracer._ids), name, 0.0, 0.0, parent, sample, tracer.phase)
            if ntt:
                arr = args[1]
                span.rows, span.width, span.nbytes = arr.shape[0], arr.shape[1], arr.nbytes
            elif deserialize:
                span.nbytes = len(args[0])
            local.stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                local.stack.pop()
                if new_root:
                    local.sample = None
                local.spans.append(span)
            if serialize:
                span.nbytes = len(result)
            return result

        return traced

    def spans(self) -> list[Span]:
        with self._lock:
            return sorted((s for spans in self._threads for s in spans), key=lambda s: s.start)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.sid, ())]
        out[s.sid] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: list[Span], samples: int, threads: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: sample-phase layers per sample, set-up layers for
    the one traced set-up and again per sample."""
    own = self_times(spans)
    by_sid = {s.sid: s for s in spans}
    run = [s for s in spans if s.phase == "samples"]
    setup = [s for s in spans if s.phase == "setup"]
    out: dict[str, tuple[float, str]] = {}

    def per(pool, name, div):
        picked = [s for s in pool if s.name == name]
        return picked, len(picked) / div, sum(own[s.sid] for s in picked) / div

    for name in CALL_LAYERS:
        _, calls, self_s = per(run, name, samples)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for name in SETUP_LAYERS:
        picked, calls, self_s = per(setup, name, 1)
        if name.startswith("serial."):
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.bytes"] = (sum(s.nbytes for s in picked), "B")
        else:
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        picked, calls, self_s = per(run, name, samples)
        out[f"{name}.sample_calls"] = (calls, "count")
        out[f"{name}.sample_self_s"] = (self_s, "s")
        if name.startswith("serial."):
            out[f"{name}.sample_bytes"] = (sum(s.nbytes for s in picked) / samples, "B")
    for name in SERIAL_LAYERS:
        if name not in SETUP_LAYERS:
            picked, _, self_s = per(run, name, samples)
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.bytes"] = (sum(s.nbytes for s in picked) / samples, "B")

    out["scheme.keygen.s"] = (sum(s.end - s.start for s in setup if s.name == "scheme.keygen"), "s")

    butterflies = computed = 0
    for name in NTT_LAYERS:
        picked, calls, self_s = per(run, name, samples)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.rows"] = (sum(s.rows for s in picked) / samples, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        for s in picked:
            log_n = s.width.bit_length() - 1
            butterflies += s.rows * (s.width // 2) * log_n
            # log2 N butterfly stages plus the twist and the bit-reversal
            # gather, each reading and writing the whole (rows, N) array once
            computed += 2 * s.nbytes * (log_n + 2)
    out["ntt.butterflies"] = (butterflies / samples, "count")
    out["ntt.bytes_computed"] = (computed / samples, "B")

    infers = [s for s in run if s.name == "pipeline.run_infer"]
    evals = [s for s in run if s.name == "pipeline.infer_xgb_sample"
             and s.parent in by_sid and by_sid[s.parent].name == "pipeline.run_infer"]
    wall = sum(s.end - s.start for s in infers)
    busy = sum(s.end - s.start for s in evals) / (threads * wall) if wall else 0.0
    waits = [s.start - by_sid[s.parent].start for s in evals]
    out["pipeline.batch.busy_frac"] = (busy, "fraction")
    out["pipeline.batch.queue_wait_s.p50"] = (statistics.median(waits) if waits else 0.0, "s")
    return out


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")
