"""Kernel timings at one preset, through hedgerow's public calls.

At the workload's preset: the negacyclic NTT forward and inverse on the coefficient
basis and on the wide multiplication basis, then encrypt, decrypt, mul_pt,
mul_ct and a one-step rotate.  Each op is run once untimed, then timed until
it has run at least ``MIN_REPS`` times and for at least ``MIN_SECONDS``; the
median call is reported in milliseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hedgerow import params as hparams
from hedgerow import ring as hring
from hedgerow import scheme

OPS = (
    "ntt_forward", "ntt_inverse", "ntt_forward_wide", "ntt_inverse_wide",
    "encrypt", "decrypt", "mul_pt", "mul_ct", "rotate",
)
MIN_REPS = 5
MAX_REPS = 200
MIN_SECONDS = 0.2


def _median_ms(fn) -> float:
    fn()
    times = []
    begin = time.perf_counter()
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or time.perf_counter() - begin < MIN_SECONDS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def preset_ops(preset: str, seed: bytes) -> dict[str, float]:
    """Median milliseconds per op for one preset."""
    params = hparams.gen_params(preset)
    backend = scheme.HeBackend(params)
    sk, pk, ek = scheme.keygen(params, seed, rotation_steps=(1,))
    ring = hring.get_ring(params)
    _, plan_w, _ = ring.wide_basis()
    rng = np.random.default_rng(int.from_bytes(seed[:8], "little"))
    a_q = np.stack([rng.integers(0, p, params.ring_degree, dtype=np.uint64) for p in ring.q_primes])
    a_w = np.stack([rng.integers(0, p, params.ring_degree, dtype=np.uint64) for p in plan_w.moduli])
    t = params.plaintext_modulus
    pt = backend.encode(rng.integers(0, t, params.slot_count, dtype=np.int64))
    ct = backend.encrypt(pk, pt, seed)
    other = backend.encrypt(pk, backend.encode(rng.integers(0, 2, params.slot_count)), seed[::-1])
    return {
        "ntt_forward": _median_ms(lambda: ring.plan_q.forward(a_q)),
        "ntt_inverse": _median_ms(lambda: ring.plan_q.inverse(a_q)),
        "ntt_forward_wide": _median_ms(lambda: plan_w.forward(a_w)),
        "ntt_inverse_wide": _median_ms(lambda: plan_w.inverse(a_w)),
        "encrypt": _median_ms(lambda: backend.encrypt(pk, pt, seed)),
        "decrypt": _median_ms(lambda: backend.decrypt(sk, ct)),
        "mul_pt": _median_ms(lambda: backend.mul_pt(ct, pt)),
        "mul_ct": _median_ms(lambda: backend.mul_ct(ct, other, ek)),
        "rotate": _median_ms(lambda: backend.rotate(ct, 1, ek)),
    }


def run(preset: str, seed: bytes) -> dict[str, tuple[float, str]]:
    """``micro.<op>_ms`` at ``preset``.  The name leaves the preset out so that
    every workload reports the same per-layer names; the preset is the
    workload's own, printed in the environment line."""
    return {f"micro.{op}_ms": (ms, "ms") for op, ms in preset_ops(preset, seed).items()}
