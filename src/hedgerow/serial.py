"""Binary containers for keys and ciphertexts.

Every container has one layout: magic ``HEGR``, the version byte (7), the
type-tag byte and the 32-byte params fingerprint; then its little-endian
64-bit words; then, for a seeded ciphertext, its 32-byte seed; then its
residue polynomials, which run to the end of the container.  Each
polynomial is written as its residue limbs in (prime-index-major,
evaluation-point-minor) order, in the NTT domain it is held in, one
little-endian 4-byte limb each: every prime has at most ``ntt.MODULUS_BITS``
= 31 bits.  The type fixes how many polynomials follow, so no part count is
stored:

* ciphertext        : words ``[level, R]``; c0 and c1, R rows each, the
  first R of q's K primes: 54 + 8 * R * N bytes.  R is K but for a
  server's outputs, which ``mod_switch`` takes to the preset's k' =
  ``params.output_primes`` (xgb-d2: 98,358 B in place of 163,894)
* seeded ciphertext : words ``[level]``; the 32-byte ``a_seed`` that c1
  expands from (``scheme.expand_a``); c0, always K rows:
  78 + 4 * K * N bytes
* secret key        : no words; s, K rows
* public key        : no words; b and a, K rows each
* eval keys         : words ``[G, the G Galois steps in increasing order,
  S]``; the (b, a) pairs of the relinearization key, of each step in order
  and of the row swap when S = 1, each poly mod qP with K+L rows: the K
  coefficient-prime rows first and then the L special-prime rows (see
  ring.py).  The whole container is 38 + 8 * (2 + G) + (1 + G + S) * 8 *
  (K+L) * N bytes.

A fresh encryption under the secret key keeps its ``a_seed`` and is written
seeded; every other ciphertext is written whole.  ``deserialize_ciphertext``
reads both, and a seeded one keeps its seed, so it writes back to its own
bytes.

Deserialization checks the magic, the version (versions 1-6 are refused,
not misread), the type tag and the params fingerprint, and that the
residues fill the rest of the container exactly.  Every residue limb must
lie below its own row's prime (q_i or p_j), a ciphertext level at most the
depth budget and its prime count R in [1, K], every Galois step in (0, N/2)
and above the one before it, and the row-swap flag 0 or 1, so no
out-of-range word reaches the arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import FingerprintMismatchError, SerializationError
from .params import HeParams
from .ring import get_ring
from .scheme import SEED_BYTES, Ciphertext, EvalKeys, PublicKey, SecretKey, expand_a

MAGIC = b"HEGR"
VERSION = 7
HEADER_BYTES = 38  # magic, version, tag, fingerprint
LIMB = "<u4"  # every residue is below 2^31
LIMB_BYTES = np.dtype(LIMB).itemsize

TAG_CIPHERTEXT = 2
TAG_SECRET_KEY = 3
TAG_PUBLIC_KEY = 4
TAG_EVAL_KEYS = 5
TAG_SEEDED_CIPHERTEXT = 6


def _container(tag: int, value, words, polys, seed: bytes = b"") -> bytes:
    return b"".join([
        MAGIC, bytes([VERSION, tag]), value.params.fingerprint,
        np.asarray(words, dtype="<u8").tobytes(), seed,
        *(np.ascontiguousarray(poly, dtype=LIMB).tobytes() for poly in polys),
    ])


class _Reader:
    def __init__(self, data: bytes, tags: tuple[int, ...], params: HeParams):
        if len(data) < HEADER_BYTES:
            raise SerializationError("container truncated before header")
        if data[:4] != MAGIC:
            raise SerializationError("bad magic; not a HEGR container")
        if data[4] != VERSION:
            raise SerializationError(f"unsupported container version {data[4]}")
        if data[5] not in tags:
            raise SerializationError(
                f"container holds type tag {data[5]}, expected {' or '.join(map(str, tags))}"
            )
        if bytes(data[6:HEADER_BYTES]) != params.fingerprint:
            raise FingerprintMismatchError("container was written under different parameters")
        self.tag = data[5]
        self._view = memoryview(data)
        self._pos = HEADER_BYTES
        self._params = params

    def raw(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._view):
            raise SerializationError("container truncated")
        out = bytes(self._view[self._pos : end])
        self._pos = end
        return out

    def words(self, count: int) -> np.ndarray:
        return np.frombuffer(self.raw(8 * count), dtype="<u8").astype(np.uint64)

    def u64(self) -> int:
        return int(self.words(1)[0])

    def polys(self, count: int, primes: tuple[int, ...] | None = None) -> list[np.ndarray]:
        """The rest of the container as ``count`` polynomials, each with a row
        per prime (by default the coefficient primes), every limb below its
        row's prime and no byte left over, widened to uint64 after that
        check.  Each is widened on its own: one array holding them all
        raised perfbench's peak RSS by 2-5 MB."""
        primes = self._params.coeff_modulus if primes is None else primes
        shape = (count, len(primes), self._params.ring_degree)
        rest = len(self._view) - self._pos
        if rest != LIMB_BYTES * count * shape[1] * shape[2]:
            raise SerializationError(
                f"container holds {rest} bytes of residues, its type fixes "
                f"{count} polys of {shape[1]} x {shape[2]} limbs"
            )
        polys = np.frombuffer(self._view[self._pos :], dtype=LIMB).reshape(shape)
        if (polys.max(axis=(0, 2)) >= np.array(primes, dtype=np.uint64)).any():
            raise SerializationError("residue limb not below its row's prime")
        return [poly.astype(np.uint64) for poly in polys]


# -- ciphertext ----------------------------------------------------------------


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    if ct.a_seed is not None:
        return _container(TAG_SEEDED_CIPHERTEXT, ct, [ct.level], ct.parts[:1], ct.a_seed)
    return _container(TAG_CIPHERTEXT, ct, [ct.level, ct.prime_count], ct.parts)


def deserialize_ciphertext(data: bytes, params: HeParams) -> Ciphertext:
    """Either form; a seeded ciphertext's c1 is expanded from its seed, which
    it keeps."""
    r = _Reader(data, (TAG_CIPHERTEXT, TAG_SEEDED_CIPHERTEXT), params)
    level = r.u64()
    if level > params.depth_budget:
        raise SerializationError(
            f"ciphertext level {level} exceeds the depth budget {params.depth_budget}"
        )
    if r.tag == TAG_CIPHERTEXT:
        rows, k = r.u64(), len(params.coeff_modulus)
        if not 1 <= rows <= k:
            raise SerializationError(f"ciphertext prime count {rows} is not in [1, {k}]")
        return Ciphertext(params, level, tuple(r.polys(2, params.coeff_modulus[:rows])))
    a_seed = r.raw(SEED_BYTES)
    (c0,) = r.polys(1)
    return Ciphertext(params, level, (c0, expand_a(params, a_seed)), a_seed)


# -- keys ------------------------------------------------------------------------


def serialize_secret_key(sk: SecretKey) -> bytes:
    return _container(TAG_SECRET_KEY, sk, [], [sk.s])


def deserialize_secret_key(data: bytes, params: HeParams) -> SecretKey:
    (s,) = _Reader(data, (TAG_SECRET_KEY,), params).polys(1)
    return SecretKey(params, s)


def serialize_public_key(pk: PublicKey) -> bytes:
    return _container(TAG_PUBLIC_KEY, pk, [], [pk.b_ntt, pk.a_ntt])


def deserialize_public_key(data: bytes, params: HeParams) -> PublicKey:
    b, a = _Reader(data, (TAG_PUBLIC_KEY,), params).polys(2)
    return PublicKey(params, b, a)


def serialize_eval_keys(ek: EvalKeys) -> bytes:
    steps = sorted(ek.galois)
    swap = [] if ek.row_swap is None else [ek.row_swap]
    keys = [ek.relin, *(ek.galois[step] for step in steps), *swap]
    words = [len(steps), *steps, len(swap)]
    return _container(TAG_EVAL_KEYS, ek, words, [p for key in keys for p in key])


def deserialize_eval_keys(data: bytes, params: HeParams) -> EvalKeys:
    r = _Reader(data, (TAG_EVAL_KEYS,), params)
    steps = r.words(r.u64())
    previous = np.concatenate(([np.uint64(0)], steps))[:-1]
    bad = np.flatnonzero((steps <= previous) | (steps >= params.rotation_group_size))
    if bad.size:
        i = bad[0]
        raise SerializationError(
            f"Galois step {steps[i]} is not above {previous[i]} and below "
            f"{params.rotation_group_size}"
        )
    flag = r.u64()
    if flag > 1:
        raise SerializationError(f"row-swap flag {flag} is neither 0 nor 1")
    polys = r.polys(2 * (1 + len(steps) + flag), get_ring(params).qp_primes)
    keys = [tuple(polys[i : i + 2]) for i in range(0, len(polys), 2)]
    galois = dict(zip(steps.tolist(), keys[1 : 1 + len(steps)]))
    return EvalKeys(params, keys[0], galois, keys[-1] if flag else None)
