"""Binary containers for keys and ciphertexts.

Layout: magic ``HEGR``, version byte (4), type-tag byte, the 32-byte params
fingerprint, then a stream of little-endian 64-bit words.  Every polynomial
is written as its residue limbs in (prime-index-major, evaluation-point-minor)
order, in the NTT domain they are held in; versions 1-3 held ciphertexts and
secret keys in coefficient form and are refused.  Word streams per type:

* ciphertext : part count (=2), level, then per part K*N limbs
* secret key : part count (=1), K*N limbs
* public key : part count (=2), 2 * K*N limbs
* eval keys  : each key is one pair (b, a) of polys mod qP, 2 * (K+L)*N limbs,
  the K coefficient-prime rows first and then the L special-prime rows (see
  ring.py).  The relinearization key; the Galois entry count, then per entry
  the effective step followed by its key, in strictly increasing step order;
  a row-swap flag (0 or 1) and, when 1, its key.  The whole container is
  38 + 8 * (2 + G) + (1 + G + S) * 16 * (K+L) * N bytes for G Galois keys
  and S row-swap keys.

Deserialization always validates the fingerprint against the caller's
parameters and fails on truncation, bad magic, or version mismatch (so a
container written by another version is refused, not misread).  Every
residue limb must lie below its own row's prime (q_i or p_j), a ciphertext
level at most the depth budget, and every Galois step in (0, N/2), so no
out-of-range word reaches the arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import FingerprintMismatchError, SerializationError
from .params import HeParams
from .ring import get_ring
from .scheme import Ciphertext, EvalKeys, PublicKey, SecretKey

MAGIC = b"HEGR"
VERSION = 4

TAG_CIPHERTEXT = 2
TAG_SECRET_KEY = 3
TAG_PUBLIC_KEY = 4
TAG_EVAL_KEYS = 5


def _header(tag: int, fingerprint: bytes) -> bytearray:
    out = bytearray(MAGIC)
    out.append(VERSION)
    out.append(tag)
    out.extend(fingerprint)
    return out


def _poly_bytes(poly: np.ndarray) -> bytes:
    return np.ascontiguousarray(poly, dtype="<u8").tobytes()


def _words(values) -> bytes:
    return np.asarray(values, dtype="<u8").tobytes()


class _Reader:
    def __init__(self, data: bytes, expected_tag: int, params: HeParams):
        if len(data) < 38:
            raise SerializationError("container truncated before header")
        if data[:4] != MAGIC:
            raise SerializationError("bad magic; not a HEGR container")
        if data[4] != VERSION:
            raise SerializationError(f"unsupported container version {data[4]}")
        if data[5] != expected_tag:
            raise SerializationError(
                f"container holds type tag {data[5]}, expected {expected_tag}"
            )
        if bytes(data[6:38]) != params.fingerprint:
            raise FingerprintMismatchError("container was written under different parameters")
        self._view = memoryview(data)
        self._pos = 38
        self._params = params

    def words(self, count: int) -> np.ndarray:
        end = self._pos + 8 * count
        if end > len(self._view):
            raise SerializationError("container truncated")
        out = np.frombuffer(self._view[self._pos : end], dtype="<u8").copy()
        self._pos = end
        return out

    def u64(self) -> int:
        return int(self.words(1)[0])

    def rns_poly(self, primes: tuple[int, ...] | None = None) -> np.ndarray:
        """One residue polynomial with a row per prime (by default the
        coefficient primes), every limb below its row's prime."""
        primes = self._params.coeff_modulus if primes is None else primes
        poly = self.words(len(primes) * self._params.ring_degree).reshape(len(primes), -1)
        if (poly >= np.array(primes, dtype=np.uint64)[:, None]).any():
            raise SerializationError("residue limb not below its row's prime")
        return poly.astype(np.uint64, copy=False)

    def finish(self) -> None:
        if self._pos != len(self._view):
            raise SerializationError("trailing bytes after container payload")


# -- ciphertext ----------------------------------------------------------------


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    out = _header(TAG_CIPHERTEXT, ct.params_fingerprint)
    out += _words([len(ct.parts), ct.level])
    for part in ct.parts:
        out += _poly_bytes(part)
    return bytes(out)


def deserialize_ciphertext(data: bytes, params: HeParams) -> Ciphertext:
    r = _Reader(data, TAG_CIPHERTEXT, params)
    count = r.u64()
    if count != 2:
        raise SerializationError(f"ciphertext must hold 2 parts, container holds {count}")
    level = r.u64()
    if level > params.depth_budget:
        raise SerializationError(
            f"ciphertext level {level} exceeds the depth budget {params.depth_budget}"
        )
    parts = (r.rns_poly(), r.rns_poly())
    r.finish()
    return Ciphertext(params.fingerprint, level, parts)


# -- keys ------------------------------------------------------------------------


def serialize_secret_key(sk: SecretKey) -> bytes:
    out = _header(TAG_SECRET_KEY, sk.fingerprint)
    out += _words([1])
    out += _poly_bytes(sk.s)
    return bytes(out)


def deserialize_secret_key(data: bytes, params: HeParams) -> SecretKey:
    r = _Reader(data, TAG_SECRET_KEY, params)
    if r.u64() != 1:
        raise SerializationError("secret key container must hold one part")
    s = r.rns_poly()
    r.finish()
    return SecretKey(params, s)


def serialize_public_key(pk: PublicKey) -> bytes:
    out = _header(TAG_PUBLIC_KEY, pk.fingerprint)
    out += _words([2])
    out += _poly_bytes(pk.b_ntt)
    out += _poly_bytes(pk.a_ntt)
    return bytes(out)


def deserialize_public_key(data: bytes, params: HeParams) -> PublicKey:
    r = _Reader(data, TAG_PUBLIC_KEY, params)
    if r.u64() != 2:
        raise SerializationError("public key container must hold two parts")
    b = r.rns_poly()
    a = r.rns_poly()
    r.finish()
    return PublicKey(params, b, a)


def _write_ksk(out: bytearray, ksk) -> None:
    for poly in ksk:
        out += _poly_bytes(poly)


def serialize_eval_keys(ek: EvalKeys) -> bytes:
    out = _header(TAG_EVAL_KEYS, ek.fingerprint)
    _write_ksk(out, ek.relin)
    steps = sorted(ek.galois)
    out += _words([len(steps)])
    for step in steps:
        out += _words([step])
        _write_ksk(out, ek.galois[step])
    out += _words([1 if ek.row_swap is not None else 0])
    if ek.row_swap is not None:
        _write_ksk(out, ek.row_swap)
    return bytes(out)


def deserialize_eval_keys(data: bytes, params: HeParams) -> EvalKeys:
    r = _Reader(data, TAG_EVAL_KEYS, params)
    qp_primes = get_ring(params).qp_primes

    def read_ksk() -> tuple:
        return r.rns_poly(qp_primes), r.rns_poly(qp_primes)

    relin = read_ksk()
    galois = {}
    previous = 0
    for _ in range(r.u64()):
        step = r.u64()
        if not previous < step < params.rotation_group_size:
            raise SerializationError(
                f"Galois step {step} is not above {previous} and below "
                f"{params.rotation_group_size}"
            )
        galois[step] = read_ksk()
        previous = step
    flag = r.u64()
    if flag > 1:
        raise SerializationError(f"row-swap flag {flag} is neither 0 nor 1")
    row_swap = read_ksk() if flag else None
    r.finish()
    return EvalKeys(params, relin, galois, row_swap)
