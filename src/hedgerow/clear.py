"""Cleartext mirror of the encrypted backend, plus an op-counting wrapper.

Every operation on :class:`HeBackend` exists here with the same signature
and the same slot semantics mod t, so circuit code runs unchanged on either
backend and the decoded outputs can be compared exactly.  Levels, parameter
fingerprints, and Galois-key availability are tracked identically so error
behaviour mirrors the encrypted side too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DepthExhaustedError,
    FingerprintMismatchError,
    MissingGaloisKeyError,
    ParamError,
)
from .ntt import add_mod, mul_mod, sub_mod
from .params import HeParams
from .scheme import SlotSumMixin, default_rotation_steps


@dataclass(frozen=True, eq=False)
class ClearPlaintext:
    params: HeParams
    slots: np.ndarray  # (N,) uint64 mod t


@dataclass(frozen=True, eq=False)
class ClearCiphertext:
    params_fingerprint: bytes
    level: int
    slots: np.ndarray  # (N,) uint64 mod t


@dataclass(frozen=True, eq=False)
class ClearSecretKey:
    params: HeParams

    @property
    def fingerprint(self) -> bytes:
        return self.params.fingerprint


@dataclass(frozen=True, eq=False)
class ClearPublicKey:
    params: HeParams

    @property
    def fingerprint(self) -> bytes:
        return self.params.fingerprint


@dataclass(frozen=True, eq=False)
class ClearEvalKeys:
    params: HeParams
    galois_steps: frozenset
    has_row_swap: bool = True

    @property
    def fingerprint(self) -> bytes:
        return self.params.fingerprint


class ClearBackend(SlotSumMixin):
    """Slot-vector evaluation with the HeBackend operation contract."""

    is_encrypted = False

    def __init__(self, params: HeParams):
        self.params = params
        self.t = np.uint64(params.plaintext_modulus)
        self.row = params.rotation_group_size

    def encode(self, values) -> ClearPlaintext:
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ParamError("encode expects a 1-d vector")
        if arr.size > self.params.slot_count:
            raise ParamError(
                f"vector of length {arr.size} exceeds {self.params.slot_count} slots"
            )
        slots = np.zeros(self.params.slot_count, dtype=np.uint64)
        slots[: arr.size] = (arr % np.int64(self.params.plaintext_modulus)).astype(np.uint64)
        return ClearPlaintext(self.params, slots)

    def decode(self, pt: ClearPlaintext) -> np.ndarray:
        return pt.slots.copy()

    def keygen(self, seed, rotation_steps: tuple[int, ...] | None = None):
        if rotation_steps is None:
            rotation_steps = default_rotation_steps(self.params)
        effective = frozenset(s % self.row for s in rotation_steps) - {0}
        sk = ClearSecretKey(self.params)
        pk = ClearPublicKey(self.params)
        ek = ClearEvalKeys(self.params, effective)
        return sk, pk, ek

    def encrypt(self, pk: ClearPublicKey, pt: ClearPlaintext, seed=None) -> ClearCiphertext:
        self._check_fp(pk.fingerprint)
        return ClearCiphertext(
            self.params.fingerprint, self.params.depth_budget, pt.slots.copy()
        )

    def decrypt(self, sk: ClearSecretKey, ct: ClearCiphertext) -> ClearPlaintext:
        self._check_fp(sk.fingerprint)
        self._check_fp(ct.params_fingerprint)
        return ClearPlaintext(self.params, ct.slots.copy())

    def noise_budget(self, sk: ClearSecretKey, ct: ClearCiphertext) -> int:
        # the mirror carries no noise; report the fresh-ciphertext cap
        return self.params.coeff_modulus_product.bit_length() - 1

    def add_ct(self, a: ClearCiphertext, b: ClearCiphertext) -> ClearCiphertext:
        self._check_pair(a, b)
        return ClearCiphertext(
            a.params_fingerprint, min(a.level, b.level), add_mod(a.slots, b.slots, self.t)
        )

    def sub_ct(self, a: ClearCiphertext, b: ClearCiphertext) -> ClearCiphertext:
        self._check_pair(a, b)
        return ClearCiphertext(
            a.params_fingerprint, min(a.level, b.level), sub_mod(a.slots, b.slots, self.t)
        )

    def negate(self, a: ClearCiphertext) -> ClearCiphertext:
        zero = np.uint64(0)
        return ClearCiphertext(
            a.params_fingerprint, a.level, np.where(a.slots == zero, zero, self.t - a.slots)
        )

    def add_pt(self, a: ClearCiphertext, pt: ClearPlaintext) -> ClearCiphertext:
        self._check_fp(a.params_fingerprint)
        self._check_fp(pt.params.fingerprint)
        return ClearCiphertext(a.params_fingerprint, a.level, add_mod(a.slots, pt.slots, self.t))

    def sub_pt(self, a: ClearCiphertext, pt: ClearPlaintext) -> ClearCiphertext:
        self._check_fp(a.params_fingerprint)
        self._check_fp(pt.params.fingerprint)
        return ClearCiphertext(a.params_fingerprint, a.level, sub_mod(a.slots, pt.slots, self.t))

    def mul_pt(self, a: ClearCiphertext, pt: ClearPlaintext) -> ClearCiphertext:
        self._check_fp(a.params_fingerprint)
        self._check_fp(pt.params.fingerprint)
        return ClearCiphertext(a.params_fingerprint, a.level, mul_mod(a.slots, pt.slots, self.t))

    def mul_ct(self, a: ClearCiphertext, b: ClearCiphertext, ek: ClearEvalKeys) -> ClearCiphertext:
        self._check_pair(a, b)
        self._check_fp(ek.fingerprint)
        if a.level < 1 or b.level < 1:
            raise DepthExhaustedError("no multiplicative depth remaining")
        return ClearCiphertext(
            a.params_fingerprint,
            min(a.level, b.level) - 1,
            mul_mod(a.slots, b.slots, self.t),
        )

    def rotate(self, a: ClearCiphertext, steps: int, ek: ClearEvalKeys) -> ClearCiphertext:
        self._check_fp(a.params_fingerprint)
        self._check_fp(ek.fingerprint)
        eff = steps % self.row
        if eff == 0:
            return a
        if eff not in ek.galois_steps:
            raise MissingGaloisKeyError(f"no Galois key for rotation step {steps}")
        rows = a.slots.reshape(2, self.row)
        return ClearCiphertext(a.params_fingerprint, a.level, np.roll(rows, -eff, axis=1).reshape(-1))

    def swap_rows(self, a: ClearCiphertext, ek: ClearEvalKeys) -> ClearCiphertext:
        self._check_fp(a.params_fingerprint)
        self._check_fp(ek.fingerprint)
        if not ek.has_row_swap:
            raise MissingGaloisKeyError("no Galois key for the row swap")
        rows = a.slots.reshape(2, self.row)
        return ClearCiphertext(a.params_fingerprint, a.level, rows[::-1].reshape(-1).copy())

    def _check_fp(self, fingerprint: bytes) -> None:
        if fingerprint != self.params.fingerprint:
            raise FingerprintMismatchError("object belongs to different parameters")

    def _check_pair(self, a, b) -> None:
        self._check_fp(a.params_fingerprint)
        if a.params_fingerprint != b.params_fingerprint:
            raise FingerprintMismatchError("operands belong to different parameters")


@dataclass
class OpCounts:
    """Mutable tally used by CountingBackend."""

    counts: dict = field(default_factory=dict)

    def bump(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def reset(self) -> None:
        self.counts.clear()


class CountingBackend(SlotSumMixin):
    """Backend wrapper tallying primitive-operation calls.

    ``sum_slots`` comes from the shared mixin, so its internal rotations and
    additions are counted like any direct call.
    """

    _COUNTED = (
        "encrypt",
        "decrypt",
        "add_ct",
        "sub_ct",
        "negate",
        "add_pt",
        "sub_pt",
        "mul_pt",
        "mul_ct",
        "rotate",
        "swap_rows",
    )

    def __init__(self, inner):
        self.inner = inner
        self.params = inner.params
        self.is_encrypted = inner.is_encrypted
        self.ops = OpCounts()

    def __getattr__(self, name):
        if name in self._COUNTED:
            target = getattr(self.inner, name)

            def counted(*args, **kwargs):
                self.ops.bump(name)
                return target(*args, **kwargs)

            return counted
        return getattr(self.inner, name)
