"""Cleartext mirror of the encrypted backend, plus an op-counting wrapper.

Every operation on :class:`HeBackend` exists here with the same signature
and the same slot semantics mod t, so circuit code runs unchanged on either
backend and the decoded outputs can be compared exactly.  Both subclass
:class:`scheme.Backend`, which holds the operand check, ``encode``, the
depth and the Galois-key rules once, so levels and errors match by
construction; a mirror ciphertext records its prime count, K when made
and k' after ``mod_switch``, so the mirror refuses the ops ``HeBackend``
refuses on a switched ciphertext.  The mirror shares
:class:`scheme.PackedPlaintext` (it reads only the slots), and its secret
and public keys are plain :class:`scheme.ParamsKey`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ntt import add_mod, mul_mod, sub_mod
from .params import HeParams
from .scheme import Backend, PackedPlaintext, ParamsKey, galois_steps


@dataclass(frozen=True, eq=False)
class ClearCiphertext:
    params: HeParams
    level: int
    slots: np.ndarray  # (N,) uint64 mod t
    prime_count: int  # R, as HeBackend's Ciphertext would hold


@dataclass(frozen=True, eq=False)
class ClearEvalKeys(ParamsKey):
    galois: frozenset  # effective steps (0 < step < N/2) with a key
    row_swap: bool = True


class ClearBackend(Backend):
    """Slot-vector evaluation with the HeBackend operation contract."""

    def __init__(self, params: HeParams):
        self.params = params
        self.t = np.uint64(params.plaintext_modulus)
        self.row = params.rotation_group_size

    def keygen(self, seed, rotation_steps: tuple[int, ...] | None = None):
        """(secret, public, eval) keys; the first two are the same ParamsKey."""
        key = ParamsKey(self.params)
        steps = frozenset(galois_steps(self.params, rotation_steps))
        return key, key, ClearEvalKeys(self.params, steps)

    def encrypt(self, pk: ParamsKey, pt: PackedPlaintext, seed=None) -> ClearCiphertext:
        self._check(pk, pt)
        return ClearCiphertext(self.params, self.params.depth_budget, pt.slots.copy(),
                               len(self.params.coeff_modulus))

    def decrypt(self, sk: ParamsKey, ct: ClearCiphertext) -> PackedPlaintext:
        self._check(sk, ct, switched=True)
        return PackedPlaintext(self.params, ct.slots.copy())

    def _switch(self, a: ClearCiphertext) -> ClearCiphertext:
        # the slots are what the switch keeps
        return replace(a, prime_count=self.params.output_primes)

    def noise_budget(self, sk: ParamsKey, ct: ClearCiphertext) -> int:
        # the mirror carries no noise; report the fresh-ciphertext cap
        self._check(sk, ct, switched=True)
        return self.params.coeff_modulus_product.bit_length() - 1

    def add_ct(self, a: ClearCiphertext, b: ClearCiphertext) -> ClearCiphertext:
        self._check(a, b, switched=True)
        return replace(a, level=min(a.level, b.level), slots=add_mod(a.slots, b.slots, self.t))

    def sub_ct(self, a: ClearCiphertext, b: ClearCiphertext) -> ClearCiphertext:
        self._check(a, b, switched=True)
        return replace(a, level=min(a.level, b.level), slots=sub_mod(a.slots, b.slots, self.t))

    def negate(self, a: ClearCiphertext) -> ClearCiphertext:
        self._check(a)
        return replace(a, slots=sub_mod(0, a.slots, self.t))

    def add_pt(self, a: ClearCiphertext, pt: PackedPlaintext) -> ClearCiphertext:
        self._check(a, pt)
        return replace(a, slots=add_mod(a.slots, pt.slots, self.t))

    def sub_pt(self, a: ClearCiphertext, pt: PackedPlaintext) -> ClearCiphertext:
        self._check(a, pt)
        return replace(a, slots=sub_mod(a.slots, pt.slots, self.t))

    def mul_pt(self, a: ClearCiphertext, pt: PackedPlaintext) -> ClearCiphertext:
        self._check(a, pt)
        return replace(a, slots=mul_mod(a.slots, pt.slots, self.t))

    def mul_ct(self, a: ClearCiphertext, b: ClearCiphertext, ek: ClearEvalKeys) -> ClearCiphertext:
        level = self._product_level(a, b, ek)
        return replace(a, level=level, slots=mul_mod(a.slots, b.slots, self.t))

    def rotate(self, a: ClearCiphertext, steps: int, ek: ClearEvalKeys) -> ClearCiphertext:
        eff = self._rotation_step(a, steps, ek)
        if eff == 0:
            return a
        rows = a.slots.reshape(2, self.row)
        return replace(a, slots=np.roll(rows, -eff, axis=1).reshape(-1))

    def swap_rows(self, a: ClearCiphertext, ek: ClearEvalKeys) -> ClearCiphertext:
        self._check_row_swap(a, ek)
        rows = a.slots.reshape(2, self.row)
        return replace(a, slots=rows[::-1].reshape(-1).copy())


@dataclass
class OpCounts:
    """Mutable tally used by CountingBackend."""

    counts: dict = field(default_factory=dict)

    def bump(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)


class CountingBackend:
    """Backend wrapper tallying primitive-operation calls.

    It takes only ``fold`` and ``sum_slots`` from :class:`Backend`, so the
    rotations, row swaps and additions inside them are counted like direct
    calls; every other public method of the inner backend, including one
    added later, is passed through and counted once, as itself.
    """

    fold = Backend.fold
    sum_slots = Backend.sum_slots

    def __init__(self, inner):
        self.inner = inner
        self.params = inner.params
        self.ops = OpCounts()

    def __getattr__(self, name):
        target = getattr(self.inner, name)
        if name.startswith("_") or not callable(target):
            return target

        def counted(*args, **kwargs):
            self.ops.bump(name)
            return target(*args, **kwargs)

        return counted
