"""Exact leveled RLWE scheme with full-N slot batching.

Plaintexts are vectors of N slots mod t (``PackedPlaintext``, which the
clear mirror shares); ciphertexts are pairs of RNS residue polynomials mod
q = prod(coeff primes), held like every key in evaluation (NTT) form: only
encryption, decryption and the ring's basis
changes (``mod_up``, ``mod_down``, ``scale_down``) transform; additions and
``mul_pt`` are pointwise, an automorphism a gather.  Multiplication follows the
scale-invariant construction: messages enter as round(q*m/t) (exact
scaling, so the message-dependent noise stays below t/2), and
ciphertext-ciphertext products are computed exactly over the integers (on
the qP basis of the keyswitch, extended by the primes that hold t*d/q) and
scaled back by t/q in RNS the way a keyswitch divides by P, which is the
scale-and-round of Halevi-Polyakov-Shoup (2019).

Relinearization, rotations and the row swap keyswitch in the hybrid form
(Gentry-Halevi-Smart 2012; RNS form per Han-Ki 2020): each key is one RLWE
pair mod qP encrypting P*s', where P is the product of the ring's special
primes (P > q).  A keyswitch lifts its input to qP, multiplies it by the
pair and divides by P with rounding, which leaves less noise than a fresh
encryption carries.

Slot geometry: the N slots form two rotation rows of N/2 (see ring.py).
``rotate`` shifts both rows cyclically left by ``steps``; ``swap_rows``
exchanges them; ``fold`` is the rotate-and-add chain ct <- ct + rotate(ct, s),
optionally ending with ct <- ct + swap_rows(ct), and ``sum_slots`` is one fold
that lands power-of-two block sums at the block-start slots.  ``HeBackend``
runs all three through one chain that keyswitches c1 per automorphism but
holds c0 mod qP, scaled by P, and divides it by P once at the end (the lazy
rescaling of Bossuat et al. 2021's double hoisting): a lone rotation or swap
is the per-op keyswitch byte for byte, and a fold rounds c0 once.

``mod_switch`` (BFV modulus switching: Brakerski 2012, Fan-Vercauteren
2012) follows an output's last multiply: it drops q's last K - k' primes
with rounding.  The result still adds, rotates, swaps rows and folds, at
k' primes (a keyswitch then runs mod q'P', for P' the shortest prefix of
the special primes above q', on the keys' rows of q' and P'), and decrypts
under the secret key's first k' rows; it no longer multiplies or takes a
plaintext.

Every value, plaintext, ciphertext or key, carries the ``HeParams`` it was
made under; ``Backend`` holds the rules ``HeBackend`` and the clear mirror
share, and each of its ops refuses a value of other parameters.  Every key
type derives from ``ParamsKey``.  ``decrypt`` refuses a ciphertext whose
noise margin is exhausted.

``encrypt`` under the public key is the usual (b*u + e1 + round(q*m/t),
a*u + e2); under the secret key it is (e + round(q*m/t) - a*s, a) with a
expanded from a public 32-byte seed, fresh per ciphertext, so a container
carries c0 and the seed only (see serial.py).

Everything is deterministic given explicit seeds: randomness comes from
SHAKE-256 expansion of (seed, domain label), nothing else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DepthExhaustedError,
    FingerprintMismatchError,
    MissingGaloisKeyError,
    NoiseBudgetError,
    ParamError,
)
from .ntt import add_mod, mul_mod, sub_mod
from .params import HeParams
from .ring import get_ring

_CBD_BITS = 20  # centered binomial width; sigma = sqrt(20/2) ~ 3.16
_CBD_MASK = np.uint64((1 << _CBD_BITS) - 1)
SEED_BYTES = 32  # a ciphertext's public a_seed


def _as_seed(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, int):
        return seed.to_bytes(32, "big", signed=False)
    raise TypeError(f"seed must be bytes or int, got {type(seed).__name__}")


class Prg:
    """Deterministic byte stream: SHAKE-256 of (seed, domain label)."""

    def __init__(self, seed):
        self._seed = _as_seed(seed)

    def bytes(self, label: str, count: int) -> bytes:
        h = hashlib.shake_256()
        h.update(self._seed)
        h.update(b"|")
        h.update(label.encode("ascii"))
        return h.digest(count)

    def words(self, label: str, count: int) -> np.ndarray:
        raw = self.bytes(label, count * 8)
        return np.frombuffer(raw, dtype="<u8").copy()

    def uniform_rns(self, label: str, moduli: np.ndarray, n: int) -> np.ndarray:
        """Independent uniform residues, n per row of the (R, 1) ``moduli``."""
        w = self.words(label, moduli.shape[0] * n).reshape(-1, n)
        return w % moduli

    def ternary(self, label: str, n: int) -> np.ndarray:
        w = self.words(label, n)
        return (w % np.uint64(3)).astype(np.int64) - 1

    def cbd(self, label: str, n: int) -> np.ndarray:
        """Centered binomial errors of width _CBD_BITS."""
        w = self.words(label, n)
        a = np.bitwise_count(w & _CBD_MASK).astype(np.int64)
        b = np.bitwise_count((w >> np.uint64(_CBD_BITS)) & _CBD_MASK).astype(np.int64)
        return a - b


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PackedPlaintext:
    """N plaintext slots mod t, the one plaintext type of both backends.

    The encrypted backend reads the coefficient vector of R_t and its
    evaluation forms over q, each built on first use and kept.  A plaintext
    that ``HeBackend.decrypt`` returns records the noise margin it measured.
    """

    params: HeParams
    slots: np.ndarray  # (N,) uint64 mod t
    noise_bits: int | None = None

    @cached_property
    def poly(self) -> np.ndarray:
        """The (N,) coefficients mod t whose evaluations are the slots."""
        ring = get_ring(self.params)
        evals = np.empty((1, ring.n), dtype=np.uint64)
        evals[0, ring.slot_to_eval] = self.slots
        return ring.plan_t.inverse(evals)[0]

    @cached_property
    def _ntt_q(self) -> np.ndarray:
        ring = get_ring(self.params)
        return ring.plan_q.forward(ring.rns_from_small(self.poly.astype(np.int64)))

    @cached_property
    def _scaled_ntt_q(self) -> np.ndarray:
        """round(q*m/t) mod q in evaluation form, as ``add_pt`` adds it."""
        ring = get_ring(self.params)
        return ring.plan_q.forward(ring.scale_plaintext(self.poly))


@dataclass(frozen=True, eq=False)
class Ciphertext:
    """RLWE ciphertext (c0, c1) in evaluation form, decrypting as c0 + c1*s.

    Always two parts: ``mul_ct`` relinearizes its three-part product before
    returning, so no other part count exists outside it.  Both parts hold
    the residues of the first R primes of q, 1 <= R <= K: R = K but after
    ``mod_switch`` (``Backend._check`` says which ops take R < K).  A fresh
    encryption under the secret key keeps the public 32-byte ``a_seed`` its
    c1 expands from (``expand_a``), so its container need not carry c1; no
    op sets it.
    """

    params: HeParams
    level: int
    parts: tuple[np.ndarray, np.ndarray]  # each (R, N) uint64 residues, NTT domain
    a_seed: bytes | None = None

    def __post_init__(self):
        if len(self.parts) != 2:
            raise ParamError(f"ciphertext must have 2 parts, got {len(self.parts)}")
        if self.level < 0:
            raise ParamError("ciphertext level cannot be negative")
        k, rows = len(self.params.coeff_modulus), {len(p) for p in self.parts}
        if len(rows) != 1 or not 1 <= self.prime_count <= k:
            raise ParamError(f"ciphertext parts must hold one row count in [1, {k}], "
                             f"got {sorted(rows)}")
        if self.a_seed is not None and self.prime_count != k:
            raise ParamError("a seeded ciphertext holds all of q's primes")

    @property
    def prime_count(self) -> int:
        """R, the number of q's primes the parts hold."""
        return len(self.parts[0])


def expand_a(params: HeParams, a_seed: bytes) -> np.ndarray:
    """The c1 of a secret-key encryption: uniform residues mod q, drawn
    directly in evaluation form from its public ``a_seed``."""
    ring = get_ring(params)
    return Prg(a_seed).uniform_rns("ct.a", ring.q_arr, ring.n)


@dataclass(frozen=True, eq=False)
class ParamsKey:
    """Key material bound to one parameter set.

    The base of every key type; the clear mirror's secret and public keys
    are exactly this, since they carry nothing but their parameters.
    """

    params: HeParams


@dataclass(frozen=True, eq=False)
class SecretKey(ParamsKey):
    """The ternary secret s, held in evaluation form over q like every key."""

    s: np.ndarray  # (K, N) residues, NTT domain


@dataclass(frozen=True, eq=False)
class PublicKey(ParamsKey):
    b_ntt: np.ndarray  # (K, N), NTT domain
    a_ntt: np.ndarray


KeySwitchKey = tuple  # (b_ntt, a_ntt): one pair of (K+L, N) polys mod qP, NTT domain


@dataclass(frozen=True, eq=False)
class EvalKeys(ParamsKey):
    relin: KeySwitchKey
    galois: dict  # effective step (0 < step < N/2) -> KeySwitchKey
    row_swap: KeySwitchKey | None


def fold_steps(row_width: int) -> tuple[int, ...]:
    """The rotations of the rotate-and-add fold over ``row_width`` slots (a
    power of two), in the order ``sum_slots`` makes them: row_width/2, ..., 2, 1."""
    return tuple(1 << i for i in reversed(range(row_width.bit_length() - 1)))


def default_rotation_steps(params: HeParams) -> tuple[int, ...]:
    """The fold over a whole row, +N/4 down to +1: the steps ``sum_slots``
    makes at every supported width."""
    return fold_steps(params.rotation_group_size)


def galois_steps(params: HeParams, rotation_steps: tuple[int, ...] | None) -> tuple[int, ...]:
    """The steps that get a Galois key: each requested step mod N/2, without
    0 or repeats (by default ``default_rotation_steps``)."""
    if rotation_steps is None:
        rotation_steps = default_rotation_steps(params)
    row = params.rotation_group_size
    return tuple(dict.fromkeys(s % row for s in rotation_steps if s % row))


def keygen(params: HeParams, seed, rotation_steps: tuple[int, ...] | None = None):
    """Deterministic key generation.

    Args:
        params: scheme parameters.
        seed: 256-bit value (bytes or int); same seed reproduces identical keys.
        rotation_steps: rotation amounts to build Galois keys for, negative
            ones included.  Defaults to ``default_rotation_steps``, which
            covers every ``sum_slots`` width.  The row-swap key is always built.

    Returns:
        (SecretKey, PublicKey, EvalKeys)
    """
    ring = get_ring(params)
    prg = Prg(seed)
    n, k = ring.n, ring.k
    plan = ring.plan_q
    qp_arr = ring.qp_arr(k)

    s_qp_ntt = plan.forward(ring.rns_from_small(prg.ternary("sk", n), qp_arr))
    s_ntt = s_qp_ntt[:k]

    def rlwe_b(label: str, moduli: np.ndarray, s_ntt: np.ndarray, a_ntt: np.ndarray) -> np.ndarray:
        """b = -(a*s + e) modulo each row of the (R, 1) column ``moduli``, NTT
        domain: (b, a) is an encryption of zero."""
        e = ring.rns_from_small(prg.cbd(label + ".e", n), moduli)
        b = add_mod(plan.pointwise(a_ntt, s_ntt), plan.forward(e), moduli)
        return sub_mod(0, b, moduli)

    pk_a = plan.forward(prg.uniform_rns("pk.a", ring.q_arr, n))
    pk_b = rlwe_b("pk", ring.q_arr, s_ntt, pk_a)

    def keyswitch_key(label: str, target_ntt: np.ndarray) -> KeySwitchKey:
        """One pair mod qP with b + a*s = P*target - e.  P*target is 0 mod
        every special prime, so only the q rows carry it; a is uniform, so it
        is drawn directly in the NTT domain."""
        a_ntt = prg.uniform_rns(label + ".a", qp_arr, n)
        b = rlwe_b(label, qp_arr, s_qp_ntt, a_ntt)
        b[:k] = add_mod(b[:k], mul_mod(target_ntt, ring.p_mod_q, ring.q_arr), ring.q_arr)
        return b, a_ntt

    relin = keyswitch_key("rlk", plan.pointwise(s_ntt, s_ntt))

    # one key per automorphism: each rotation step's, then the row swap's
    effs = galois_steps(params, rotation_steps)
    targets = [(f"gk.{eff}", ring.galois_element(eff)) for eff in effs]
    targets.append(("gk.swap", ring.row_swap_element))
    keys = [keyswitch_key(label, ring.apply_automorphism(s_ntt, g)) for label, g in targets]

    sk = SecretKey(params, s_ntt)
    pk = PublicKey(params, pk_b, pk_a)
    ek = EvalKeys(params, relin, dict(zip(effs, keys)), keys[-1])
    return sk, pk, ek


# ---------------------------------------------------------------------------
# backend
# ---------------------------------------------------------------------------


class Backend:
    """The operation contract HeBackend and its clear mirror share.

    Each rule both backends enforce is written here once: every value an op
    takes carries its ``params``, and ``_check`` refuses one whose
    fingerprint is not this backend's; a slot vector is 1-d and at most N
    long; a product needs depth on both operands; a rotation or row swap
    needs its Galois key; a ciphertext's prime count, K or after
    ``mod_switch`` k' = ``params.output_primes``, decides which ops take it.
    ``encode`` and ``decode`` work on the one plaintext type; ``fold`` is the
    plain loop over the subclass's own rotate/swap/add primitives
    (``HeBackend`` fuses it), and ``sum_slots`` is one ``fold``.  Subclasses
    set ``params`` and define the arithmetic and ``_switch``, the modulus
    switch that keeps the slots (``HeBackend`` drops all but q's first k'
    primes, the mirror records the count).
    """

    def _check(self, *values, switched: bool = False) -> int:
        """Each value (ciphertext, plaintext or key) must carry these
        parameters, and the ciphertexts among them hold one prime count R:
        all K primes of q, or with ``switched`` any count.  ``add_ct``,
        ``sub_ct``, the slot permutations, ``decrypt``, ``noise_budget`` and
        ``mod_switch`` pass ``switched``; the multiplies, the plaintext ops
        and ``negate`` do not.  Returns R (K when no ciphertext is given)."""
        for value in values:
            if value.params.fingerprint != self.params.fingerprint:
                raise FingerprintMismatchError("object belongs to different parameters")
        k = len(self.params.coeff_modulus)
        counts = sorted({v.prime_count for v in values if hasattr(v, "prime_count")})
        if len(counts) > 1:
            raise ParamError(f"ciphertexts hold {counts[0]} and {counts[1]} primes of q; "
                             "an op takes one count")
        r = counts[0] if counts else k
        if r != k and not switched:
            raise ParamError(f"ciphertext holds {r} of the {k} primes of q; after mod_switch "
                             "it only adds, rotates and decrypts")
        return r

    def encode(self, values) -> PackedPlaintext:
        """``values`` mod t, zero-padded to N slots."""
        n = self.params.slot_count
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ParamError("encode expects a 1-d vector")
        if arr.size > n:
            raise ParamError(f"vector of length {arr.size} exceeds {n} slots")
        slots = np.zeros(n, dtype=np.uint64)
        slots[: arr.size] = (arr % np.int64(self.params.plaintext_modulus)).astype(np.uint64)
        return PackedPlaintext(self.params, slots)

    def decode(self, pt: PackedPlaintext) -> np.ndarray:
        return pt.slots.copy()

    def _product_level(self, a, b, ek) -> int:
        """Level of the product a*b; raises when either operand has none left."""
        self._check(a, b, ek)
        if a.level < 1 or b.level < 1:
            raise DepthExhaustedError("no multiplicative depth remaining")
        return min(a.level, b.level) - 1

    def _rotation_step(self, a, steps: int, ek) -> int:
        """``steps`` mod the row size N/2 (0 is the identity), with its key in ek."""
        self._check(a, ek, switched=True)
        eff = steps % self.params.rotation_group_size
        if eff and eff not in ek.galois:
            raise MissingGaloisKeyError(f"no Galois key for rotation step {steps}")
        return eff

    def _check_row_swap(self, a, ek) -> None:
        self._check(a, ek, switched=True)
        if not ek.row_swap:
            raise MissingGaloisKeyError("no Galois key for the row swap")

    def mod_switch(self, a):
        """a at q's first k' = ``params.output_primes`` primes, after its last
        multiply: the slots are unchanged (``_switch``).  One already at k'
        primes is returned as it is, so at k' = K (custom params) the switch
        does nothing; one at another count below K is refused."""
        r, k = self._check(a, switched=True), len(self.params.coeff_modulus)
        out_k = self.params.output_primes
        if r == out_k:
            return a
        if r != k:
            raise ParamError(f"mod_switch takes a ciphertext at all {k} primes of q "
                             f"or at {out_k}, got {r}")
        return self._switch(a)

    def fold(self, ct, steps, ek, swap: bool = False):
        """The rotate-and-add chain ct <- ct + rotate(ct, s) for each s in
        ``steps``, then ct <- ct + swap_rows(ct) if ``swap``."""
        for step in steps:
            ct = self.add_ct(ct, self.rotate(ct, step, ek))
        if swap:
            ct = self.add_ct(ct, self.swap_rows(ct, ek))
        return ct

    def sum_slots(self, ct, width: int, ek):
        """Rotate-and-add so every slot i holds the sum of input slots i..i+width-1.

        Width must be a power of two <= N; sums wrap within each rotation
        row (within the whole vector for width == N).  In particular slot
        s*width holds the sum of block s for every block-aligned layout.
        """
        n = self.params.slot_count
        if width < 1 or width > n or width & (width - 1):
            raise ParamError(f"sum width must be a power of two in [1, {n}], got {width}")
        return self.fold(ct, fold_steps(min(width, n // 2)), ek, swap=width == n)


def decrypt_scores(backend, sk, cts, positions) -> np.ndarray:
    """Signed class scores from output ciphertexts (``read_scores``)."""
    return read_scores(backend, [backend.decrypt(sk, ct) for ct in cts], positions)


def read_scores(backend, pts, positions) -> np.ndarray:
    """Signed class scores from decrypted outputs.

    Class c is read at ``positions[c] = (output, slot)`` and lifted from
    [0, t) to the centred range (-t/2, t/2].
    """
    t = backend.params.plaintext_modulus
    slots = [backend.decode(pt) for pt in pts]
    raw = np.array([slots[o][s] for o, s in positions], dtype=np.int64)
    return np.where(raw > t // 2, raw - t, raw)


class HeBackend(Backend):
    """Homomorphic operation surface over real ciphertexts.

    All methods are pure functions of their arguments; randomness enters only
    through explicit seeds.  The ClearBackend mirror implements the identical
    surface over plaintext slot vectors.
    """

    def __init__(self, params: HeParams):
        self.params = params
        self.ring = get_ring(params)

    encode = Backend.encode  # bound here too, so a tracer can wrap HeBackend.encode

    # -- keys and encryption -------------------------------------------------

    def keygen(self, seed, rotation_steps: tuple[int, ...] | None = None):
        return keygen(self.params, seed, rotation_steps)

    def encrypt(self, key: PublicKey | SecretKey, pt: PackedPlaintext, seed) -> Ciphertext:
        """A fresh encryption of ``pt``; the key type picks the form.

        Under the secret key it is (NTT(e + round(q*m/t)) - a*s, a), with a
        expanded from an ``a_seed`` drawn from this encryption's own seed
        (``expand_a``): one error term, so about 6 more bits of
        margin than public-key encryption, and half the container bytes.
        """
        self._check(key, pt)
        ring, plan = self.ring, self.ring.plan_q
        prg = Prg(seed)
        if isinstance(key, SecretKey):
            a_seed = prg.bytes("enc.a", SEED_BYTES)
            a = expand_a(self.params, a_seed)
            e = ring.rns_from_small(prg.cbd("enc.e", ring.n))
            m = plan.forward(add_mod(e, ring.scale_plaintext(pt.poly), ring.q_arr))
            c0 = sub_mod(m, plan.pointwise(a, key.s), ring.q_arr)
            return Ciphertext(self.params, self.params.depth_budget, (c0, a), a_seed)
        u_ntt = plan.forward(ring.rns_from_small(prg.ternary("enc.u", ring.n)))
        e1 = ring.rns_from_small(prg.cbd("enc.e1", ring.n))
        e2 = ring.rns_from_small(prg.cbd("enc.e2", ring.n))
        m = plan.forward(add_mod(e1, ring.scale_plaintext(pt.poly), ring.q_arr))
        c0 = add_mod(plan.pointwise(key.b_ntt, u_ntt), m, ring.q_arr)
        c1 = add_mod(plan.pointwise(key.a_ntt, u_ntt), plan.forward(e2), ring.q_arr)
        return Ciphertext(self.params, self.params.depth_budget, (c0, c1))

    def _noise(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Garner digits of the noise w = [t*x]_q' of the phase x = c0 + c1*s
        over the product q' of the R primes ct holds: t*x = q'*r + w for the
        message r = round(t*x/q'), |w| < q'/2."""
        ring, r = self.ring, self._check(sk, ct, switched=True)
        q_arr = ring.q_arr[:r]
        acc = add_mod(ct.parts[0], ring.plan_q.pointwise(ct.parts[1], sk.s[:r]), q_arr)
        phase = ring.plan_q.inverse(acc)
        return ring.garner.to_digits(mul_mod(phase, ring.t_mod_tensor[:r], q_arr))

    def _margin_bits(self, digits: np.ndarray) -> int:
        """Bits of q' / (2 max|w|).  Mixed-radix digits order their values
        lexicographically from the last row, so only the least and the
        largest coefficient of w become Python ints."""
        q = self.ring.garner.prefix[len(digits)]
        order = np.lexsort(digits)
        lo, hi = self.ring.garner.digits_to_ints(digits[:, order[[0, -1]]])
        max_w = max(-lo, hi)
        margin = q // 2 if max_w == 0 else q // (2 * max_w)
        return max(0, margin.bit_length() - 1)

    def decrypt(self, sk: SecretKey, ct: Ciphertext) -> PackedPlaintext:
        """The slots of ct, with the margin ``noise_budget`` reports in
        ``noise_bits``; raises NoiseBudgetError when no margin is left."""
        ring = self.ring
        digits = self._noise(sk, ct)
        bits = self._margin_bits(digits)
        if bits <= 0:
            raise NoiseBudgetError("noise budget exhausted; decryption unreliable")
        # q'*r = t*x - w, so r = -w/q' mod t
        w = ring.garner.digits_to_residues(digits, (ring.t,))
        t = ring.plan_t.p
        r = mul_mod(sub_mod(0, w, t), ring.q_inv_mod_t[len(digits)], t)
        return PackedPlaintext(self.params, ring.plan_t.forward(r)[0][ring.slot_to_eval], bits)

    def noise_budget(self, sk: SecretKey, ct: Ciphertext) -> int:
        """Estimated bits of margin before decryption can fail (0 = exhausted)."""
        return self._margin_bits(self._noise(sk, ct))

    # -- arithmetic ----------------------------------------------------------

    def add_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        q = self.ring.q_arr[: self._check(a, b, switched=True)]
        parts = tuple(add_mod(x, y, q) for x, y in zip(a.parts, b.parts))
        return Ciphertext(a.params, min(a.level, b.level), parts)

    def sub_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        q = self.ring.q_arr[: self._check(a, b, switched=True)]
        parts = tuple(sub_mod(x, y, q) for x, y in zip(a.parts, b.parts))
        return Ciphertext(a.params, min(a.level, b.level), parts)

    def negate(self, a: Ciphertext) -> Ciphertext:
        self._check(a)
        parts = tuple(sub_mod(0, p, self.ring.q_arr) for p in a.parts)
        return Ciphertext(a.params, a.level, parts)

    def add_pt(self, a: Ciphertext, pt: PackedPlaintext) -> Ciphertext:
        self._check(a, pt)
        c0 = add_mod(a.parts[0], pt._scaled_ntt_q, self.ring.q_arr)
        return Ciphertext(a.params, a.level, (c0, a.parts[1]))

    def sub_pt(self, a: Ciphertext, pt: PackedPlaintext) -> Ciphertext:
        self._check(a, pt)
        c0 = sub_mod(a.parts[0], pt._scaled_ntt_q, self.ring.q_arr)
        return Ciphertext(a.params, a.level, (c0, a.parts[1]))

    def mul_pt(self, a: Ciphertext, pt: PackedPlaintext) -> Ciphertext:
        self._check(a, pt)
        parts = tuple(self.ring.plan_q.pointwise(p, pt._ntt_q) for p in a.parts)
        return Ciphertext(a.params, a.level, parts)

    def _switch(self, a: Ciphertext) -> Ciphertext:
        """Each part becomes round(c*q'/q) mod q' (``RingContext.mod_switch``),
        so the margin stays within about a bit while q' holds the noise."""
        return Ciphertext(a.params, a.level, tuple(self.ring.mod_switch(p) for p in a.parts))

    def mul_ct(self, a: Ciphertext, b: Ciphertext, ek: EvalKeys) -> Ciphertext:
        level = self._product_level(a, b, ek)
        ring, plan = self.ring, self.ring.plan_q
        a0, a1, b0, b1 = (
            ring.mod_up(plan.inverse(p), p, ring.tensor_primes) for p in a.parts + b.parts
        )
        d0 = plan.pointwise(a0, b0)
        d1 = add_mod(plan.pointwise(a0, b1), plan.pointwise(a1, b0), plan.p)
        d2 = plan.pointwise(a1, b1)
        # scale_down returns coefficient form: c2 is lifted from it directly,
        # and c0, c1 ride the keyswitch's mod_down transforms
        c0, c1, c2 = (ring.scale_down(plan.inverse(d)) for d in (d0, d1, d2))
        parts = self._keyswitch(ring.mod_up(c2, plan.forward(c2)), ek.relin, (c0, c1))
        return Ciphertext(a.params, level, parts)

    # -- slot permutations ----------------------------------------------------

    def rotate(self, a: Ciphertext, steps: int, ek: EvalKeys) -> Ciphertext:
        """Cyclic left shift of both slot rows by `steps` (negative = right)."""
        eff = self._rotation_step(a, steps, ek)
        if eff == 0:
            return a
        return self._galois(a, [(self.ring.galois_element(eff), ek.galois[eff])], add=False)

    def swap_rows(self, a: Ciphertext, ek: EvalKeys) -> Ciphertext:
        self._check_row_swap(a, ek)
        return self._galois(a, [(self.ring.row_swap_element, ek.row_swap)], add=False)

    def fold(self, a: Ciphertext, steps, ek: EvalKeys, swap: bool = False) -> Ciphertext:
        """``Backend.fold`` as one ``_galois`` chain; every key is checked first."""
        chain = []
        for step in steps:
            eff = self._rotation_step(a, step, ek)
            chain.append((self.ring.galois_element(eff), ek.galois[eff]) if eff else None)
        if swap:
            self._check_row_swap(a, ek)
            chain.append((self.ring.row_swap_element, ek.row_swap))
        return self._galois(a, chain, add=True) if chain else a

    def _galois(self, a: Ciphertext, chain, add: bool) -> Ciphertext:
        """Each (Galois element, key) of ``chain`` in turn: ct <- ct + sigma(ct)
        if ``add``, else ct <- sigma(ct); None (a rotation by 0 mod N/2) doubles.

        The chain runs mod q'P' for the product q' of the R primes ``a`` holds
        (R = k' after ``mod_switch``) and P', the shortest prefix of the
        special primes above q' (P itself at R = K).  The keys, mod qP with
        b + a*s = P*sigma(s) - e, hold mod q'P' on their rows [0, R) and
        [K, K+L'); c1 is multiplied by [P'/P]_q' before its lift, so its key
        products carry P' in P's place.  c1 is keyswitched and rounded per
        step; c0 is held mod q'P' as P'*c0 (0 on the special primes) and each
        step adds its automorphism and the raw key product of the lifted c1.
        Since mod_down(P'*c + k) = c + mod_down(k), one ``mod_down`` ends the
        chain exactly: (2s+1)(R+L') rows transformed for s automorphisms, and
        one at R = K is byte-identical to a per-op keyswitch."""
        ring, plan = self.ring, self.ring.plan_q
        r = a.prime_count
        q, qp = ring.q_arr[:r], ring.qp_arr(r)
        p_mod, rescale = ring.keyswitch_scales(r)
        c0 = np.zeros((len(qp), ring.n), dtype=np.uint64)
        c0[:r] = mul_mod(a.parts[0], p_mod, q)
        c1 = a.parts[1]
        for step in chain:
            if step is None:
                c0, c1 = add_mod(c0, c0, qp), add_mod(c1, c1, q)
                continue
            g, (b, a_key) = step
            r1 = ring.apply_automorphism(c1, g)
            if rescale is not None:
                r1 = mul_mod(r1, rescale, q)
            lifted = ring.mod_up(plan.inverse(r1), r1)
            s0 = add_mod(ring.apply_automorphism(c0, g), ring.key_product(lifted, b), qp)
            s1 = ring.mod_down(ring.key_product(lifted, a_key))
            c0, c1 = (add_mod(c0, s0, qp), add_mod(c1, s1, q)) if add else (s0, s1)
        return Ciphertext(a.params, a.level, (ring.mod_down(c0), c1))

    def _keyswitch(self, lifted: np.ndarray, key: KeySwitchKey, addends=(None, None)):
        """Relinearization's hybrid keyswitch of c mod q, given as its ``mod_up``
        lift to qP: the pair (k0, k1) mod q with k0 + k1*s = c*s^2 + small.  The
        lift times each key part is divided by P with rounding, in evaluation
        form: the lift and ``mod_down`` are the only transforms.  ``addends``,
        coefficient-form polynomials mod q, join k0 and k1 inside ``mod_down``'s
        forward transform.  (Automorphisms keyswitch in ``_galois``.)"""
        ring = self.ring
        return tuple(ring.mod_down(ring.key_product(lifted, part), c)
                     for part, c in zip(key, addends))
