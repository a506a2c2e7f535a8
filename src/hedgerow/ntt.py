"""Negacyclic number-theoretic transforms over word-sized prime moduli.

The forward transform maps coefficient vectors of Z_p[x]/(x^N + 1) to their
evaluations at the odd powers of a primitive 2N-th root of unity psi:

    out[k] = a(psi^(2k+1))   for k = 0 .. N-1  (natural order)

so pointwise multiplication in the transform domain is exactly negacyclic
(x^N = -1) convolution.  Transforms are batched over a leading axis, one
modulus per row, which keeps the per-stage work in a handful of vectorized
uint64 operations.  A plan keeps one table of powers of psi and one of its
inverse; each butterfly stage reads its twiddles (powers of omega = psi^2)
as a strided slice of them.

Every modulus, coefficient primes and plaintext modulus alike, has at most
``MODULUS_BITS`` = 31 bits, so the product of two residues fits one uint64
and every modular multiply is a single ``(a * b) % p``.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

import numpy as np

# one word size for every modulus: two residues multiply within uint64
MODULUS_BITS = 31

# deterministic Miller-Rabin witnesses for n < 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ntt_primes(bit_size: int, two_n: int) -> Iterator[int]:
    """The primes below 2^bit_size congruent to 1 mod two_n, largest first."""
    # k * two_n + 1 < 2^bit_size: k * two_n <= 2^bit_size - 1, and an even
    # two_n never makes that an equality
    for k in range(((1 << bit_size) - 1) // two_n, 0, -1):
        if is_prime(k * two_n + 1):
            yield k * two_n + 1


def find_ntt_primes(bit_size: int, count: int, two_n: int) -> list[int]:
    """Largest `count` primes below 2^bit_size congruent to 1 mod two_n."""
    primes = list(islice(ntt_primes(bit_size, two_n), count))
    if len(primes) < count:
        raise ValueError(f"not enough {bit_size}-bit primes = 1 mod {two_n}")
    return primes


def _factorize(n: int) -> list[int]:
    """Distinct prime factors by trial division (n small after 2-stripping)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p."""
    order = p - 1
    factors = _factorize(order)
    g = 2
    while True:
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
        g += 1


def root_of_unity(order: int, p: int) -> int:
    """A primitive `order`-th root of unity mod p; requires order | p-1."""
    if (p - 1) % order != 0:
        raise ValueError(f"{order} does not divide {p}-1")
    g = primitive_root(p)
    w = pow(g, (p - 1) // order, p)
    assert pow(w, order, p) == 1
    return w


def mul_mod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Elementwise (a*b) mod p on uint64 residues; p of at most MODULUS_BITS
    bits, scalar or (K,1)."""
    return (a * b) % p


# add_mod and sub_mod take residues below p and reduce a sum s < 2p as
# min(s, s - p): in uint64, s - p wraps above s exactly when s < p


def add_mod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    s = a + b
    return np.minimum(s, s - p)


def sub_mod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    d = a + (p - b)
    return np.minimum(d, d - p)


def power_table(bases, moduli, count: int) -> np.ndarray:
    """table[r, j] = bases[r]^j mod moduli[r] (< 2^32) for j < count, filled
    by doubling: with the first f powers known, the next f are those times base^f."""
    m = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    step = np.array(bases, dtype=np.uint64).reshape(-1, 1) % m
    table = np.empty((len(m), count), dtype=np.uint64)
    table[:, :1] = 1
    f = 1
    while f < count:
        g = min(f, count - f)
        table[:, f : f + g] = table[:, :g] * step % m
        step = step * step % m
        f *= 2
    return table


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for _ in range(bits):
        rev = (rev << np.uint64(1)) | (idx & np.uint64(1))
        idx >>= np.uint64(1)
    return rev.astype(np.intp)


class NttPlan:
    """Precomputed tables for batched negacyclic NTTs.

    One plan covers a fixed transform size ``n`` and a fixed tuple of
    moduli, each of which must be a prime of at most ``MODULUS_BITS`` bits
    congruent to 1 mod 2n.  Arrays passed to :meth:`forward` /
    :meth:`inverse` / :meth:`pointwise` have shape (K, n), row k reduced
    modulo ``moduli[start + k]``; the transforms take ``start`` (default 0),
    ``pointwise`` always starts at 0.  Each row's tables depend on its own
    prime only, so any run of rows transforms as a plan over it would.
    """

    def __init__(self, n: int, moduli: tuple[int, ...]):
        if n < 2 or n & (n - 1):
            raise ValueError(f"transform size must be a power of two >= 2, got {n}")
        self.n = n
        self.moduli = tuple(int(m) for m in moduli)
        for m in self.moduli:
            if m >= 1 << MODULUS_BITS:
                raise ValueError(f"modulus {m} exceeds {MODULUS_BITS} bits")
            if (m - 1) % (2 * n) != 0:
                raise ValueError(f"modulus {m} is not 1 mod {2 * n}")

        k = len(self.moduli)
        self.p = np.array(self.moduli, dtype=np.uint64).reshape(k, 1)
        self._bitrev = _bit_reverse_indices(n)

        psis = [root_of_unity(2 * n, m) for m in self.moduli]
        # pick the canonical psi with psi^n = -1 (any 2n-th primitive root works)
        for i, m in enumerate(self.moduli):
            assert pow(psis[i], n, m) == m - 1

        # omega = psi^2, so every stage twiddle is a strided slice of these
        self._psi_pow = power_table(psis, self.moduli, n)
        psi_invs = [pow(s, -1, m) for s, m in zip(psis, self.moduli)]
        self._psi_inv_pow = power_table(psi_invs, self.moduli, n)
        self._n_inv = np.array(
            [pow(n, -1, m) for m in self.moduli], dtype=np.uint64
        ).reshape(k, 1)

    def _cyclic(self, a: np.ndarray, powers: np.ndarray, rows: slice) -> np.ndarray:
        """Cyclic NTT of bit-reversed input; ``powers`` are psi^j (or psi^-j)."""
        k, n = a.shape
        p3 = self.p[rows].reshape(k, 1, 1)
        x = a[:, self._bitrev]
        half = 1
        while half < n:
            size = 2 * half
            # the stage of block size `size` multiplies by omega^(n/size * j) = psi^(n/half * j)
            tw = powers[rows, :: n // half].reshape(k, 1, half)
            x = x.reshape(k, n // size, size)
            lo = x[:, :, :half]
            hi = mul_mod(x[:, :, half:], tw, p3)
            x = np.concatenate((add_mod(lo, hi, p3), sub_mod(lo, hi, p3)), axis=2)
            half = size
        return x.reshape(k, n)

    def forward(self, a: np.ndarray, start: int = 0) -> np.ndarray:
        """Negacyclic NTT: out[k][j] = a_k(psi^(2j+1)) in natural order."""
        rows = slice(start, start + len(a))
        twisted = mul_mod(a, self._psi_pow[rows], self.p[rows])
        return self._cyclic(twisted, self._psi_pow, rows)

    def inverse(self, a: np.ndarray, start: int = 0) -> np.ndarray:
        """Inverse of :meth:`forward` (exact)."""
        rows = slice(start, start + len(a))
        x = self._cyclic(a, self._psi_inv_pow, rows)
        x = mul_mod(x, self._n_inv[rows], self.p[rows])
        return mul_mod(x, self._psi_inv_pow[rows], self.p[rows])

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return mul_mod(a, b, self.p[: len(a)])

    def negacyclic_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of coefficient-domain inputs."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))
