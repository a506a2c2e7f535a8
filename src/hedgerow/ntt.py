"""Negacyclic number-theoretic transforms over word-sized prime moduli.

The forward transform maps coefficient vectors of Z_p[x]/(x^N + 1) to their
evaluations at the odd powers of a primitive 2N-th root of unity psi:

    out[k] = a(psi^(2k+1))   for k = 0 .. N-1  (natural order)

so pointwise multiplication in the transform domain is exactly negacyclic
(x^N = -1) convolution.  Transforms are batched over a leading axis, one
modulus per row, and each is the four-step transform (Bailey 1990) as two
float64 matrix products, the way TensorFHE (Fan et al., HPCA 2023) runs
NTTs as GEMMs (see :class:`NttPlan`).

Every modulus, coefficient primes and plaintext modulus alike, has at most
``MODULUS_BITS`` = 31 bits, so the product of two residues fits one uint64
and every modular multiply is a single ``(a * b) % p``.  A matrix product
is exact in float64 by splitting the matrix, never the data, into pieces
(``split_pieces``): a piece of b bits times a residue is below 2^(b+31),
and ``piece_bits`` chooses b so that a sum of ``inner`` such terms stays an
exact integer below 2^53, whatever order a BLAS adds them in.
``combine_pieces`` folds the piece products back into residues.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

import numpy as np

# one word size for every modulus: two residues multiply within uint64
MODULUS_BITS = 31

# float64 holds every integer below 2^53 exactly
_FLOAT_BITS = 53

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


def piece_bits(inner: int) -> int:
    """Bits b per piece of a residue matrix multiplied by columns of
    ``inner`` residues: inner * (2^b - 1) * (2^31 - 1) < 2^53, at most 16."""
    return min(16, _FLOAT_BITS - MODULUS_BITS - (inner - 1).bit_length())


def piece_count(bits: int) -> int:
    """Pieces of ``bits`` bits that hold a residue: ceil(31 / bits)."""
    return -(-MODULUS_BITS // bits)


def split_pieces(table: np.ndarray, bits: int) -> np.ndarray:
    """A (..., m, inner) uint64 table of residues as its ``bits``-bit pieces,
    highest first, stacked along the rows: a (..., P*m, inner) float64
    matrix, P = ``piece_count(bits)``."""
    mask = np.uint64((1 << bits) - 1)
    pieces = [table >> np.uint64(bits * i) & mask for i in reversed(range(piece_count(bits)))]
    return np.ascontiguousarray(np.concatenate(pieces, axis=-2), dtype=np.float64)


def combine_pieces(sums: np.ndarray, moduli, bits: int) -> np.ndarray:
    """The float64 product of a ``split_pieces`` matrix folded by Horner's
    rule, ((s_0 mod m) * 2^b + s_1) mod m ..., reducing every piece but the
    last: a uint64 below 2^54, congruent to the whole product mod m.  Each
    piece's rows are converted from their own slice of ``sums``."""
    count = piece_count(bits)
    m = sums.shape[-2] // count
    acc = sums[..., :m, :].astype(np.uint64)
    for i in range(1, count):
        acc %= moduli
        acc <<= np.uint64(bits)
        acc += sums[..., i * m : (i + 1) * m, :].astype(np.uint64)
    return acc


class NttPlan:
    """Precomputed tables for batched negacyclic NTTs.

    One plan covers a fixed transform size ``n`` and a fixed tuple of
    moduli, each of which must be a prime of at most ``MODULUS_BITS`` bits
    congruent to 1 mod 2n.  Arrays passed to :meth:`forward` /
    :meth:`inverse` / :meth:`pointwise` have shape (K, n), row k reduced
    modulo ``moduli[start + k]``; the transforms take ``start`` (default 0),
    ``pointwise`` always starts at 0.  Each row's tables depend on its own
    prime only, so any run of rows transforms as a plan over it would.

    With n = n1*n2, n1 = 2^floor(log2(n) / 2), j = n2*j1 + j2 and
    k = k1 + n1*k2, the forward transform reads a row as A[j1, j2] and
    computes

        B = M1 @ A,          M1[k1, j1] = psi^(n2*j1*(2k1+1))
        C = B * T,            T[k1, j2] = psi^(j2*(2k1+1))
        D = M2 @ C^T,        M2[k2, j2] = psi^(2*n1*j2*k2)

    and D[k2, k1] is out[k1 + n1*k2]: D read row by row is natural order.
    The inverse runs the mirror, M2^-1 @ X, the twiddle psi^(-j2(2k1+1))
    and M1^-1 @ (.)^T, with n^-1 folded into M1^-1.  The matrices are
    split into pieces once, with the plan.
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
        n1 = 1 << (n.bit_length() - 1) // 2
        n2 = n // n1
        self.shape = (n1, n2)
        self.bits = (piece_bits(n1), piece_bits(n2))

        psis = [root_of_unity(2 * n, m) for m in self.moduli]
        # pick the canonical psi with psi^n = -1 (any 2n-th primitive root works)
        for i, m in enumerate(self.moduli):
            assert pow(psis[i], n, m) == m - 1
        # every table entry is a power psi^e, e < 2n, of its row's psi
        powers = power_table(psis, self.moduli, 2 * n)

        def table(exponents: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(powers[:, exponents % (2 * n)])

        odd = 2 * np.arange(n1) + 1
        e1 = np.outer(odd, n2 * np.arange(n1))  # [k1, j1]
        et = np.outer(odd, np.arange(n2))  # [k1, j2]
        e2 = np.outer(np.arange(n2), 2 * n1 * np.arange(n2))  # [k2, j2] = [j2, k2]
        n_inv = np.array([pow(n, -1, m) for m in self.moduli], dtype=np.uint64).reshape(k, 1, 1)
        b1, b2 = self.bits
        self._m1 = split_pieces(table(e1), b1)
        self._m1_inv = split_pieces(table(-e1.T) * n_inv % self.p.reshape(k, 1, 1), b1)
        self._m2 = split_pieces(table(e2), b2)
        self._twiddle = table(et)
        self._twiddle_inv = table(-et.T)
        # M2^-1[j2, k2] = M2[j2, -k2 mod n2]: the inverse reflects its input's k2
        self._reflect = -np.arange(n2) % n2

    def _transform(self, x: np.ndarray, start: int, first, twiddle, second, bits) -> np.ndarray:
        """second @ (twiddle * (first @ x))^T, mod each row's prime, for a
        (R, m, n) block of plan rows from ``start``."""
        rows = slice(start, start + len(x))
        p = self.p[rows].reshape(-1, 1, 1)
        y = combine_pieces(first[rows] @ x.astype(np.float64), p, bits[0])
        y %= p
        y *= twiddle[rows]
        y %= p
        y = combine_pieces(second[rows] @ y.transpose(0, 2, 1).astype(np.float64), p, bits[1])
        return np.remainder(y, p)

    def forward(self, a: np.ndarray, start: int = 0) -> np.ndarray:
        """Negacyclic NTT: out[k][j] = a_k(psi^(2j+1)) in natural order."""
        n1, n2 = self.shape
        x = a.reshape(-1, n1, n2)
        return self._transform(x, start, self._m1, self._twiddle, self._m2, self.bits).reshape(a.shape)

    def inverse(self, a: np.ndarray, start: int = 0) -> np.ndarray:
        """Inverse of :meth:`forward` (exact)."""
        n1, n2 = self.shape
        x = a.reshape(-1, n2, n1)[:, self._reflect]
        return self._transform(x, start, self._m2, self._twiddle_inv, self._m1_inv,
                               self.bits[::-1]).reshape(a.shape)

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return mul_mod(a, b, self.p[: len(a)])
