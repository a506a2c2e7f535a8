"""Scheme parameters and circuit-sized presets.

Three presets cover the shipped circuits:

* ``svm-d1``          - one diagonal matrix-vector product (plaintext
                        multiplies and power-of-two rotations, one output
                        ciphertext); no ciphertext-ciphertext product;
                        depth budget 1.
* ``xgb-d2``          - comparison plus tree scoring with plaintext split
                        codes and leaves: 1 ciphertext-ciphertext product
                        per slot block, circuit depth 1; depth budget 2.
* ``xgb-encmodel-d3`` - same circuit with encrypted split codes: 4 products
                        per block, circuit depth 2; depth budget 3.

The name suffixes and depth budgets date from the paper's comparison form,
which cost one more level (see compare.py); they stay until the prime
counts are re-derived for the linear comparison.  Coefficient-modulus
prime counts were fixed empirically: the acceptance suite measures the
remaining noise margin on each preset's deepest circuit and requires at
least 10 bits.  The presets target correctness and that margin, not
security: ``HeParams.security_bits`` estimates their levels at 42-44
bits (``security_bits``), far below 128.  Deployments wanting a security
claim should re-derive ring degree and modulus sizes.

Each preset also fixes k' (``output_primes``), how many of q's primes an
output keeps: the server switches every output down to q's first k' primes
after its last multiply (``Backend.mod_switch``; the tree modes before the
class-sum fold, which then runs at k' primes, the SVM after its fold and
bias), and the score file shrinks with it (serial.py).  k' is the fewest
primes at which the outputs keep about the margin they have at all K
primes, measured over the shipped circuits at the paper's dimensions on
secret-key uploads: 6 of 10 at xgb-d2 (130-132 bits, against 131-136 at
all K on the same six samples), 4 of 5 at svm-d1 (61-63) and 7 of 11 at
xgb-encmodel-d3 (154-156, as at all K).  One prime fewer drops them to
102, 49 and 131 bits: the switch's rounding then outgrows the circuit's
noise.  Custom params keep k' = K, which switches nothing, unless they say
otherwise; a params file lists k' as ``output_primes``.

Every preset's plaintext modulus t is the largest 31-bit prime = 1 mod 2N,
the one word size ``ntt.MODULUS_BITS`` that every modulus shares.  Class
scores decrypt centred in (-t/2, t/2], so a model's worst-case |score| must
stay below t/2 < 2^30 in fixed point (1024 at the synthetic models' 2^20
scale); ``svm.check_aggregate_bound`` refuses a larger model at load.  A
params file naming a wider t fails validation, and its key directory must
be regenerated.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .errors import ParamError
from .ntt import MODULUS_BITS, find_ntt_primes, is_prime

# (ring degree, number of 29-bit coefficient primes, depth budget, output primes)
_PRESET_SHAPES = {
    "svm-d1": (4096, 5, 1, 4),
    "xgb-d2": (2048, 10, 2, 6),
    "xgb-encmodel-d3": (2048, 11, 3, 7),
}
PRESET_NAMES = tuple(_PRESET_SHAPES)

_COEFF_PRIME_BITS = 29


@dataclass(frozen=True)
class HeParams:
    """Ring, modulus, and depth description of one scheme instance."""

    ring_degree: int
    coeff_modulus: tuple[int, ...]
    plaintext_modulus: int
    depth_budget: int
    preset_name: str = "custom"
    output_primes: int | None = None  # k'; None means all K primes

    def __post_init__(self):
        n = self.ring_degree
        if n < 4 or n & (n - 1):
            raise ParamError(f"ring degree must be a power of two >= 4, got {n}")
        object.__setattr__(self, "coeff_modulus", tuple(int(q) for q in self.coeff_modulus))
        if not self.coeff_modulus:
            raise ParamError("at least one coefficient prime is required")
        t = self.plaintext_modulus
        roles = [("coefficient modulus", q) for q in self.coeff_modulus]
        for role, m in roles + [("plaintext modulus", t)]:
            if m >= 1 << MODULUS_BITS:  # sizes first: is_prime is exact below 2^64
                raise ParamError(f"{role} {m} exceeds {MODULUS_BITS} bits")
            if not is_prime(m):
                raise ParamError(f"{role} {m} is not prime")
            if (m - 1) % (2 * n) != 0:
                raise ParamError(f"{role} {m} is not 1 mod {2 * n}")
        if len({*self.coeff_modulus, t}) != len(self.coeff_modulus) + 1:
            raise ParamError("coefficient primes and plaintext modulus must be distinct")
        if not 1 <= self.depth_budget <= len(self.coeff_modulus):
            raise ParamError(f"depth budget must lie in [1, {len(self.coeff_modulus)}] "
                             f"(the prime count), got {self.depth_budget}")
        if self.output_primes is None:
            object.__setattr__(self, "output_primes", len(self.coeff_modulus))
        if not 1 <= self.output_primes <= len(self.coeff_modulus):
            raise ParamError(f"output primes must lie in [1, {len(self.coeff_modulus)}] "
                             f"(the prime count), got {self.output_primes}")

    @property
    def slot_count(self) -> int:
        return self.ring_degree

    @property
    def rotation_group_size(self) -> int:
        """Slots split into two rotation rows of this size (see he backend docs)."""
        return self.ring_degree // 2

    @cached_property
    def coeff_modulus_product(self) -> int:
        return prod(self.coeff_modulus)

    @cached_property
    def fingerprint(self) -> bytes:
        text = self.canonical_text()
        return hashlib.sha256(text.encode("ascii")).digest()

    def security_bits(self) -> float:
        """``security_bits`` at this ring degree and log2(qP): the switching
        keys are published mod qP, q's primes and the special primes, the
        largest modulus under which any key lives."""
        from .ring import special_primes

        log_qp = math.log2(self.coeff_modulus_product) + sum(map(math.log2, special_primes(self)))
        return security_bits(self.ring_degree, log_qp)

    def canonical_text(self) -> str:
        """Key=value form used for both the fingerprint and the params file."""
        lines = [
            f"N={self.ring_degree}",
            "primes=" + ",".join(str(q) for q in self.coeff_modulus),
            f"t={self.plaintext_modulus}",
            f"depth={self.depth_budget}",
            f"preset={self.preset_name}",
            f"output_primes={self.output_primes}",
        ]
        return "\n".join(lines) + "\n"


#: the error's standard deviation: the centred binomial of width 20, sqrt(20/2)
ERROR_SIGMA = math.sqrt(10)


def security_bits(n: int, log_modulus: float) -> float:
    """Estimated log2 cost of the primal uSVP attack on RLWE of ring degree
    n, modulus 2^log_modulus, a ternary secret and error of deviation
    ``ERROR_SIGMA``.

    The attack embeds m samples in a lattice of dimension d = m + n + 1
    with the secret scaled to the error's deviation (Bai-Galbraith 2014),
    of volume q^m (sigma / sqrt(2/3))^n, and succeeds with block size beta
    when sigma sqrt(beta) <= delta^(2 beta - d - 1) Vol^(1/d) (Alkim et al.
    2016; Albrecht et al. 2017), delta = ((pi beta)^(1/beta) beta /
    (2 pi e))^(1/(2(beta-1))).  The cost is 0.292 beta + 16.4 + log2(8d),
    the BKZ-sieve model of the lwe-estimator (Albrecht-Player-Scott 2015)
    that the HE Standard (Albrecht et al. 2018) used, minimised over
    beta >= 40 and 1 <= m <= 2n.  It reproduces that standard's 128-bit
    rows (N = 1024 ... 16384 at log q 27 ... 438) within 4 bits.  It covers
    the primal attack only; dual and hybrid attacks on small secrets can be
    a few bits stronger."""
    log_q = log_modulus * math.log(2)
    log_nu = math.log(ERROR_SIGMA / math.sqrt(2 / 3))
    m = np.arange(1, 2 * n + 1, dtype=np.float64)
    d = m + n + 1
    log_vol = (m * log_q + n * log_nu) / d
    best = math.inf
    for beta in range(40, int(d[-1]) + 1):
        if 0.292 * beta + 16.4 + math.log2(8 * (n + 2)) >= best:  # no larger beta wins
            break
        log_delta = (math.log(math.pi * beta) / beta
                     + math.log(beta / (2 * math.pi * math.e))) / (2 * (beta - 1))
        ok = math.log(ERROR_SIGMA * math.sqrt(beta)) <= (2 * beta - d - 1) * log_delta + log_vol
        if ok.any():
            best = min(best, 0.292 * beta + 16.4 + math.log2(8 * d[np.argmax(ok)]))
    return best


def default_plaintext_modulus(ring_degree: int) -> int:
    """The largest word-sized (MODULUS_BITS) prime = 1 mod 2N."""
    return find_ntt_primes(MODULUS_BITS, 1, 2 * ring_degree)[0]


def _build_params(n: int, num_primes: int, depth: int, output_primes: int | None,
                  name: str) -> HeParams:
    """The first ``num_primes`` 29-bit NTT primes for degree n and the default t."""
    return HeParams(
        ring_degree=n,
        coeff_modulus=tuple(find_ntt_primes(_COEFF_PRIME_BITS, num_primes, 2 * n)),
        plaintext_modulus=default_plaintext_modulus(n),
        depth_budget=depth,
        preset_name=name,
        output_primes=output_primes,
    )


def gen_params(preset: str) -> HeParams:
    """Parameters for one of the named presets.

    Raises:
        ParamError: unknown preset name.
    """
    if preset not in _PRESET_SHAPES:
        raise ParamError(f"unknown preset {preset!r}; expected one of {PRESET_NAMES}")
    return _build_params(*_PRESET_SHAPES[preset], preset)


def make_test_params(ring_degree: int, num_primes: int = 6, depth_budget: int = 2) -> HeParams:
    """Small custom parameters for exercising the scheme off the presets."""
    return _build_params(ring_degree, num_primes, depth_budget, None, "custom")


def save_params(params: HeParams, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(params.canonical_text())


def load_params(path) -> HeParams:
    fields: dict[str, str] = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParamError(f"params file {path} is not ASCII text") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParamError(f"malformed params line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ParamError(f"params file repeats key {key!r}")
        fields[key] = value
    try:
        n, t, depth = (int(fields[key]) for key in ("N", "t", "depth"))
        primes = tuple(int(x) for x in fields["primes"].split(","))
        output_primes = int(fields.get("output_primes", len(primes)))
    except KeyError as exc:
        raise ParamError(f"params file missing key {exc}") from exc
    except ValueError as exc:
        raise ParamError(f"params file holds a non-integer value: {exc}") from exc
    return HeParams(n, primes, t, depth, fields.get("preset", "custom"), output_primes)
