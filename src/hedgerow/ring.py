"""Derived ring machinery shared by every scheme operation.

A :class:`RingContext` owns, for one parameter set:

* the bases outside q: q followed by the shortest prefix, with product
  above a bound, of the largest word-sized NTT primes other than t and the
  q_i.  The special primes P of hybrid keyswitching (Gentry-Halevi-Smart
  2012, in the RNS form of Han-Ki 2020) are the prefix above q: switching
  keys live mod qP, ``mod_up`` lifts a polynomial from q to qP and
  ``mod_down`` divides one mod qP by P with rounding, back to q.  Both take
  and return evaluation form and transform only the rows they change.  A
  prefix q' of q (a switched ciphertext) keyswitches mod q'P' for P' the
  shortest prefix of P above q' (P itself at q' = q): a key mod qP holds
  mod q'P', since P' divides P, and ``mod_up`` and ``mod_down`` serve that
  basis too.  The tensor basis of exact ciphertext products is q followed
  by the prefix above t*N*q + 1, so it starts with qP and extends it;
* one batched NTT plan over the tensor basis, and one for the plaintext
  modulus.  A plan transforms as many rows as its input has, so q, qP and
  the tensor basis are its first K, K+L and all of its rows;
* the slot permutation realizing full-N batching.  Slots form two rotation
  rows of N/2: slot j < N/2 is the evaluation at psi^(3^j mod 2N), slot
  N/2+j at psi^(-3^j mod 2N).  The automorphism x -> x^(3^r) rotates both
  rows left by r; x -> x^(2N-1) swaps the rows;
* the two scalings between Z_t and Z_q: round(q*m/t) for a plaintext and
  round(t*x/q) for a product, ``mod_down`` with q in P's place;
* the modulus switch of an output, ``mod_down`` with the product of q's
  last K - k' primes in P's place: round(x*q'/q) mod q' for the product q'
  of its first k' = ``params.output_primes``;
* base conversion from RNS residues to other prime bases, and to centred
  big integers for the two extreme coefficients of decryption's noise
  only.  A table serves every prefix of its primes: ``garner`` (the
  tensor basis) lifts from q and q', ``garner_aux`` (the primes beyond q)
  from P, P' and the whole extension back to q or q', and ``garner_tail``
  (q's last K - k' primes) to its first k'.  Each lift is one float64
  matrix product with a float64 overflow count (``GarnerBasis.lift``), the
  mixed-radix digit loop serving decryption and the rare column whose
  count is a near tie.  Conversion is exact without big integers: every
  sum of products is one float64 matrix product over the 16-bit halves of
  a residue table, exact by the NTT's piece rule (``ntt.piece_bits``) for
  a basis of at most 64 primes.  A params set whose tensor basis needs
  more primes is refused.

Everything is built with the context, the lift tables of the eight
conversions its ops make included (q -> P, q' -> P', q -> extension,
q -> t, P -> q, P' -> q', extension -> q, q's tail -> q's head), and
threads share it read-only: it holds no lock and no cache.
An automorphism's index map is recomputed per call (microseconds, against
milliseconds for the keyswitch that follows it).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .errors import ParamError
from .ntt import (
    MODULUS_BITS, NttPlan, add_mod, combine_pieces, mul_mod, ntt_primes, piece_bits, power_table,
    split_pieces, sub_mod,
)
from .params import HeParams


def _column(values) -> np.ndarray:
    """One uint64 per row of a residue array, as a (R, 1) column."""
    return np.array(list(values), dtype=np.uint64).reshape(-1, 1)


#: the most primes a basis may hold: sums of 64 terms stay exact with the
#: 16-bit pieces (halves) of ``piece_bits(64)``
MAX_BASIS_PRIMES = 64
_BITS = piece_bits(MAX_BASIS_PRIMES)
#: a float64 sum of R <= 64 quotients y_i/q_i < 1 errs by at most
#: (R + R^2) 2^-53 < 2^-40: a fraction this close to 1/2 may round either way
_TIE = 2.0 ** -40


class GarnerBasis:
    """Conversion of the first R rows of an RNS prime basis (row i's tables
    depend on primes[:i+1] only) to other primes and to integers.  Values
    are centred in [-h, h], h = (Q_R - 1)/2 for the odd product Q_R.

    ``lift``, the server's change of basis, is the fast base conversion of
    Halevi-Polyakov-Shoup (2019) made exact: with y_i = [x_i (Q/q_i)^-1]_q_i,
    x = sum_i y_i Q/q_i - v Q for the overflow count v = round(sum_i y_i/q_i),
    summed in float64 by a numpy reduction (the same bits at any BLAS thread
    count), and the residues mod the L targets w are one matrix product, the
    (2L, R+1) halves of [Q/q_i]_w and [-Q]_w times (y, v).  The float sum
    errs by at most (R + R^2) 2^-53 < 2^-40 for R <= 64, so v is exact unless
    the fraction of the sum lies within 2^-40 of 1/2, i.e. x within about
    Q 2^-40 of +-Q/2; those columns go through the digit loop instead.

    The digit loop is mixed-radix (Garner) conversion, which decryption's
    exact margin reads: x + h is converted, then h subtracted, so there is
    no sign test.  Digit i is ((x_i + h) c_i - sum_{j<i} v_j (prefix[j] c_i
    mod p_i)) mod p_i, with c_i = prefix[i]^-1 mod p_i: one matvec and two
    ``%`` per row.  The residues mod L targets w are the (2L, R) table
    prefix[i] mod w times the digits, then two ``%`` over the (L, N) block.

    Every sum of products is one float64 matrix product over the 16-bit
    halves of a residue table (``ntt.split_pieces``), exact for a basis of
    at most ``MAX_BASIS_PRIMES`` = 64 primes by ``ntt.piece_bits`` (the count
    v <= R adds less than 2^23 to a sum).  ``targets`` lists (R, target
    primes) pairs: the lift table of each and the digit table of its
    targets are built here, any other pair's per call."""

    def __init__(self, primes: tuple[int, ...], targets: tuple[tuple[int, tuple[int, ...]], ...] = ()):
        self.primes = tuple(int(p) for p in primes)
        r = len(self.primes)
        if r > MAX_BASIS_PRIMES:
            raise ParamError(f"a basis of {r} primes exceeds {MAX_BASIS_PRIMES}, the most "
                             "an exact float64 base conversion allows")
        # prefix[i] = product of primes[:i]; digits v of y satisfy
        # y = sum v_i * prefix[i], and the R-row product is prefix[R]
        self.prefix = [1]
        for p in self.primes:
            self.prefix.append(self.prefix[-1] * p)
        self.half = [(q - 1) // 2 for q in self.prefix]
        inv = [pow(pf % p, -1, p) for pf, p in zip(self.prefix, self.primes)]
        self._p = _column(self.primes)
        self._pf = self._p.astype(np.float64)
        self._inv = _column(inv)
        # p_i divides Q_R for every R > i, so h = (Q_R - 1)/2 = (p_i - 1)/2 mod p_i
        self._half_mod = _column((p - 1) // 2 for p in self.primes)
        # a multiple of p_i at least 2^54, above every hi * 2^16 + lo that a
        # digit subtracts, so the difference stays unsigned
        self._borrow = _column(p * -(-(1 << 54) // p) for p in self.primes)
        # row i's matvec table is [:, i, :i]: prefix[j] * c_i mod p_i for j < i
        self._steps = split_pieces(np.array(
            [[pf % p * c % p for pf in self.prefix[:i]] + [0] * (r - i)
             for i, (p, c) in enumerate(zip(self.primes, inv))], dtype=np.uint64,
        ).reshape(r, r), _BITS).reshape(2, r, r)
        targets = [(rows, tuple(w)) for rows, w in targets]
        self._tables = {w: self._conversion(w) for _, w in targets}
        self._lifts = {pair: self._lift_table(*pair) for pair in targets}

    def _conversion(self, target_primes: tuple[int, ...]):
        """For odd targets w: the (2L, R) halves of prefix[i] mod w, the
        targets as a column, and in column R, -h_R = (1 - Q_R)/2 mod w."""
        w = _column(target_primes)
        table = np.array([[pf % t for pf in self.prefix] for t in target_primes],
                         dtype=np.uint64).reshape(len(target_primes), -1)
        neg_half = (w + np.uint64(1) - table) * ((w + np.uint64(1)) // np.uint64(2)) % w
        return split_pieces(table[:, :-1], _BITS), w, neg_half

    def _lift_table(self, rows: int, target_primes: tuple[int, ...]):
        """For the first ``rows`` primes and odd targets w: (Q/q_i)^-1 mod q_i
        as a column, and the (2L, R+1) halves of [Q/q_i]_w, then [-Q]_w."""
        q = self.prefix[rows]
        cofactors = [q // p for p in self.primes[:rows]]
        inv = _column(pow(c, -1, p) for c, p in zip(cofactors, self.primes))
        table = np.array([[c % w for c in cofactors] + [-q % w] for w in target_primes],
                         dtype=np.uint64).reshape(len(target_primes), rows + 1)
        return inv, split_pieces(table, _BITS), _column(target_primes)

    def to_digits(self, residues: np.ndarray) -> np.ndarray:
        """Garner digits of x + h for the centred values x whose RNS
        residues are given, shape (R, N)."""
        r = len(residues)
        p = self._p[:r]
        # (x_i + h) * c_i, plus a multiple of p_i: below 2^63 + 2^55
        u = residues + self._half_mod[:r]
        u *= self._inv[:r]
        u += self._borrow[:r]
        v = np.empty_like(residues)
        vf = np.empty(residues.shape)
        for i in range(r):
            (d,) = combine_pieces(self._steps[:, i, :i] @ vf[:i], p[i], _BITS)
            np.remainder(np.subtract(u[i], d, out=d), p[i], out=v[i])
            vf[i] = v[i]
        return v

    def digits_to_residues(self, digits: np.ndarray, target_primes: tuple[int, ...]) -> np.ndarray:
        """Centred values reduced modulo each target prime, shape (L, N)."""
        target_primes = tuple(target_primes)
        table, w, neg_half = self._tables.get(target_primes) or self._conversion(target_primes)
        r = len(digits)
        out = combine_pieces(table[:, :r] @ digits.astype(np.float64), w, _BITS)
        out += neg_half[:, r : r + 1]
        out %= w
        return out

    def lift(self, residues: np.ndarray, target_primes: tuple[int, ...]) -> np.ndarray:
        """The centred values whose residues are given, reduced modulo each
        target prime: the exact change of basis from this one, shape (L, N)."""
        r, target_primes = len(residues), tuple(target_primes)
        inv, table, w = self._lifts.get((r, target_primes)) or self._lift_table(r, target_primes)
        y = residues * inv
        y %= self._p[:r]
        yv = np.empty((r + 1, residues.shape[1]))
        yv[:r] = y
        total = np.add.reduce(yv[:r] / self._pf[:r], axis=0)
        np.floor(total + 0.5, out=yv[r])
        out = combine_pieces(table @ yv, w, _BITS)
        out %= w
        ties = np.flatnonzero(np.abs(total - np.floor(total) - 0.5) <= _TIE)
        if len(ties):
            out[:, ties] = self.digits_to_residues(self.to_digits(residues[:, ties]), target_primes)
        return out

    def digits_to_ints(self, digits: np.ndarray) -> np.ndarray:
        """Centred Python-int values as an object array of shape (N,)."""
        acc = digits[0].astype(object)
        for i in range(1, len(digits)):
            acc = acc + digits[i].astype(object) * self.prefix[i]
        return acc - self.half[len(digits)]

    def residues_to_ints(self, residues: np.ndarray) -> np.ndarray:
        return self.digits_to_ints(self.to_digits(residues))


def prefix_above(params: HeParams, bound: int) -> tuple[int, ...]:
    """The shortest prefix of the largest MODULUS_BITS-bit primes = 1 mod 2N,
    other than t and the coefficient primes, whose product exceeds ``bound``."""
    taken = {*params.coeff_modulus, params.plaintext_modulus}
    chosen, product = [], 1
    for p in ntt_primes(MODULUS_BITS, 2 * params.ring_degree):
        if p not in taken:
            chosen.append(p)
            product *= p
            if product > bound:
                return tuple(chosen)
    raise ParamError(f"too few word-sized NTT primes for a modulus above {bound.bit_length()} bits")


def special_primes(params: HeParams) -> tuple[int, ...]:
    """The special primes P of hybrid keyswitching: the prefix above q."""
    return prefix_above(params, params.coeff_modulus_product)


def tensor_primes(params: HeParams) -> tuple[int, ...]:
    """q's primes, then the prefix above t*N*q + 1: it holds round(t*d/q)
    centred for every product coefficient, since |d| <= N*q^2/2."""
    bound = params.plaintext_modulus * params.ring_degree * params.coeff_modulus_product + 1
    return params.coeff_modulus + prefix_above(params, bound)


class RingContext:
    """Precomputed tables for one parameter set."""

    def __init__(self, params: HeParams):
        self.params = params
        self.n = params.ring_degree
        self.two_n = 2 * self.n
        self.row = self.n // 2
        self.q_primes = params.coeff_modulus
        self.k = len(self.q_primes)
        self.q = params.coeff_modulus_product
        self.t = params.plaintext_modulus

        # hybrid keyswitching: keys live mod qP; a ciphertext of R primes
        # keyswitches mod q'P' for q' its primes and P' the shortest prefix
        # of P above q' (P itself at R = K), L'(R) primes
        self.p_primes = special_primes(params)
        self.qp_primes = self.q_primes + self.p_primes
        self.tensor_primes = tensor_primes(params)
        self._special = [0] + [
            min(lp for lp in range(1, len(self.p_primes) + 1)
                if prod(self.p_primes[:lp]) > prod(self.q_primes[:r]))
            for r in range(1, self.k + 1)]
        # R + L'(R) rises with R, so a row count names its R
        self._keyswitch_r = {r + lp: r for r, lp in enumerate(self._special)}
        # every conversion an op makes has its lift table built here
        # (refusing a basis too long to be exact): from q or q' = q's first
        # k' primes to P, P', the extension and t (decryption); from P, P'
        # and the extension back; and q's last K - k' primes to its first k'
        self.out_k = k_out = params.output_primes
        head, tail = self.q_primes[:k_out], self.q_primes[k_out:]
        extension = self.tensor_primes[self.k :]
        out_l = self._special[k_out]
        self.garner = GarnerBasis(self.tensor_primes, (
            (self.k, self.p_primes), (self.k, extension), (self.k, (self.t,)),
            (k_out, self.p_primes[:out_l])))
        self.garner_aux = GarnerBasis(extension, (
            (len(self.p_primes), self.q_primes), (out_l, head), (len(extension), self.q_primes)))
        self.garner_tail = GarnerBasis(tail, ((len(tail), head),))
        self._tail_inv_mod_head = _column(pow(prod(tail), -1, p) for p in head)
        # one plan over the tensor basis: its first K rows are q's, its first
        # K+L qP's
        self.plan_q = NttPlan(self.n, self.tensor_primes)
        self.plan_t = NttPlan(self.n, (self.t,))
        self.q_arr = self.plan_q.p[: self.k]
        self.p_arr = self.plan_q.p[self.k : len(self.qp_primes)]
        # per L': P' mod q, P'^-1 mod q and P'/P mod q (keygen scales by P)
        big_p, qs = prod(self.p_primes), self.q_primes
        self._divisors = {}
        for lp in set(self._special[1:]):
            d = prod(self.p_primes[:lp])
            self._divisors[lp] = (_column(d % p for p in qs), _column(pow(d, -1, p) for p in qs),
                                  _column(d * pow(big_p, -1, p) % p for p in qs))
        self.p_mod_q = self._divisors[len(self.p_primes)][0]
        # scale_down multiplies by t on every row and divides by q beyond q
        self.t_mod_tensor = _column(self.t % p for p in self.tensor_primes)
        self._q_inv_mod_aux = _column(pow(self.q, -1, p) for p in self.garner_aux.primes)
        # decryption's r = -w/q' mod t, for q' the product of any prefix of q
        self.q_inv_mod_t = [np.uint64(pow(q % self.t, -1, self.t))
                            for q in self.garner.prefix[: self.k + 1]]

        # exact message scaling round(q*m/t): since q = 0 mod q_i, the residue
        # is ((t//2 - (q*m + t//2) mod t) * t^-1) mod q_i, all in 64-bit
        self._q_mod_t = np.uint64(self.q % self.t)
        self._t_half = np.uint64(self.t // 2)
        self._t_inv_mod_q = _column(pow(self.t, -1, p) for p in self.q_primes)

        # slot j < N/2 evaluates at psi^(3^j); slot N/2+j at psi^(-3^j); the
        # forward NTT emits evaluation at psi^(2k+1) in position k
        exps = power_table([3], [self.two_n], self.row)[0].astype(np.int64)
        exps = np.concatenate((exps, self.two_n - exps))
        self.slot_to_eval = ((exps - 1) // 2).astype(np.intp)

    # -- galois -------------------------------------------------------------

    def galois_element(self, step: int) -> int:
        """Automorphism exponent rotating both slot rows left by `step`."""
        return pow(3, step % self.row, self.two_n)

    @property
    def row_swap_element(self) -> int:
        return self.two_n - 1

    def apply_automorphism(self, poly: np.ndarray, g: int) -> np.ndarray:
        """x -> x^g on a (R, N) residue array in evaluation form, any rows of
        plan_q: the value at psi^(2j+1) takes the one at psi^(g(2j+1))."""
        return poly[:, np.arange(1, self.two_n, 2, dtype=np.int64) * g % self.two_n // 2]

    # -- bases --------------------------------------------------------------

    def wide_basis(self) -> tuple[tuple[int, ...], NttPlan, GarnerBasis]:
        """The tensor basis, its NTT plan and its Garner table (``plan_q``
        and ``garner`` themselves)."""
        return self.tensor_primes, self.plan_q, self.garner

    def special_count(self, r: int) -> int:
        """L'(R): the length of P', the shortest prefix of the special primes
        whose product exceeds q', the product of q's first R primes."""
        return self._special[r]

    def qp_arr(self, r: int) -> np.ndarray:
        """The (R+L', 1) moduli of q'P' for q' the product of q's first R
        primes: plan rows [0, R) and [K, K+L')."""
        return np.concatenate((self.q_arr[:r], self.p_arr[: self._special[r]]))

    def keyswitch_scales(self, r: int) -> tuple[np.ndarray, np.ndarray | None]:
        """For a keyswitch of an R-prime ciphertext mod q'P': P' mod q' (the
        scale of the c0 it holds) and [P'/P]_q', the factor its input takes
        before the lift so that the keys' P becomes P' (None when P' = P)."""
        lp = self._special[r]
        p_mod, _, rescale = self._divisors[lp]
        return p_mod[:r], None if lp == len(self.p_primes) else rescale[:r]

    def mod_up(self, coeffs: np.ndarray, evals: np.ndarray, basis: tuple | None = None) -> np.ndarray:
        """The centred lift of an (R, N) polynomial mod q' (q's first R
        primes), given in both forms, to q' and the rows of ``basis`` past
        q (default P') in evaluation form: the R rows of ``evals``, then the
        forward transform of the lifted extension rows only."""
        r = len(coeffs)
        targets = basis[self.k :] if basis else self.p_primes[: self._special[r]]
        return np.concatenate((evals, self.plan_q.forward(self.garner.lift(coeffs, targets), self.k)))

    def key_product(self, lifted: np.ndarray, key: np.ndarray) -> np.ndarray:
        """A ``mod_up`` lift to q'P' times one (K+L, N) key part mod qP, in
        evaluation form: the key's first R rows and its first L' P rows, as
        two slices, since a key mod qP also holds mod q'P'."""
        r = self._keyswitch_r[len(lifted)]
        out = np.empty_like(lifted)
        np.multiply(lifted[:r], key[:r], out=out[:r])
        np.multiply(lifted[r:], key[self.k : self.k + len(lifted) - r], out=out[r:])
        out %= self.qp_arr(r)
        return out

    def mod_down(self, poly: np.ndarray, addend: np.ndarray | None = None) -> np.ndarray:
        """round(x / P') mod q' of an (R+L', N) polynomial x mod q'P', for q'
        the product of q's first R primes and P' the first L' = L'(R)
        special primes; R + L'(R) rises with R, so the row count names R.
        An ``addend`` c mod q' in coefficient form rides the same forward
        transform: round(x / P') + c = (x - ([x]_P' - P'*c)) / P'."""
        r = self._keyswitch_r[len(poly)]
        p_mod, p_inv, _ = self._divisors[len(poly) - r]
        shift = None if addend is None else mul_mod(addend, p_mod[:r], self.q_arr[:r])
        return self._divide_tail(poly, self.k, self.garner_aux, p_inv[:r], shift)

    def mod_switch(self, poly: np.ndarray) -> np.ndarray:
        """round(x / Q_d) mod q' of a (K, N) polynomial x mod q, for q' the
        product of q's first k' = ``params.output_primes`` primes and Q_d of
        the other K - k': mod_down with Q_d in P's place."""
        return self._divide_tail(poly, self.out_k, self.garner_tail, self._tail_inv_mod_head)

    def _divide_tail(self, poly: np.ndarray, tail_start: int, garner: GarnerBasis,
                     inv: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
        """The exact (x - [x]_D) / D, with [x]_D the centred residue of x mod
        D, of a polynomial x in evaluation form whose first h = len(inv)
        rows hold q's first h primes and whose other rows hold the primes
        of D, plan rows from ``tail_start`` on, which ``garner`` lifts from.
        ``inv`` is D^-1 mod each of the h head primes, and ``shift``, in
        coefficient form over them, is subtracted from [x]_D.  Transforms
        the tail's rows once each, then h rows."""
        h = len(inv)
        head = self.q_arr[:h]
        rem = garner.lift(self.plan_q.inverse(poly[h:], tail_start), self.q_primes[:h])
        if shift is not None:
            rem = sub_mod(rem, shift, head)
        return mul_mod(sub_mod(poly[:h], self.plan_q.forward(rem), head), inv, head)

    def scale_down(self, x: np.ndarray) -> np.ndarray:
        """round(t*x/q) mod q of a polynomial x over the tensor basis: mod_down
        with q in P's place.  The exact (y - [y]_q)/q for y = t*x is formed on
        the rows beyond q, then lifted back to q (q is odd: no rounding ties)."""
        k, aux = self.k, self.plan_q.p[self.k :]
        y = mul_mod(x, self.t_mod_tensor, self.plan_q.p)
        rem = self.garner.lift(y[:k], self.garner_aux.primes)
        r = mul_mod(sub_mod(y[k:], rem, aux), self._q_inv_mod_aux, aux)
        return self.garner_aux.lift(r, self.q_primes)

    # -- small helpers ------------------------------------------------------

    def rns_from_small(self, coeffs: np.ndarray, moduli: np.ndarray | None = None) -> np.ndarray:
        """Residues of an int64 coefficient vector (values within +-2^62)
        modulo each row of ``moduli``, a (R, 1) column (default: the q primes)."""
        moduli = self.q_arr if moduli is None else moduli
        return (coeffs[None, :] % moduli.astype(np.int64)).astype(np.uint64)

    def scale_plaintext(self, poly_mod_t: np.ndarray) -> np.ndarray:
        """Residues of round(q * m / t) for a plaintext coefficient vector.

        Exact scaling keeps the message-dependent noise term at t/2 instead
        of the (q mod t) * m ~ t^2 of floor(q/t) scaling.
        """
        t = np.uint64(self.t)
        rho = add_mod(
            mul_mod(poly_mod_t[None, :], self._q_mod_t, t), self._t_half, t
        )
        diff = (self._t_half.astype(np.int64) - rho.astype(np.int64)) % self.q_arr.astype(
            np.int64
        )
        return mul_mod(diff.astype(np.uint64), self._t_inv_mod_q, self.q_arr)


@lru_cache(maxsize=8)
def get_ring(params: HeParams) -> RingContext:
    """Cached RingContext for the given parameters (equal params share one)."""
    return RingContext(params)
