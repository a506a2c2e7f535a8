"""Transform-level checks: the NTT against its definition and a schoolbook
negacyclic oracle, and the piece rule that keeps its matrix products exact."""

import numpy as np
import pytest

from hedgerow.ntt import (
    MODULUS_BITS,
    NttPlan,
    add_mod,
    find_ntt_primes,
    is_prime,
    piece_bits,
    piece_count,
    power_table,
    primitive_root,
    root_of_unity,
    sub_mod,
)
from hedgerow.params import PRESET_NAMES, gen_params
from hedgerow.ring import MAX_BASIS_PRIMES
from oracles import check_ntt_definition, negacyclic_mul


def schoolbook_negacyclic(a, b, q):
    """O(n^2) reference product in Z_q[x]/(x^n + 1)."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            v = int(a[i]) * int(b[j])
            if k >= n:
                k -= n
                v = -v
            out[k] = (out[k] + v) % q
    return np.array(out, dtype=np.uint64)


def test_prime_finder_properties():
    primes = find_ntt_primes(29, 8, 128)
    assert len(set(primes)) == 8
    for p in primes:
        assert is_prime(p)
        assert (p - 1) % 128 == 0
        assert p < 1 << 29


def test_is_prime_small_cases():
    known = {2, 3, 5, 7, 11, 13, 97, 65537}
    for n in range(2, 100):
        assert is_prime(n) == (n in known or all(n % d for d in range(2, n)))
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)


def test_root_of_unity_orders():
    p = find_ntt_primes(29, 1, 64)[0]
    w = root_of_unity(64, p)
    assert pow(w, 64, p) == 1
    assert pow(w, 32, p) == p - 1
    g = primitive_root(p)
    assert pow(g, p - 1, p) == 1
    assert pow(g, (p - 1) // 2, p) != 1


# every preset's t is 1 mod 2N for its N >= 2048, hence 1 mod 2n for these n
PRESET_TS = tuple(sorted({gen_params(name).plaintext_modulus for name in PRESET_NAMES}))


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_forward_inverse_identity(n, rng):
    primes = tuple(find_ntt_primes(29, 3, 2 * n)) + PRESET_TS
    plan = NttPlan(n, primes)
    for _ in range(20):
        a = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
        assert np.array_equal(plan.inverse(plan.forward(a)), a)


@pytest.mark.parametrize("n", [8, 64])
def test_plan_rows_are_prefix_plans(n, rng):
    # the first k rows through an R-row plan are word for word what a plan
    # over the first k moduli makes of them, for every k
    primes = tuple(find_ntt_primes(MODULUS_BITS, 3, 2 * n)) + tuple(find_ntt_primes(29, 3, 2 * n))
    plan = NttPlan(n, primes)
    a = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
    b = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
    for k in range(1, len(primes) + 1):
        own = NttPlan(n, primes[:k])
        for op in ("forward", "inverse"):
            got = getattr(plan, op)(a[:k])
            assert got.shape == (k, n)
            assert np.array_equal(got, getattr(own, op)(a[:k])), (op, k)
        assert np.array_equal(plan.pointwise(a[:k], b[:k]), own.pointwise(a[:k], b[:k]))
        assert np.array_equal(negacyclic_mul(plan, a[:k], b[:k]), negacyclic_mul(own, a[:k], b[:k]))


@pytest.mark.parametrize("n", [8, 64])
def test_transforms_start_at_any_plan_row(n, rng):
    # rows j..j+k-1 passed with start=j transform exactly as they do inside
    # the whole array, so a basis extension transforms on its own
    primes = tuple(find_ntt_primes(MODULUS_BITS, 3, 2 * n)) + tuple(find_ntt_primes(29, 3, 2 * n))
    plan = NttPlan(n, primes)
    a = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
    whole = {"forward": plan.forward(a), "inverse": plan.inverse(a)}
    for j in range(len(primes)):
        for k in range(1, len(primes) - j + 1):
            for op, want in whole.items():
                got = getattr(plan, op)(a[j : j + k], j)
                assert np.array_equal(got, want[j : j + k]), (op, j, k)


@pytest.mark.parametrize("count", [1, 5, 2048])
def test_power_table_matches_pow(count):
    # psi and psi^-1 tables mod each prime, and 3^j mod 2N for the slots
    moduli = (4096, 97, *find_ntt_primes(29, 2, 4096), *PRESET_TS)
    bases = (3, 2**31 + 11, 0, moduli[3] - 1, *(m // 3 for m in PRESET_TS))
    table = power_table(bases, moduli, count)
    assert table.shape == (len(moduli), count) and table.dtype == np.uint64
    for row, (b, m) in enumerate(zip(bases, moduli)):
        assert [int(v) for v in table[row]] == [pow(b, j, m) for j in range(count)], (b, m)


@pytest.mark.parametrize("n", [2 ** e for e in range(1, 15)])
def test_transform_matches_its_definition(n, rng):
    # every shape n1 x n2 from 1 x 2 to 128 x 128, so both the two-piece
    # (N <= 4096) and the three-piece matrices, on a 31-bit and a 29-bit
    # prime row: zeros, all p - 1, all p - 2 (odd, so that a sum past 2^53
    # would round), and random residues with p - 1 and 0 at the edges
    primes = (find_ntt_primes(MODULUS_BITS, 1, 2 * n)[0], find_ntt_primes(29, 1, 2 * n)[0])
    plan = NttPlan(n, primes)
    top = plan.p - np.uint64(1)
    edges = rng.integers(0, 2**62, (2, n), dtype=np.uint64) % plan.p
    edges[:, :1] = top
    edges[:, -1] = 0
    ks = sorted({0, 1, n - 1, *rng.integers(0, n, 3).tolist()})
    for fill in (0 * top, top, top - np.uint64(1)):
        check_ntt_definition(plan, np.repeat(fill, n, axis=1), 0, ks)
    check_ntt_definition(plan, edges, 0, ks)


def test_piece_rule_keeps_every_product_exact():
    # b-bit pieces times 31-bit residues, summed over the inner dimension,
    # stay below 2^53: b is the widest such width up to 16, so Garner's
    # bases of up to 64 primes keep their 16-bit halves
    for inner in range(1, 129):
        b = piece_bits(inner)
        assert inner * (2**b - 1) * (2**MODULUS_BITS - 1) < 2**53, inner
        assert b == 16 or inner * (2 ** (b + 1) - 1) * (2**MODULUS_BITS - 1) >= 2**53, inner
    assert piece_bits(MAX_BASIS_PRIMES) == 16
    for n, pieces in ((2, 2), (2048, 2), (4096, 2), (8192, 3), (16384, 3)):
        plan = NttPlan(n, tuple(find_ntt_primes(MODULUS_BITS, 1, 2 * n)))
        assert max(piece_count(b) for b in plan.bits) == pieces, n


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 256])
def test_ntt_multiplication_matches_schoolbook(n, rng):
    primes = tuple(find_ntt_primes(29, 2, 2 * n))
    plan = NttPlan(n, primes)
    for _ in range(10):
        a = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
        b = np.stack([rng.integers(0, p, n, dtype=np.uint64) for p in primes])
        got = negacyclic_mul(plan, a, b)
        for row, p in enumerate(primes):
            expect = schoolbook_negacyclic(a[row], b[row], p)
            assert np.array_equal(got[row], expect)


@pytest.mark.parametrize("shape", ["scalar", "column"])
def test_add_sub_mod_match_the_compare_and_select_form(shape, rng):
    # min(s, s - p) against the np.where reduction it replaced, at the edges
    # and on random residues, for a scalar modulus and a (K, 1) column
    top = find_ntt_primes(MODULUS_BITS, 1, 2)[0]  # a 31-bit prime
    if shape == "scalar":
        p = np.uint64(top)
        mods = np.full((1, 1), top, dtype=np.uint64)
    else:
        mods = np.array([top, *find_ntt_primes(29, 2, 128), 97], dtype=np.uint64).reshape(-1, 1)
        p = mods
    n = 64
    a = rng.integers(0, 2**62, (mods.shape[0], n), dtype=np.uint64) % mods
    b = rng.integers(0, 2**62, (mods.shape[0], n), dtype=np.uint64) % mods
    edge = mods - np.uint64(1)
    a[:, :4] = np.hstack((0 * edge, edge, edge, 0 * edge))
    b[:, :4] = np.hstack((edge, 0 * edge, edge, 0 * edge))  # ..., both p-1, then 0 - 0

    def where_add(x, y):
        s = x + y
        return np.where(s >= p, s - p, s)

    def where_sub(x, y):
        d = x + (p - y)
        return np.where(d >= p, d - p, d)

    assert np.array_equal(add_mod(a, b, p), where_add(a, b))
    assert np.array_equal(sub_mod(a, b, p), where_sub(a, b))
    assert np.array_equal(sub_mod(0, b, p), where_sub(0, b))
    assert not sub_mod(0, np.zeros_like(b), p).any()
    assert (add_mod(a, b, p) < mods).all() and (sub_mod(a, b, p) < mods).all()


def test_negacyclic_wraparound_sign():
    # x^(n-1) * x = x^n = -1
    n = 8
    p = find_ntt_primes(29, 1, 2 * n)[0]
    plan = NttPlan(n, (p,))
    a = np.zeros((1, n), dtype=np.uint64)
    b = np.zeros((1, n), dtype=np.uint64)
    a[0, n - 1] = 1
    b[0, 1] = 1
    got = negacyclic_mul(plan, a, b)
    expect = np.zeros((1, n), dtype=np.uint64)
    expect[0, 0] = p - 1
    assert np.array_equal(got, expect)


def test_plan_rejects_bad_sizes():
    p = find_ntt_primes(29, 1, 16)[0]
    with pytest.raises(ValueError):
        NttPlan(6, (p,))
    with pytest.raises(ValueError):
        NttPlan(8, (7,))  # 7 is not 1 mod 16
    with pytest.raises(ValueError):
        NttPlan(8, (find_ntt_primes(41, 1, 16)[0],))  # above the 31-bit word
