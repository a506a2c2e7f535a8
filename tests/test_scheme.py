"""Scheme-level behaviour: roundtrips, operation semantics, the clear mirror."""

import dataclasses
import hashlib
import itertools
from math import prod

import numpy as np
import pytest

from hedgerow import (
    Ciphertext,
    ClearBackend,
    DepthExhaustedError,
    FingerprintMismatchError,
    HeBackend,
    HedgerowError,
    HeParams,
    MissingGaloisKeyError,
    NoiseBudgetError,
    ParamError,
    make_test_params,
)
from hedgerow.ntt import MODULUS_BITS, NttPlan, find_ntt_primes, is_prime, ntt_primes
from hedgerow.params import PRESET_NAMES, default_plaintext_modulus, gen_params
from hedgerow.ring import GarnerBasis, RingContext, get_ring, special_primes, tensor_primes
from hedgerow.scheme import Backend, fold_steps
from hedgerow.serial import serialize_public_key, serialize_secret_key
from oracles import centred_lift, check_garner_conversions, rounded_quotient


def enc(backend, pk, values, seed):
    return backend.encrypt(pk, backend.encode(values), seed)


def dec(backend, sk, ct):
    return backend.decode(backend.decrypt(sk, ct)).astype(np.int64)


# ---------------------------------------------------------------------------
# encode / keygen / roundtrip
# ---------------------------------------------------------------------------


def test_encode_signed_representatives(he64, params64):
    t = params64.plaintext_modulus
    pt = he64.encode([1, -1, 0])
    slots = he64.decode(pt)
    assert slots[0] == 1
    assert slots[1] == t - 1
    assert slots[2] == 0
    assert not slots[3:].any()


def test_encode_all_zeros_gives_zero_polynomial(he64):
    pt = he64.encode(np.zeros(64, dtype=np.int64))
    assert not pt.poly.any()


def test_encode_rejects_overlong_vector(he64):
    with pytest.raises(ParamError):
        he64.encode(np.zeros(65, dtype=np.int64))


def test_encode_decode_roundtrip_random(he64, params64, rng):
    t = params64.plaintext_modulus
    for _ in range(50):
        v = rng.integers(0, t, 64, dtype=np.int64)
        assert np.array_equal(he64.decode(he64.encode(v)), v.astype(np.uint64))


def test_keygen_deterministic(params64):
    be = HeBackend(params64)
    sk1, pk1, _ = be.keygen(seed=42)
    sk2, pk2, _ = be.keygen(seed=42)
    assert serialize_secret_key(sk1) == serialize_secret_key(sk2)
    assert serialize_public_key(pk1) == serialize_public_key(pk2)
    sk3, _, _ = be.keygen(seed=43)
    assert serialize_secret_key(sk1) != serialize_secret_key(sk3)


def test_encrypt_deterministic(he64, keys64):
    from hedgerow.serial import serialize_ciphertext

    _, pk, _ = keys64
    pt = he64.encode([5, 6, 7])
    assert serialize_ciphertext(he64.encrypt(pk, pt, seed=9)) == serialize_ciphertext(
        he64.encrypt(pk, pt, seed=9)
    )
    assert serialize_ciphertext(he64.encrypt(pk, pt, seed=9)) != serialize_ciphertext(
        he64.encrypt(pk, pt, seed=10)
    )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_seeded_encryption_is_exact_with_more_margin(name):
    # under the secret key one error term replaces e1 + e2*s + e*u: the
    # fresh margin gains at least 5 bits over public-key encryption
    params = gen_params(name)
    he = HeBackend(params)
    sk, pk, _ = he.keygen(seed=3, rotation_steps=(1,))
    v = np.random.default_rng(4).integers(0, params.plaintext_modulus, params.slot_count)
    seeded, public = enc(he, sk, v, seed=5), enc(he, pk, v, seed=5)
    assert seeded.a_seed is not None and public.a_seed is None
    assert np.array_equal(dec(he, sk, seeded), v)
    assert he.noise_budget(sk, seeded) >= he.noise_budget(sk, public) + 5


def test_seeded_encryption_draws_its_own_a_seed(he64, keys64):
    # a_seed comes from the encryption's seed: two seeds, two seeds and two
    # c1; one seed twice, the same ciphertext
    sk, _, _ = keys64
    a, b, again = (enc(he64, sk, [5, 6, 7], seed=s) for s in (9, 10, 9))
    assert a.a_seed != b.a_seed and not np.array_equal(a.parts[1], b.parts[1])
    assert a.a_seed == again.a_seed
    assert all(np.array_equal(x, y) for x, y in zip(a.parts, again.parts))
    assert list(dec(he64, sk, a)[:3]) == list(dec(he64, sk, b)[:3]) == [5, 6, 7]


def test_roundtrip_zero_vector(he64, keys64):
    sk, pk, _ = keys64
    ct = enc(he64, pk, np.zeros(64, dtype=np.int64), seed=1)
    assert not dec(he64, sk, ct).any()


def test_roundtrip_1000_random_vectors(he64, keys64, params64, rng):
    sk, pk, _ = keys64
    t = params64.plaintext_modulus
    for i in range(1000):
        v = rng.integers(0, t, 64, dtype=np.int64)
        ct = enc(he64, pk, v, seed=i)
        assert np.array_equal(dec(he64, sk, ct), v)


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------


def test_add_example(he64, keys64):
    sk, pk, _ = keys64
    a = enc(he64, pk, [1, 2], seed=1)
    b = enc(he64, pk, [3, 4], seed=2)
    out = dec(he64, sk, he64.add_ct(a, b))
    assert out[0] == 4 and out[1] == 6


def test_add_negate_inverse(he64, keys64, rng):
    sk, pk, _ = keys64
    v = rng.integers(-50, 50, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=3)
    assert not dec(he64, sk, he64.add_ct(a, he64.negate(a))).any()


def test_mul_pt_example(he64, keys64):
    sk, pk, _ = keys64
    a = enc(he64, pk, [2, 3], seed=4)
    out = dec(he64, sk, he64.mul_pt(a, he64.encode([4, 5])))
    assert out[0] == 8 and out[1] == 15


def test_mul_pt_by_ones_is_identity(he64, keys64, rng):
    sk, pk, _ = keys64
    v = rng.integers(0, 1000, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=5)
    ones = he64.encode(np.ones(64, dtype=np.int64))
    assert np.array_equal(dec(he64, sk, he64.mul_pt(a, ones)), v)


def test_mul_ct_boolean_and(he64, keys64):
    sk, pk, ek = keys64
    a = enc(he64, pk, [1, 0], seed=6)
    b = enc(he64, pk, [1, 1], seed=7)
    out = dec(he64, sk, he64.mul_ct(a, b, ek))
    assert out[0] == 1 and out[1] == 0


def test_mul_ct_by_encrypted_ones_is_identity(he64, keys64, rng):
    sk, pk, ek = keys64
    v = rng.integers(0, 1000, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=8)
    ones = enc(he64, pk, np.ones(64, dtype=np.int64), seed=9)
    assert np.array_equal(dec(he64, sk, he64.mul_ct(a, ones, ek)), v)


def test_mul_ct_random_binary_vs_and(he64, keys64, rng):
    sk, pk, ek = keys64
    for i in range(10):
        u = rng.integers(0, 2, 64, dtype=np.int64)
        v = rng.integers(0, 2, 64, dtype=np.int64)
        a = enc(he64, pk, u, seed=100 + i)
        b = enc(he64, pk, v, seed=200 + i)
        assert np.array_equal(dec(he64, sk, he64.mul_ct(a, b, ek)), u & v)


def _digest(params, seed=0xD16E57) -> str:
    """SHA-256 over the residue arrays of the keys, of one encrypt, mul_ct,
    rotate, swap_rows and mul_pt output, and of each output's decrypted
    slots and noise budget.  The secret key and ciphertext parts are hashed
    in coefficient form, so the digest names the polynomials, not their
    representation."""
    he = HeBackend(params)
    to_coeffs = he.ring.plan_q.inverse
    sk, pk, ek = he.keygen(seed, rotation_steps=(1,))
    h = hashlib.sha256()

    def put(arr):
        arr = np.ascontiguousarray(arr, dtype="<u8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())

    for arr in (to_coeffs(sk.s), pk.b_ntt, pk.a_ntt, *ek.relin, *ek.galois[1], *ek.row_swap):
        put(arr)
    n, t = params.slot_count, params.plaintext_modulus
    rng = np.random.default_rng(7)
    x = enc(he, pk, rng.integers(0, t, n), seed + 1)
    y = enc(he, pk, rng.integers(0, 2, n), seed + 2)
    pt = he.encode(rng.integers(0, t, n))
    for ct in (x, he.mul_ct(x, y, ek), he.rotate(x, 1, ek), he.swap_rows(x, ek), he.mul_pt(x, pt)):
        for part in ct.parts:
            put(to_coeffs(part))
        put(he.decode(he.decrypt(sk, ct)))
        h.update(str(he.noise_budget(sk, ct)).encode())
    return h.hexdigest()


# A change that alters these bytes on purpose updates the digest and says why.
PINNED_DIGESTS = {
    "svm-d1": "e40eb6410463dfcaab459dde0a4734aa80c2277050b863b7639b0ab54615a1b9",
    "xgb-d2": "5b5b531dc05bd1c08d5b76df112593d788a138a10d875b98f4ed483bf771e556",
    "xgb-encmodel-d3": "34532fb31df513df03a79d8c595a6eb3a2edc40178331ca2d5b1cc4b85fe3382",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_keys_and_outputs_match_the_pinned_digest(name):
    assert _digest(gen_params(name)) == PINNED_DIGESTS[name]


# ---------------------------------------------------------------------------
# hybrid keyswitching and exact products: special primes, the tensor basis,
# qP basis changes, keyswitch noise
# ---------------------------------------------------------------------------


def _top_prime_params():
    """Coefficient primes that are themselves the largest word-sized NTT
    primes after t, so the special primes must skip all of them."""
    t = default_plaintext_modulus(64)
    q = [p for p in find_ntt_primes(MODULUS_BITS, 5, 128) if p != t][:4]
    return HeParams(64, tuple(q), t, 1)


@pytest.mark.parametrize("name", ["test64", "top-primes", *PRESET_NAMES])
def test_special_primes(name, params64):
    params = {"test64": params64, "top-primes": _top_prime_params()}.get(name) or gen_params(name)
    chosen = special_primes(params)
    two_n = 2 * params.ring_degree
    taken = {*params.coeff_modulus, params.plaintext_modulus}
    assert not taken & set(chosen) and len(set(chosen)) == len(chosen)
    for p in chosen:
        assert is_prime(p) and p < 1 << MODULUS_BITS and (p - 1) % two_n == 0
    q = params.coeff_modulus_product
    assert prod(chosen) > q >= prod(chosen[:-1])  # the product clears q, one fewer does not
    free = (p for p in ntt_primes(MODULUS_BITS, two_n) if p not in taken)
    assert chosen == tuple(next(free) for _ in chosen)  # the largest ones left
    if name in PRESET_NAMES:
        assert len(chosen) == len(params.coeff_modulus)


def test_special_primes_refuse_when_too_few_remain():
    # at N = 2^20 there are 99 31-bit NTT primes; with 60 taken by q and t the
    # rest multiply to less than q
    primes = list(ntt_primes(MODULUS_BITS, 2 ** 21))
    params = HeParams(2 ** 20, tuple(primes[1:60]), primes[0], 1)
    with pytest.raises(ParamError):
        special_primes(params)
    # with 48 taken the rest clear q but not the tensor bound, so the
    # sequence runs out while the tensor basis is built
    params = HeParams(2 ** 20, tuple(primes[1:48]), primes[0], 1)
    assert special_primes(params)
    with pytest.raises(ParamError):
        tensor_primes(params)


def _tensor_case_params(name, params64):
    """test64 and the top primes need one prime beyond qP; three 29-bit
    primes leave P too little room above q, so they need two."""
    cases = {"test64": params64, "top-primes": _top_prime_params()}
    cases["short-q"] = make_test_params(64, num_primes=3, depth_budget=1)
    return cases.get(name) or gen_params(name)


@pytest.mark.parametrize("name", ["test64", "top-primes", "short-q", *PRESET_NAMES])
def test_tensor_basis_is_the_shortest_extension_of_qp(name, params64):
    params = _tensor_case_params(name, params64)
    ring = RingContext(params)
    primes, plan, garner = ring.wide_basis()
    assert primes[: len(ring.qp_primes)] == ring.qp_primes
    assert plan.moduli == primes and garner.primes == primes
    # the extension holds round(t*d/q) centred for any |d| <= N*q^2/2
    extension = primes[ring.k :]
    need = ring.t * ring.n * ring.q + 1
    assert prod(extension) > need >= prod(extension[:-1])  # one prime fewer is too small
    assert extension[: len(ring.p_primes)] == ring.p_primes
    assert ring.ext_rows == (ring.k, len(primes))
    taken = {*params.coeff_modulus, params.plaintext_modulus}
    free = (p for p in ntt_primes(MODULUS_BITS, ring.two_n) if p not in taken)
    assert extension == tuple(next(free) for _ in extension)  # a prefix of the sequence
    assert plan is ring.plan_q
    extra = len(primes) - len(ring.qp_primes)
    assert extra == (2 if name in ("short-q", "svm-d1") else 1)


@pytest.mark.parametrize("name", ["test64", "short-q", *PRESET_NAMES])
def test_one_plan_serves_every_basis(name, params64):
    # q, qP and the tensor basis are the first K, K+L and all rows of plan_q,
    # built with the ring: every wide_basis call returns those same objects
    ring = RingContext(_tensor_case_params(name, params64))
    first = ring.wide_basis()
    assert first[1] is ring.plan_q
    assert all(a is b for a, b in zip(ring.wide_basis(), first))
    assert ring.plan_q.moduli[: ring.k] == ring.q_primes
    assert ring.plan_q.moduli[: len(ring.qp_primes)] == ring.qp_primes
    assert np.array_equal(ring.q_arr[:, 0], ring.q_primes)


def test_ring_refuses_params_whose_tensor_basis_runs_out():
    # the 48-prime case of test_special_primes_refuse_when_too_few_remain:
    # P exists but the tensor basis does not, so the ring is never built
    primes = list(ntt_primes(MODULUS_BITS, 2 ** 21))
    with pytest.raises(ParamError):
        RingContext(HeParams(2 ** 20, tuple(primes[1:48]), primes[0], 1))


def _crt(residues, primes) -> int:
    m = prod(primes)
    return sum(int(r) * (m // p) * pow(m // p, -1, p) for r, p in zip(residues, primes)) % m


def test_mod_up_and_mod_down_match_integer_arithmetic(params64, rng):
    ring = RingContext(params64)
    q, big_p = ring.q, prod(ring.p_primes)
    x = rng.integers(0, 2**62, (ring.k, ring.n), dtype=np.uint64) % ring.q_arr
    for col, edge in enumerate((0, q // 2, q // 2 + 1, q - 1)):  # centred 0, max, min, -1
        x[:, col] = [edge % p for p in ring.q_primes]
    plan = ring.plan_q  # mod_up and mod_down take and return evaluation form
    up = plan.inverse(ring.mod_up(x, plan.forward(x)))
    assert up.shape == (ring.k + len(ring.p_primes), ring.n)
    for col in range(ring.n):
        v = _crt(x[:, col], ring.q_primes)
        v = v - q if v > q // 2 else v
        assert [int(r) for r in up[:, col]] == [v % p for p in ring.qp_primes]

    qp_arr = np.array(ring.qp_primes, dtype=np.uint64).reshape(-1, 1)
    y = rng.integers(0, 2**62, up.shape, dtype=np.uint64) % qp_arr
    down = plan.inverse(ring.mod_down(plan.forward(y), ring.k))
    assert down.shape == (ring.k, ring.n)
    for col in range(ring.n):
        v = _crt(y[:, col], ring.qp_primes)
        rounded = (2 * v + big_p) // (2 * big_p)  # round(v / P); P is odd, so no ties
        assert [int(r) for r in down[:, col]] == [rounded % p for p in ring.q_primes]


@pytest.mark.parametrize("out_k", [1, 4, 5])
def test_mod_switch_matches_integer_arithmetic(params64, rng, out_k):
    # round(x * q' / q) mod q' for q' the product of q's first k' primes,
    # with x at the centred edges 0, max, min and -1 and at random
    ring = RingContext(dataclasses.replace(params64, output_primes=out_k))
    q, head = ring.q, ring.q_primes[:out_k]
    dropped = q // prod(head)
    x = rng.integers(0, 2**62, (ring.k, ring.n), dtype=np.uint64) % ring.q_arr
    for col, edge in enumerate((0, q // 2, q // 2 + 1, q - 1)):
        x[:, col] = [edge % p for p in ring.q_primes]
    got = ring.plan_q.inverse(ring.mod_switch(ring.plan_q.forward(x)))
    assert got.shape == (out_k, ring.n)
    for col in range(ring.n):
        v = _crt(x[:, col], ring.q_primes)
        rounded = (2 * v + dropped) // (2 * dropped)  # Q_d is odd: no ties
        assert [int(r) for r in got[:, col]] == [rounded % p for p in head]


# SHA-256 of RingContext.mod_switch on one seeded K-row input, pinned so
# that a change to how the ring names or builds its conversions keeps them
SWITCH_DIGESTS = {
    "svm-d1": "69dc05dd0387f30b456e6ee5104051cc1ed3f4e05ca13a75d19b337374d9ace5",
    "xgb-d2": "12a0a939652df7805e22efd7c585517b917d436ee93349003fadeee20ee4c25f",
    "xgb-encmodel-d3": "cd9f4b65e106eed87ee04da9098b84705723e90578537897c989037f7bc74781",
    "test64": "11f68bf699f2365b1101dde04fa237cceff73d1bf60380a7a136bf085769fd61",
}


@pytest.mark.parametrize("name", [*PRESET_NAMES, "test64"])
def test_mod_down_at_output_primes_matches_integer_arithmetic(name, params64, rng):
    # a switched ciphertext's keyswitch: mod_down of an (R+L')-row x mod
    # q'P', for q' the product of q's first R = k' primes and P' the
    # shortest prefix of P above q', is round(x / P') mod q', and
    # round(x / P') + c with an addend c; at each preset's k' and a custom
    # k' = 3 of 6
    params = (gen_params(name) if name in PRESET_NAMES
              else dataclasses.replace(params64, output_primes=3))
    ring, r = get_ring(params), params.output_primes
    lp = ring.special_count(r)
    plan, big_p = ring.plan_q, prod(ring.p_primes[:lp])
    assert big_p > prod(ring.q_primes[:r]) > prod(ring.p_primes[: lp - 1])
    primes = ring.q_primes[:r] + ring.p_primes[:lp]
    x = rng.integers(0, 2**62, (r + lp, ring.n), dtype=np.uint64) % ring.qp_arr(r)
    for col, edge in enumerate((0, prod(primes) // 2, prod(primes) // 2 + 1, prod(primes) - 1)):
        x[:, col] = [edge % p for p in primes]
    c = rng.integers(0, 2**62, (r, ring.n), dtype=np.uint64) % ring.q_arr[:r]
    evals = np.concatenate((plan.forward(x[:r]), plan.forward(x[r:], ring.k)))
    cols = np.concatenate((np.arange(4), rng.choice(np.arange(4, ring.n), 60, replace=False)))
    want = np.array(rounded_quotient(x[:, cols], primes, big_p, ring.q_primes[:r]),
                    dtype=np.uint64)
    down = plan.inverse(ring.mod_down(evals, r))
    assert down.shape == (r, ring.n)
    assert np.array_equal(down[:, cols], want)
    shifted = plan.inverse(ring.mod_down(evals, r, c))
    assert np.array_equal(shifted[:, cols], (want + c[:, cols]) % ring.q_arr[:r])
    y = np.random.default_rng(0x5D).integers(0, 2**62, (ring.k, ring.n), dtype=np.uint64)
    switched = ring.mod_switch(y % ring.q_arr)
    assert hashlib.sha256(switched.tobytes()).hexdigest() == SWITCH_DIGESTS[name]


@pytest.mark.parametrize("name", ["test64", "short-q", *PRESET_NAMES])
def test_one_garner_table_serves_q_and_the_tensor_basis(name, params64, rng):
    # q and the tensor basis are the first K and all rows of ring.garner;
    # each prefix centres its own product Q_R, edges 0, +-1 and +-h included,
    # and converts to each target it has a table for: by digits, and from q
    # to P and the extension by the ring's lifts
    ring = RingContext(_tensor_case_params(name, params64))
    garner = ring.garner
    assert garner.primes == ring.tensor_primes
    targets = (ring.p_primes, ring.tensor_primes[ring.k :], (ring.t,))
    for rows in (ring.k, len(garner.primes)):
        primes = garner.primes[:rows]
        m = prod(primes)
        h = (m - 1) // 2
        x = rng.integers(0, 2**62, (rows, 16), dtype=np.uint64) % ring.plan_q.p[:rows]
        for col, edge in enumerate((0, 1, -1, h, -h)):
            x[:, col] = [edge % p for p in primes]
        want = [_crt(x[:, col], primes) for col in range(x.shape[1])]
        want = [v - m if v > h else v for v in want]
        assert want[:5] == [0, 1, -1, h, -h]
        assert list(garner.residues_to_ints(x)) == want
        for target in targets:
            rows_want = [[v % w for v in want] for w in target]
            assert garner.digits_to_residues(garner.to_digits(x), target).tolist() == rows_want
            if rows == ring.k and target != (ring.t,):
                assert garner.lift(x, target).tolist() == rows_want
    own = GarnerBasis(ring.q_primes)
    x = rng.integers(0, 2**62, (ring.k, ring.n), dtype=np.uint64) % ring.q_arr
    assert np.array_equal(own.to_digits(x), garner.to_digits(x))
    assert np.array_equal(own.residues_to_ints(x), garner.residues_to_ints(x))



# 31-bit NTT primes, largest first: the basis comes from the middle, so the
# targets can lie above and below all of its primes
_POOL = tuple(itertools.islice(ntt_primes(MODULUS_BITS, 2 * 64), 72))


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 12, 23, 33, 63, 64])
def test_garner_is_exact_up_to_64_primes(rows, rng):
    # x = h makes every digit p - 1, the largest float64 sums; residues all
    # at p - 1 are x = -1
    basis = _POOL[4 : 4 + rows]
    m = prod(basis)
    h = (m - 1) // 2
    values = [0, 1, -1, h, -h, h - 1, -h + 1]
    values += [int.from_bytes(rng.bytes(8 * rows), "little") % m - h for _ in range(8)]
    assert GarnerBasis(basis).residues_to_ints(
        np.array([[p - 1] for p in basis], dtype=np.uint64)).tolist() == [-1]
    for targets in (_POOL[:4], _POOL[-4:], _POOL[:1] + _POOL[-1:], basis[:3]):
        check_garner_conversions(basis, targets, values)


def test_garner_digit_subtraction_borrows(rng):
    # c_1 = p_0^-1 mod p_1 is 7070, so (x_1 + h) * c_1 can lie below the sum
    # that digit 1 subtracts: the subtraction must borrow a multiple of p_1
    basis = (2147166337, 2147470081)
    assert pow(basis[0], -1, basis[1]) == 7070
    m = prod(basis)
    h = (m - 1) // 2
    values = [0, 1, -1, h, -h] + [int.from_bytes(rng.bytes(8), "little") % m - h for _ in range(64)]
    check_garner_conversions(basis, _POOL[:2], values)


def test_garner_refuses_more_than_64_primes():
    assert len(GarnerBasis(_POOL[:64]).primes) == 64
    with pytest.raises(ParamError, match="65 primes exceeds 64"):
        GarnerBasis(_POOL[:65])
    # a q of 33 primes is allowed, but its tensor basis has more than 64
    params = HeParams(64, _POOL[1:34], _POOL[0], 1)
    assert len(tensor_primes(params)) > 64
    with pytest.raises(ParamError, match="exceeds 64"):
        RingContext(params)


@pytest.mark.parametrize("name", ["test64", *PRESET_NAMES])
def test_every_ring_lift_matches_the_centred_lift(name, params64, rng, monkeypatch):
    # each change of basis the ring names, as (source, target) plan rows,
    # against the Python-int centred lift: random columns, the edges 0, +-1,
    # +-h, +-(h-1), and one value within Q 2^-45 of Q/2.  The near ties
    # (within 2^-40 of 1/2 in the overflow count's fraction) take the digit
    # loop, and nothing else does
    params = (gen_params(name) if name in PRESET_NAMES
              else dataclasses.replace(params64, output_primes=4))
    ring = get_ring(params)
    k, out_k, top = ring.k, ring.out_k, len(ring.tensor_primes)
    q, q_out, ext = (0, k), (0, out_k), (k, top)
    p, p_out = (k, k + len(ring.p_primes)), (k, k + ring.special_count(out_k))
    pairs = {(q, p), (q_out, p_out), (q, ext), (p, q), (p_out, q_out), (ext, q), ((out_k, k), q_out)}
    assert set(ring._conversions) == pairs
    # each source's basis runs from its first plan row and holds its lift
    # table; the source product's inverse is taken mod the targets
    for (src, dst), (basis, targets, inv) in ring._conversions.items():
        assert basis.primes == ring.tensor_primes[src[0] :]
        assert targets == ring.tensor_primes[slice(*dst)]
        assert (src[1] - src[0], targets) in basis._lifts
        source = prod(ring.tensor_primes[slice(*src)])
        assert inv[:, 0].tolist() == [pow(source, -1, w) for w in targets]
    to_digits = GarnerBasis.to_digits
    digit_columns = []

    def counted(self, residues):
        digit_columns.append(residues.shape[1])
        return to_digits(self, residues)

    monkeypatch.setattr(GarnerBasis, "to_digits", counted)
    for src, dst in pairs:
        primes, targets = ring.tensor_primes[slice(*src)], ring.tensor_primes[slice(*dst)]
        rows, m = len(primes), prod(primes)
        h = (m - 1) // 2
        edges = [0, 1, -1, h, -h, h - 1, -(h - 1), h - m // 2**46]
        x = rng.integers(0, 2**62, (rows, 40), dtype=np.uint64)
        x %= np.array(primes, dtype=np.uint64).reshape(-1, 1)
        x[:, : len(edges)] = [[v % p for v in edges] for p in primes]
        digit_columns.clear()
        assert ring._lift(x, src, dst).tolist() == centred_lift(x, primes, targets)
        # +-h, +-(h-1) and the near value are ties once 1/Q is below 2^-42
        assert sum(digit_columns) == (5 if m > 2**42 else 0), (rows, len(targets))


def test_ring_conversions_read_tables_built_with_the_ring(params64, rng, monkeypatch):
    # q -> P, q' -> P', q -> extension, P -> q, P' -> q', extension -> q
    # and q's tail -> its head, each as a lift table and, for a near tie, a
    # digit table, and decryption's digits to t: no op builds a table per call
    params = dataclasses.replace(params64, output_primes=4)
    ring = get_ring(params)  # built before the guard, as every backend op reads it

    def refuse(self, *args):
        raise AssertionError("a conversion table was built per call")

    monkeypatch.setattr(GarnerBasis, "_conversion", refuse)
    monkeypatch.setattr(GarnerBasis, "_lift_table", refuse)
    plan = ring.plan_q
    x = rng.integers(0, 2**62, (ring.k, ring.n), dtype=np.uint64) % ring.q_arr
    h = (ring.q - 1) // 2
    x[:, :2] = [[h % p, -h % p] for p in ring.q_primes]  # near ties: the digit loop
    ring.mod_down(ring.mod_up(x, plan.forward(x)), ring.k)  # q -> P, then P -> q
    ring.scale_down(ring.mod_up(x, plan.forward(x), ring.ext_rows))  # and the other two
    ring.mod_switch(plan.forward(x))
    head = x[:4]  # q' -> P', then P' -> q' (a switched ciphertext's keyswitch)
    ring.mod_down(ring.mod_up(head, plan.forward(head)), 4)
    ring.garner.digits_to_residues(ring.garner.to_digits(x), (ring.t,))  # decryption
    # and every op of the backend, a switched keyswitch included
    he = HeBackend(params)
    sk, pk, ek = he.keygen(seed=0x7A, rotation_steps=(1,))
    a = enc(he, pk, rng.integers(0, 100, ring.n), seed=1)
    prod_ct = he.mul_ct(a, a, ek)
    out = he.rotate(he.mod_switch(he.swap_rows(he.rotate(prod_ct, 1, ek), ek)), 1, ek)
    assert he.noise_budget(sk, out) >= 10


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_lift_table_the_ring_builds_is_read(name, monkeypatch):
    # the ring builds the lift tables its ops read and no others: mul_ct, a
    # rotation at K primes, mod_switch, a fold at k' primes and decrypt read
    # every one; a basis's digit tables are its lifts' targets (for near
    # ties) and, on the tensor basis, t (decryption's, which no op lifts to)
    params = gen_params(name)
    he = HeBackend(params)
    ring = he.ring
    assert ring.out_k < ring.k
    sk, pk, ek = he.keygen(seed=0x7B, rotation_steps=(1, 2))
    a = enc(he, pk, np.arange(params.slot_count) % 7, seed=1)
    lift, read = GarnerBasis.lift, set()

    def recorded(self, residues, target_primes):
        read.add((self, len(residues), tuple(target_primes)))
        return lift(self, residues, target_primes)

    monkeypatch.setattr(GarnerBasis, "lift", recorded)
    switched = he.mod_switch(he.rotate(he.mul_ct(a, a, ek), 1, ek))
    out = he.fold(switched, (1, 2), ek, swap=True)
    assert out.prime_count == ring.out_k
    assert he.decrypt(sk, out).noise_bits >= 10
    bases = {basis for basis, _, _ in ring._conversions.values()}
    assert read == {(basis, *pair) for basis in bases for pair in basis._lifts}
    digit_tables = {(basis, w) for basis in bases for w in basis._tables}
    assert digit_tables == {(basis, w) for basis, _, w in read} | {(ring.garner, (ring.t,))}


def _negacyclic(x, y):
    n = len(x)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if i + j < n:
                out[i + j] += x[i] * y[j]
            else:
                out[i + j - n] -= x[i] * y[j]
    return out


@pytest.mark.parametrize("name", ["test64", "top-primes", "short-q"])
def test_mul_ct_matches_python_int_arithmetic(name, params64, rng):
    # the tensor computed in Python ints, then round(t*d/q) and relinearized
    params = _tensor_case_params(name, params64)
    he = HeBackend(params)
    plan = he.ring.plan_q  # ciphertext parts and keyswitch outputs are in evaluation form
    _, pk, ek = he.keygen(seed=0x70B)
    primes, q = params.coeff_modulus, params.coeff_modulus_product
    t, n = params.plaintext_modulus, params.ring_degree
    q_arr = np.array(primes, dtype=np.uint64).reshape(-1, 1)
    half = (q - 1) // 2  # the largest centred coefficient

    def rns(values):
        return np.array([[v % p for v in values] for p in primes], dtype=np.uint64)

    def ct(parts):
        parts = tuple(plan.forward(rns(vs)) for vs in parts)
        return Ciphertext(params, params.depth_budget, parts)

    def centred(poly):
        poly = plan.inverse(poly)
        vs = [_crt(poly[:, i], primes) for i in range(n)]
        return [v - q if v > q // 2 else v for v in vs]

    top, bottom = [half] * n, [-half] * n
    rand = [[int(v) for v in rng.integers(-(2 ** 62), 2 ** 62, n)] for _ in range(4)]
    # a third of the coefficients at +(q-1)/2, a third at -(q-1)/2, the rest uniform
    mixed = [[(half, -half, v % q - half)[v % 3] for v in r] for r in rand]
    cases = [((top, top), (top, top)), ((top, bottom), (bottom, top)), (mixed[:2], mixed[2:])]
    fresh = [he.encrypt(pk, he.encode(rng.integers(0, t, n)), seed=s) for s in (1, 2)]
    cases.append(tuple(tuple(centred(p) for p in c.parts) for c in fresh))
    for a_vals, b_vals in cases:
        (a0, a1), (b0, b1) = a_vals, b_vals
        cross = [u + v for u, v in zip(_negacyclic(a0, b1), _negacyclic(a1, b0))]
        tensor = (_negacyclic(a0, b0), cross, _negacyclic(a1, b1))
        # q is odd, so round(t*d/q) has no ties
        c0, c1, c2 = (rns([(2 * t * v + q) // (2 * q) for v in d]) for d in tensor)
        lifted, k = he.ring.mod_up(c2, plan.forward(c2)), he.ring.k
        k0, k1 = (plan.inverse(he.ring.mod_down(he.ring.key_product(lifted, part, k), k))
                  for part in ek.relin)
        got = he.mul_ct(ct(a_vals), ct(b_vals), ek)
        assert got.level == params.depth_budget - 1
        assert np.array_equal(plan.inverse(got.parts[0]), (c0 + k0) % q_arr)
        assert np.array_equal(plan.inverse(got.parts[1]), (c1 + k1) % q_arr)


@pytest.mark.parametrize("name", ["test64", "xgb-d2"])
def test_server_ops_convert_no_residues_to_ints(name, params64, monkeypatch):
    # every server op stays in word-sized residues; only decrypt, on the
    # client, builds Python ints, for the exact noise margin.  Each server
    # change of basis is one matrix product: on random residues mul_ct,
    # the keyswitches (mod_up, mod_down) and mod_switch never reach the
    # digit loop, which only a near tie such as +-h takes
    params = _tensor_case_params(name, params64)
    if name == "test64":  # custom outputs keep all K primes: switch to 4 of 6
        params = dataclasses.replace(params, output_primes=4)
    he, clear = HeBackend(params), ClearBackend(params)
    (sk, pk, ek), (csk, cpk, cek) = (be.keygen(seed=0x1D) for be in (he, clear))
    rng = np.random.default_rng(0x1D)
    u, v, w = rng.integers(0, params.plaintext_modulus, (3, params.slot_count))

    def circuit(be, pk, ek):
        a, b = (be.encrypt(pk, be.encode(x), seed=s) for s, x in ((1, u), (2, v)))
        prod_ct = be.mul_ct(a, b, ek)
        moved = be.swap_rows(be.rotate(prod_ct, 1, ek), ek)
        summed = be.sum_slots(be.mul_pt(moved, be.encode(w)), params.slot_count, ek)
        return prod_ct, moved, summed, be.rotate(be.mod_switch(summed), 1, ek)

    to_ints, to_digits = GarnerBasis.digits_to_ints, GarnerBasis.to_digits
    digit_columns = []

    def refuse(self, digits):
        raise AssertionError("a server op converted residues to Python ints")

    def counted_digits(self, residues):
        digit_columns.append(residues.shape[1])
        return to_digits(self, residues)

    monkeypatch.setattr(GarnerBasis, "digits_to_ints", refuse)
    monkeypatch.setattr(GarnerBasis, "to_digits", counted_digits)
    outputs = circuit(he, pk, ek)
    assert digit_columns == []
    # the centred edges +-h of q (lifted by mod_up) and of P (by mod_down)
    ring, plan, k = he.ring, he.ring.plan_q, he.ring.k

    def with_edges(primes):
        h = (prod(primes) - 1) // 2
        x = rng.integers(0, 2**62, (len(primes), ring.n), dtype=np.uint64)
        x %= np.array(primes, dtype=np.uint64).reshape(-1, 1)
        x[:, :2] = [[h % p, -h % p] for p in primes]
        return x

    x = with_edges(ring.q_primes)
    ring.mod_up(x, plan.forward(x))
    ring.mod_down(np.concatenate((plan.forward(x), plan.forward(with_edges(ring.p_primes), k))), k)
    assert digit_columns == [2, 2]
    calls = []

    def counted(self, digits):
        calls.append(len(digits))
        return to_ints(self, digits)

    monkeypatch.setattr(GarnerBasis, "digits_to_ints", counted)
    for got, want in zip(outputs, circuit(clear, cpk, cek)):
        assert np.array_equal(dec(he, sk, got), dec(clear, csk, want))
        assert he.noise_budget(sk, got) >= 10
    # a decrypt and a margin per output, the last at k' primes
    assert calls == [len(params.coeff_modulus)] * 6 + [params.output_primes] * 2


@pytest.mark.parametrize("name", ["test64", "xgb-d2"])
def test_ops_transform_only_to_change_basis(name, params64, monkeypatch):
    # ciphertexts and keys stay in evaluation form: an op transforms only the
    # rows a basis change needs, counted through every NttPlan transform
    params = _tensor_case_params(name, params64)
    if name == "test64":  # custom outputs keep all K primes: switch to 4 of 6
        params = dataclasses.replace(params, output_primes=4)
    he = HeBackend(params)
    ring = he.ring
    k, kl, t = ring.k, len(ring.qp_primes), len(ring.tensor_primes)
    sk, pk, ek = he.keygen(seed=0x12)
    rng = np.random.default_rng(0x12)
    x, y, w = rng.integers(0, params.plaintext_modulus, (3, params.slot_count))
    a, b = enc(he, pk, x, 1), enc(he, pk, y, 2)
    pt = he.encode(w)
    he.add_pt(a, pt)  # the first use caches the plaintext's coefficients and evaluation forms
    he.mul_pt(a, pt)
    rows = []
    for method in ("forward", "inverse"):

        def counted(self, arr, *start, _original=getattr(NttPlan, method)):
            rows.append(len(arr))
            return _original(self, arr, *start)

        monkeypatch.setattr(NttPlan, method, counted)

    def transformed(op, *args):
        rows.clear()
        op(*args)
        return sum(rows)

    for op, args in (
        (he.encode, (w,)), (he.mul_pt, (a, pt)), (he.add_pt, (a, pt)), (he.sub_pt, (a, pt)),
        (he.add_ct, (a, b)), (he.sub_ct, (a, b)), (he.negate, (a,)),
    ):
        assert transformed(op, *args) == 0, op.__name__
    assert transformed(he.rotate, a, 1, ek) == 3 * kl
    assert transformed(he.swap_rows, a, ek) == 3 * kl
    assert transformed(he.mul_ct, a, b, ek) == 7 * t + 3 * kl
    # a chain of s automorphisms keyswitches c1 per step and rounds c0 once,
    # (2s+1)(K+L) rows; the whole-vector sum ends with the row swap, s+1 of them
    n = params.slot_count
    for width in (1 << i for i in range(n.bit_length())):
        s = len(fold_steps(min(width, n // 2))) + (width == n)
        want = (2 * s + 1) * kl if s else 0  # width 1 is the identity
        assert transformed(he.sum_slots, a, width, ek) == want, width
    steps = fold_steps(n // 2)
    assert transformed(lambda: he.fold(a, steps, ek, swap=True)) == (2 * len(steps) + 3) * kl
    # decryption inverts the K rows mod q, decoding transforms the one row mod t
    assert transformed(lambda: he.decode(he.decrypt(sk, a))) == k + 1
    # the switch to k' primes inverts the K - k' dropped rows of each part and
    # forwards the k' it lifts them to: 2((K - k') + k'); then decryption
    # inverts k' rows
    out_k = ring.out_k
    assert out_k < k
    switched = he.mod_switch(a)
    assert transformed(he.mod_switch, a) == 2 * ((k - out_k) + out_k) == 2 * k
    assert transformed(he.mod_switch, switched) == 0
    assert transformed(lambda: he.decode(he.decrypt(sk, switched))) == out_k + 1
    # at k' primes a keyswitch runs mod q'P', P' the shortest prefix of P
    # above q': a rotation or row swap transforms 3(k'+L') rows, a chain of
    # s automorphisms (2s+1)(k'+L')
    out_kl = out_k + ring.special_count(out_k)
    assert ring.special_count(out_k) < len(ring.p_primes)
    assert transformed(he.rotate, switched, 1, ek) == 3 * out_kl
    assert transformed(he.swap_rows, switched, ek) == 3 * out_kl
    assert transformed(lambda: he.fold(switched, steps, ek, swap=True)) == \
        (2 * len(steps) + 3) * out_kl
    # the SVM's fold: its steps >= g (4 here), then the row swap, at k' primes
    from_g = tuple(s for s in steps if s >= 4)
    assert transformed(lambda: he.fold(switched, from_g, ek, swap=True)) == \
        (2 * len(from_g) + 3) * out_kl


@pytest.mark.parametrize("case", [31, 32, 33, "test64-k4", "xgb-d2"])
def test_keyswitch_noise_stays_at_fresh(case, he64, keys64, params64, rng):
    # hybrid keyswitching adds less noise than a fresh encryption holds, so
    # a rotation or row swap leaves the margin within a bit of a fresh one
    if isinstance(case, int):
        sk, pk, ek = keys64
        a = enc(he64, pk, rng.integers(0, 100, 64, dtype=np.int64), seed=case)
        fresh = he64.noise_budget(sk, a)
        for ct in (he64.rotate(a, 1, ek), he64.rotate(a, 16, ek), he64.swap_rows(a, ek)):
            assert abs(he64.noise_budget(sk, ct) - fresh) <= 1
        return
    # at k' primes the keyswitch runs over P', the shortest prefix of P above
    # q' (here shorter than P): a rotation or row swap of a switched
    # ciphertext keeps its margin within a bit
    params = gen_params(case) if case in PRESET_NAMES else \
        dataclasses.replace(params64, output_primes=4)
    he = HeBackend(params)
    assert he.ring.special_count(params.output_primes) < len(he.ring.p_primes)
    steps = fold_steps(min(128, params.slot_count // 2))  # 7 at xgb-d2, the class sum's
    sk, pk, ek = he.keygen(seed=0x5A, rotation_steps=steps)
    a = enc(he, pk, rng.integers(0, 100, params.slot_count, dtype=np.int64), seed=0x5B)
    switched = he.mod_switch(a)
    margin = he.noise_budget(sk, switched)
    assert margin >= 10
    for ct in (he.rotate(switched, 1, ek), he.swap_rows(switched, ek)):
        assert ct.prime_count == params.output_primes
        assert abs(he.noise_budget(sk, ct) - margin) <= 1
    # a fold at k' keeps the margin of fold-then-switch once the circuit's
    # noise, not the switch's rounding (which a fold at k' sums over every
    # rotation), sets the switched margin, as the tree circuit's does:
    # plaintext products raise it that far
    pt = he.encode(rng.integers(0, params.plaintext_modulus, params.slot_count))
    while he.noise_budget(sk, a) > he.noise_budget(sk, he.mod_switch(a)):
        a = he.mul_pt(a, pt)
    at_k = he.noise_budget(sk, he.fold(he.mod_switch(a), steps, ek))
    assert at_k >= 10
    assert abs(at_k - he.noise_budget(sk, he.mod_switch(he.fold(a, steps, ek)))) <= 1


# ---------------------------------------------------------------------------
# rotations and slot sums
# ---------------------------------------------------------------------------


def rotate_rows_reference(v, steps, row):
    return np.roll(np.asarray(v).reshape(2, row), -steps, axis=1).reshape(-1)


def test_rotate_basic_permutation(he64, keys64):
    sk, pk, ek = keys64
    v = np.zeros(64, dtype=np.int64)
    v[:4] = [1, 2, 3, 4]
    a = enc(he64, pk, v, seed=10)
    out = dec(he64, sk, he64.rotate(a, 1, ek))
    assert list(out[:3]) == [2, 3, 4]
    # the 1 wraps to the end of its rotation row
    assert out[31] == 1


def test_rotate_inverse(he64, rng):
    sk, pk, ek = he64.keygen(seed=0x5EED, rotation_steps=(4, -4))
    v = rng.integers(0, 100, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=11)
    back = he64.rotate(he64.rotate(a, 4, ek), -4, ek)
    assert np.array_equal(dec(he64, sk, back), v)


def test_rotate_group_action(he64, keys64, rng):
    sk, pk, ek = keys64
    v = rng.integers(0, 100, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=12)
    two_step = he64.rotate(he64.rotate(a, 1, ek), 1, ek)
    one_jump = he64.rotate(a, 2, ek)
    assert np.array_equal(dec(he64, sk, two_step), dec(he64, sk, one_jump))


def test_rotate_random_vs_permutation_oracle(he64, rng):
    all_steps = (1, 2, 8, 16, -1, -8)
    sk, pk, ek = he64.keygen(seed=0x5EED, rotation_steps=all_steps)
    for i, steps in enumerate(all_steps):
        v = rng.integers(0, 1000, 64, dtype=np.int64)
        a = enc(he64, pk, v, seed=300 + i)
        got = dec(he64, sk, he64.rotate(a, steps, ek))
        assert np.array_equal(got, rotate_rows_reference(v, steps % 32, 32))


def test_rotate_missing_key(he64, keys64):
    sk, pk, ek = keys64
    a = enc(he64, pk, [1], seed=13)
    with pytest.raises(MissingGaloisKeyError):
        he64.rotate(a, 3, ek)  # the default keys hold only the fold steps +1, +2, ..., +16


def test_sum_slots_eight_ones(he64, keys64):
    sk, pk, ek = keys64
    v = np.zeros(64, dtype=np.int64)
    v[:8] = 1
    a = enc(he64, pk, v, seed=14)
    out = dec(he64, sk, he64.sum_slots(a, 8, ek))
    assert out[0] == 8


def test_sum_slots_width_one_is_identity(he64, keys64, rng):
    sk, pk, ek = keys64
    v = rng.integers(0, 100, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=15)
    assert np.array_equal(dec(he64, sk, he64.sum_slots(a, 1, ek)), v)


def test_sum_slots_block_property(he64, keys64, params64, rng):
    sk, pk, ek = keys64
    t = params64.plaintext_modulus
    v = rng.integers(0, 1000, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=16)
    for width in (2, 4, 8, 16, 32):
        out = dec(he64, sk, he64.sum_slots(a, width, ek))
        rows = v.reshape(2, 32)
        for block in range(64 // width):
            row, col = divmod(block * width, 32)
            expect = int(rows[row, col : col + width].sum()) % t
            assert out[block * width] == expect, (width, block)


def test_sum_slots_full_width(he64, keys64, params64, rng):
    sk, pk, ek = keys64
    v = rng.integers(0, 1000, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=17)
    out = dec(he64, sk, he64.sum_slots(a, 64, ek))
    assert (out == int(v.sum()) % params64.plaintext_modulus).all()


@pytest.mark.parametrize("name", ["he", "clear"])
def test_default_keys_are_the_fold_schedule(name, request):
    # keygen runs before the model is known, so the default keys must serve
    # every sum width, and they hold no step sum_slots does not make
    be = request.getfixturevalue(f"{name}64")
    sk, pk, ek = request.getfixturevalue("keys64" if name == "he" else "clear_keys64")
    assert set(ek.galois) == {1, 2, 4, 8, 16}
    assert ek.row_swap
    v = np.arange(1, 65, dtype=np.int64)
    a = enc(be, pk, v, seed=19)
    rows = v.reshape(2, 32)
    for width in (1, 2, 4, 8, 16, 32):
        expect = sum(np.roll(rows, -j, axis=1) for j in range(width)).reshape(-1)
        assert np.array_equal(dec(be, sk, be.sum_slots(a, width, ek)), expect), width
    assert (dec(be, sk, be.sum_slots(a, 64, ek)) == v.sum()).all()
    with pytest.raises(MissingGaloisKeyError):
        be.rotate(a, -1, ek)


@pytest.mark.parametrize("name", ["test64", "xgb-d2", "svm-d1", "xgb-encmodel-d3"])
def test_fold_rounds_c0_once_and_matches_the_plain_chain(name, params64):
    # the fused chain keyswitches c1 exactly as rotate does, so c1 is the
    # plain chain's bytes; c0 is rounded once, so the slots are equal and the
    # margin is not lower.  svm-d1 folds its rows from step 16, as the SVM does,
    # and ends with the row swap as it does when d > N/2
    params = _tensor_case_params(name, params64)
    he = HeBackend(params)
    sk, pk, ek = he.keygen(seed=0xF0)
    row = params.rotation_group_size
    v = np.random.default_rng(0xF0).integers(0, params.plaintext_modulus, params.slot_count)
    a = enc(he, pk, v, seed=3)
    from_16 = tuple(s for s in fold_steps(row) if s >= 16)
    for steps, swap in ((fold_steps(row), False), ((1, row, 2), False), (from_16, False),
                        (from_16, True)):
        got, want = he.fold(a, steps, ek, swap), Backend.fold(he, a, steps, ek, swap)
        assert got.level == want.level == a.level
        assert np.array_equal(got.parts[1], want.parts[1]), (steps, swap)
        assert np.array_equal(dec(he, sk, got), dec(he, sk, want)), (steps, swap)
        assert he.noise_budget(sk, got) >= he.noise_budget(sk, want), (steps, swap)
    assert he.fold(a, (), ek) is a


@pytest.mark.parametrize("name", ["test64", "xgb-d2"])
def test_fold_at_output_primes_matches_the_switched_fold(name, params64):
    # switching a product before the fold leaves every slot as switching
    # after it does, with 10 bits of margin or more: plain steps with a step
    # of 0 mod N/2 (a doubling), and the whole-vector sum with its row swap
    params = _tensor_case_params(name, params64)
    if name == "test64":  # custom outputs keep all K primes: switch to 4 of 6
        params = dataclasses.replace(params, output_primes=4)
    he = HeBackend(params)
    sk, pk, ek = he.keygen(seed=0x5F)
    row, n = params.rotation_group_size, params.slot_count
    rng = np.random.default_rng(0x5F)
    a = enc(he, pk, rng.integers(0, params.plaintext_modulus, n), seed=1)
    b = enc(he, pk, rng.integers(0, 2, n), seed=2)
    ct = he.mul_ct(a, b, ek)
    assert params.output_primes < len(params.coeff_modulus)
    for op in (lambda c: he.fold(c, (1, row, 2), ek), lambda c: he.sum_slots(c, n, ek)):
        early, late = op(he.mod_switch(ct)), he.mod_switch(op(ct))
        assert early.prime_count == late.prime_count == params.output_primes
        assert np.array_equal(dec(he, sk, early), dec(he, sk, late))
        assert he.noise_budget(sk, early) >= 10


@pytest.mark.parametrize("name", ["test64", "svm-d1"])
def test_fold_ending_in_the_row_swap_at_output_primes_matches_the_mirror(name, params64):
    # the SVM's fold runs after the output switch: its steps >= g, then the
    # row swap that adds the two rows, one chain mod q'P'; every slot equals
    # the mirror's plain chain, with 10 bits of margin or more
    params = _tensor_case_params(name, params64)
    if name == "test64":  # custom outputs keep all K primes: switch to 4 of 6
        params = dataclasses.replace(params, output_primes=4)
    he, clear = HeBackend(params), ClearBackend(params)
    (sk, pk, ek), (csk, cpk, cek) = he.keygen(seed=0x5A), clear.keygen(seed=0x5A)
    row, n = params.rotation_group_size, params.slot_count
    v = np.random.default_rng(0x5A).integers(0, params.plaintext_modulus, n)
    w = he.encode(np.random.default_rng(0x5B).integers(-1, 2, n))
    assert params.output_primes < len(params.coeff_modulus)
    for g in (2, 16, row):
        steps = tuple(s for s in fold_steps(row) if s >= g)
        got = he.fold(he.mod_switch(he.mul_pt(enc(he, pk, v, seed=g), w)), steps, ek, swap=True)
        want = clear.fold(clear.mod_switch(clear.mul_pt(enc(clear, cpk, v, None), w)), steps, cek,
                          swap=True)
        assert got.prime_count == want.prime_count == params.output_primes
        assert np.array_equal(dec(he, sk, got), dec(clear, csk, want)), g
        assert he.noise_budget(sk, got) >= 10, g


@pytest.mark.parametrize("name", ["he", "clear"])
def test_fold_missing_key_mid_chain(name, request, monkeypatch):
    be = request.getfixturevalue(f"{name}64")
    _, pk, ek = be.keygen(seed=0x5EED, rotation_steps=(1, 4))
    a = enc(be, pk, [1, 2, 3], seed=20)
    be.fold(a, (1, 4, 32), ek, swap=True)  # 32 = 0 mod N/2 doubles and needs no key
    if name == "he":  # the HE chain checks every key before its first keyswitch

        def keyswitch(*args):
            raise AssertionError("keyswitched before every key was checked")

        monkeypatch.setattr(RingContext, "mod_up", keyswitch)
    with pytest.raises(MissingGaloisKeyError):
        be.fold(a, (1, 2, 4), ek)
    with pytest.raises(MissingGaloisKeyError):
        be.fold(a, (1, 4), dataclasses.replace(ek, row_swap=None), swap=True)


def test_sum_slots_rejects_bad_width(he64, keys64):
    _, pk, ek = keys64
    a = enc(he64, pk, [1], seed=18)
    with pytest.raises(ParamError):
        he64.sum_slots(a, 3, ek)
    with pytest.raises(ParamError):
        he64.sum_slots(a, 128, ek)


def test_swap_rows(he64, keys64, rng):
    sk, pk, ek = keys64
    v = rng.integers(0, 100, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=19)
    out = dec(he64, sk, he64.swap_rows(a, ek))
    assert np.array_equal(out, v.reshape(2, 32)[::-1].reshape(-1))


# ---------------------------------------------------------------------------
# levels, noise, fingerprints
# ---------------------------------------------------------------------------


def test_level_bookkeeping_and_exhaustion(he64, keys64):
    sk, pk, ek = keys64
    a = enc(he64, pk, [2], seed=20)
    b = enc(he64, pk, [3], seed=21)
    m1 = he64.mul_ct(a, b, ek)
    assert m1.level == a.level - 1
    mixed = he64.add_ct(m1, a)  # fresher operand drops to the staler level
    assert mixed.level == m1.level
    m2 = he64.mul_ct(m1, a, ek)
    assert m2.level == 0
    with pytest.raises(DepthExhaustedError):
        he64.mul_ct(m2, a, ek)


@pytest.fixture(scope="module")
def switch64():
    """params64's shape with outputs switched to 5 of its 6 primes."""
    he = HeBackend(dataclasses.replace(make_test_params(64), output_primes=5))
    clear = ClearBackend(he.params)
    return (he, he.keygen(seed=0x5C)), (clear, clear.keygen(seed=0x5C))


def test_mod_switch_keeps_slots_and_margin(switch64, rng):
    # a switched ciphertext decrypts to the slots the clear mirror keeps, and
    # where q' holds the noise (products; a fresh ciphertext's noise is
    # smaller than the switch's rounding) its margin stays within a bit
    (he, (sk, pk, ek)), (clear, (csk, cpk, cek)) = switch64
    t, n = he.params.plaintext_modulus, he.params.slot_count
    for i in range(5):
        u, v, w = rng.integers(0, t, n), rng.integers(0, 2, n), rng.integers(0, t, n)

        def circuit(be, pk, ek):
            a, b = (be.encrypt(pk, be.encode(x), seed=10 * i + j) for j, x in ((1, u), (2, v)))
            prod_ct = be.mul_ct(a, b, ek)
            return (prod_ct, be.sum_slots(be.mul_pt(prod_ct, be.encode(w)), 8, ek),
                    be.mul_ct(prod_ct, b, ek))

        for got, want in zip(circuit(he, pk, ek), circuit(clear, cpk, cek)):
            switched = he.mod_switch(got)
            assert switched.prime_count == 5 and switched.level == got.level
            assert np.array_equal(dec(he, sk, switched), dec(clear, csk, clear.mod_switch(want)))
            assert abs(he.noise_budget(sk, switched) - he.noise_budget(sk, got)) <= 1
            assert he.decrypt(sk, switched).noise_bits == he.noise_budget(sk, switched)


def test_switched_ciphertext_only_decrypts(switch64):
    # a ciphertext at k' primes adds, subtracts, rotates, swaps rows, folds
    # and decrypts on both backends; the multiplies, the plaintext ops and
    # negate refuse it, as does any op given two prime counts, with a
    # HedgerowError, never a numpy broadcast error
    v = np.arange(1, 65, dtype=np.int64)
    rows = v.reshape(2, 32)
    want = {
        "add_ct": 2 * v, "sub_ct": 0 * v, "rotate0": v,
        "rotate": np.roll(rows, -1, axis=1).reshape(-1), "swap_rows": rows[::-1].reshape(-1),
        "fold": sum(np.roll(rows, -i, axis=1) for i in range(4)).reshape(-1),
    }
    for be, (sk, pk, ek) in switch64:
        a = enc(be, pk, v, seed=1)
        s = be.mod_switch(a)
        assert s.prime_count == 5 and a.prime_count == 6
        pt = be.encode([3])
        for op, args in (
            ("add_ct", (s, a)), ("add_ct", (a, s)), ("sub_ct", (s, a)), ("negate", (s,)),
            ("add_pt", (s, pt)), ("sub_pt", (s, pt)), ("mul_pt", (s, pt)), ("mul_ct", (a, s, ek)),
            ("mul_ct", (s, s, ek)),
        ):
            with pytest.raises(HedgerowError, match="primes of q"):
                getattr(be, op)(*args)
        got = {
            "add_ct": be.add_ct(s, s), "sub_ct": be.sub_ct(s, s), "rotate0": be.rotate(s, 0, ek),
            "rotate": be.rotate(s, 1, ek), "swap_rows": be.swap_rows(s, ek),
            "fold": be.fold(s, (1, 2), ek), "sum_slots": be.sum_slots(s, 4, ek),
        }
        want["sum_slots"] = want["fold"]
        for op, ct in got.items():
            assert ct.prime_count == 5, op
            assert np.array_equal(dec(be, sk, ct), want[op] % be.params.plaintext_modulus), op
            assert be.noise_budget(sk, ct) > 10, op
        assert be.mod_switch(s) is s
        # a ciphertext between k' and K primes is not one the switch makes
        odd = (dataclasses.replace(a, parts=tuple(p[:4] for p in a.parts))
               if isinstance(a, Ciphertext) else dataclasses.replace(a, prime_count=4))
        with pytest.raises(ParamError):
            be.mod_switch(odd)


def test_ciphertext_shape_is_checked(params64):
    k, n = len(params64.coeff_modulus), params64.ring_degree
    rows = {r: np.zeros((r, n), dtype=np.uint64) for r in (0, 1, k - 1, k, k + 1)}
    for c0, c1 in ((rows[0], rows[0]), (rows[k + 1], rows[k + 1]), (rows[k], rows[k - 1])):
        with pytest.raises(ParamError):
            Ciphertext(params64, 0, (c0, c1))
    assert Ciphertext(params64, 0, (rows[1], rows[1])).prime_count == 1
    with pytest.raises(ParamError):  # a seeded ciphertext always holds K rows
        Ciphertext(params64, 0, (rows[k - 1], rows[k - 1]), bytes(32))


def test_mul_pt_allowed_at_level_zero(he64, keys64):
    sk, pk, ek = keys64
    a = enc(he64, pk, [2], seed=22)
    b = enc(he64, pk, [3], seed=23)
    exhausted = he64.mul_ct(he64.mul_ct(a, b, ek), a, ek)
    assert exhausted.level == 0
    he64.mul_pt(exhausted, he64.encode([1]))  # must not raise


@pytest.mark.parametrize("name", ["test64", "xgb-d2"])
def test_decrypt_reads_noise_extremes_like_big_ints(name, params64):
    # decryption builds Python ints for the two extreme noise coefficients
    # only; its margin and slots equal the all-big-int reference, with
    # coefficients of w at 0, +-1 and +-(q-1)/2
    params = _tensor_case_params(name, params64)
    he = HeBackend(params)
    sk, _, _ = he.keygen(seed=0xDEC)
    ring, n = he.ring, params.ring_degree
    q, t, half = ring.q, ring.t, (ring.q - 1) // 2
    rng = np.random.default_rng(0xDEC)
    small = [int(x) for x in rng.integers(-1, 2, n)]
    wide = [int(x) << 20 for x in rng.integers(-(1 << 40), 1 << 40, n)]
    cases = [[0] * n, small, [1] * n, [-1] * n,
             [half] + small[1:], small[:-1] + [-half], [-half] + [half] * (n - 1),
             wide, wide[:5] + [-(1 << 70)] + wide[6:], wide[:5] + [1 << 70] + wide[6:]]
    t_inv = pow(t, -1, q)
    for w in cases:
        # a ciphertext (c0, 0) whose phase x has t*x = w mod q
        x = [v * t_inv % q for v in w]
        c0 = ring.plan_q.forward(np.array([[v % p for v in x] for p in ring.q_primes], dtype=np.uint64))
        ct = Ciphertext(params, 0, (c0, np.zeros_like(c0)))
        max_w = max(abs(v) for v in w)
        bits = max(0, (q // 2 if max_w == 0 else q // (2 * max_w)).bit_length() - 1)
        assert he.noise_budget(sk, ct) == bits
        if bits == 0:
            with pytest.raises(NoiseBudgetError):
                he.decrypt(sk, ct)
            continue
        r = np.array([[-v * pow(q, -1, t) % t for v in w]], dtype=np.uint64)
        want = ring.plan_t.forward(r)[0][ring.slot_to_eval]
        assert np.array_equal(he.decode(he.decrypt(sk, ct)), want)


def test_noise_budget_positive_and_monotone(he64, keys64, rng):
    sk, pk, ek = keys64
    v = rng.integers(0, 100, 64, dtype=np.int64)
    a = enc(he64, pk, v, seed=24)
    b = enc(he64, pk, v, seed=25)
    budgets = [he64.noise_budget(sk, a)]
    ct = he64.mul_pt(a, he64.encode(v))
    budgets.append(he64.noise_budget(sk, ct))
    ct = he64.add_ct(ct, b)
    budgets.append(he64.noise_budget(sk, ct))
    ct = he64.rotate(ct, 1, ek)
    budgets.append(he64.noise_budget(sk, ct))
    ct = he64.mul_ct(ct, b, ek)
    budgets.append(he64.noise_budget(sk, ct))
    assert budgets[0] > 0
    assert all(x >= y for x, y in zip(budgets, budgets[1:])), budgets


def test_fingerprint_mismatch_rejected(he64, keys64):
    sk, pk, _ = keys64
    other = make_test_params(64, num_primes=5, depth_budget=1)
    other_be = HeBackend(other)
    osk, opk, _ = other_be.keygen(seed=1)
    a = enc(he64, pk, [1], seed=26)
    b = enc(other_be, opk, [1], seed=26)
    with pytest.raises(FingerprintMismatchError):
        he64.add_ct(a, b)
    with pytest.raises(FingerprintMismatchError):
        he64.decrypt(osk, a)


# ---------------------------------------------------------------------------
# clear mirror equivalence
# ---------------------------------------------------------------------------


MIRROR_ROTATIONS = (1, 2, 4, 8, 16, -1, -2, -4)


def _mirror_case(op_name, he, clear, he_keys, clear_keys, t, rng, seed):
    sk, pk, ek = he_keys
    csk, cpk, cek = clear_keys
    u = rng.integers(0, t, 64, dtype=np.int64)
    v = rng.integers(0, t, 64, dtype=np.int64)
    a, ca = enc(he, pk, u, seed), clear.encrypt(cpk, clear.encode(u), seed)
    b, cb = enc(he, pk, v, seed + 1), clear.encrypt(cpk, clear.encode(v), seed + 1)
    p, cp = he.encode(v), clear.encode(v)
    if op_name == "add_ct":
        got, ref = he.add_ct(a, b), clear.add_ct(ca, cb)
    elif op_name == "sub_ct":
        got, ref = he.sub_ct(a, b), clear.sub_ct(ca, cb)
    elif op_name == "add_pt":
        got, ref = he.add_pt(a, p), clear.add_pt(ca, cp)
    elif op_name == "sub_pt":
        got, ref = he.sub_pt(a, p), clear.sub_pt(ca, cp)
    elif op_name == "negate":
        got, ref = he.negate(a), clear.negate(ca)
    elif op_name == "mul_pt":
        got, ref = he.mul_pt(a, p), clear.mul_pt(ca, cp)
    elif op_name == "mul_ct":
        got, ref = he.mul_ct(a, b, ek), clear.mul_ct(ca, cb, cek)
    elif op_name == "rotate":
        steps = int(rng.choice(MIRROR_ROTATIONS))
        got, ref = he.rotate(a, steps, ek), clear.rotate(ca, steps, cek)
    elif op_name == "sum_slots":
        width = int(rng.choice([2, 4, 8, 16, 32, 64]))
        got, ref = he.sum_slots(a, width, ek), clear.sum_slots(ca, width, cek)
    else:
        raise AssertionError(op_name)
    assert np.array_equal(he.decode(he.decrypt(sk, got)), clear.decode(clear.decrypt(csk, ref)))
    assert got.level == ref.level


@pytest.mark.parametrize(
    "op_name",
    ["add_ct", "sub_ct", "add_pt", "sub_pt", "negate", "mul_pt", "mul_ct", "rotate", "sum_slots"],
)
def test_clear_mirror_random_cases(op_name, he64, clear64, keys64, clear_keys64, params64, rng):
    t = params64.plaintext_modulus
    if op_name == "rotate":  # right rotations need keys beyond the default fold steps
        keys64, clear_keys64 = (
            be.keygen(seed=0x5EED, rotation_steps=MIRROR_ROTATIONS) for be in (he64, clear64)
        )
    for i in range(25):
        _mirror_case(op_name, he64, clear64, keys64, clear_keys64, t, rng, seed=1000 + 31 * i)


def test_clear_mirror_levels_and_errors(clear64, clear_keys64):
    csk, cpk, cek = clear_keys64
    a = clear64.encrypt(cpk, clear64.encode([1]), seed=None)
    b = clear64.encrypt(cpk, clear64.encode([2]), seed=None)
    m = clear64.mul_ct(clear64.mul_ct(a, b, cek), a, cek)
    assert m.level == 0
    with pytest.raises(DepthExhaustedError):
        clear64.mul_ct(m, a, cek)
    with pytest.raises(MissingGaloisKeyError):
        clear64.rotate(a, 3, cek)


@pytest.mark.parametrize("name", ["he", "clear"])
def test_backends_share_one_contract(name, request):
    # both backends must refuse the same misuse with the same error class,
    # or a circuit proven on the mirror could fail differently when encrypted
    be = request.getfixturevalue(f"{name}64")
    sk, pk, ek = request.getfixturevalue("keys64" if name == "he" else "clear_keys64")
    # same shapes as params64, so only the fingerprint check can refuse
    other = type(be)(make_test_params(64, num_primes=6, depth_budget=1))
    osk, opk, oek = other.keygen(seed=1, rotation_steps=())
    a = enc(be, pk, [1, 2], seed=1)
    own = {"ct": a, "pt": be.encode([1]), "pk": pk, "sk": sk, "ek": ek}
    foreign = {
        "ct": enc(other, opk, [1, 2], seed=1), "pt": other.encode([1]),
        "pk": opk, "sk": osk, "ek": oek,
    }
    for op, *signature in (
        ("add_ct", "ct", "ct"), ("sub_ct", "ct", "ct"), ("negate", "ct"),
        ("add_pt", "ct", "pt"), ("sub_pt", "ct", "pt"), ("mul_pt", "ct", "pt"),
        ("mul_ct", "ct", "ct", "ek"), ("rotate", "ct", 0, "ek"), ("rotate", "ct", 1, "ek"),
        ("swap_rows", "ct", "ek"), ("sum_slots", "ct", 2, "ek"),
        ("encrypt", "pk", "pt", 2), ("decrypt", "sk", "ct"), ("noise_budget", "sk", "ct"),
    ):
        for i, kind in enumerate(signature):
            if kind not in foreign:
                continue
            args = [foreign[k] if j == i else own.get(k, k) for j, k in enumerate(signature)]
            with pytest.raises(FingerprintMismatchError):
                getattr(be, op)(*args)
    for bad in (np.zeros((2, 2), dtype=np.int64), np.zeros(65, dtype=np.int64)):
        with pytest.raises(ParamError):
            be.encode(bad)
    exhausted = be.mul_ct(be.mul_ct(a, a, ek), a, ek)
    assert exhausted.level == 0
    with pytest.raises(DepthExhaustedError):
        be.mul_ct(exhausted, a, ek)
    bare = dataclasses.replace(
        ek, galois=type(ek.galois)(), row_swap=None if name == "he" else False
    )
    assert be.rotate(a, 0, bare) is a
    with pytest.raises(MissingGaloisKeyError):
        be.rotate(a, 1, bare)
    with pytest.raises(MissingGaloisKeyError):
        be.swap_rows(a, bare)
