"""Parameter presets, validation, and the params text file."""

import dataclasses
import math
from math import prod

import pytest

from hedgerow import HeParams, ParamError, gen_params, load_params, make_test_params, save_params
from hedgerow.ntt import find_ntt_primes, is_prime
from hedgerow.params import PRESET_NAMES, security_bits
from hedgerow.ring import special_primes


@pytest.mark.parametrize(
    "preset,depth", [("svm-d1", 1), ("xgb-d2", 2), ("xgb-encmodel-d3", 3)]
)
def test_preset_depth_budgets(preset, depth):
    params = gen_params(preset)
    assert params.depth_budget == depth
    assert params.preset_name == preset
    assert params.slot_count == params.ring_degree


def test_unknown_preset_rejected():
    with pytest.raises(ParamError):
        gen_params("xgb-d9")


def test_preset_modulus_structure():
    params = gen_params("xgb-d2")
    two_n = 2 * params.ring_degree
    assert params.ring_degree & (params.ring_degree - 1) == 0
    for q in params.coeff_modulus:
        assert is_prime(q)
        assert (q - 1) % two_n == 0
    t = params.plaintext_modulus
    assert is_prime(t)
    assert (t - 1) % two_n == 0
    assert 2**30 < t < 2**31
    assert all(q != t for q in params.coeff_modulus)
    for preset in PRESET_NAMES:  # t is the largest 31-bit prime = 1 mod 2N
        p = gen_params(preset)
        assert p.plaintext_modulus == find_ntt_primes(31, 1, 2 * p.ring_degree)[0]


def test_svm_preset_row_fits_default_features():
    params = gen_params("svm-d1")
    assert params.rotation_group_size >= 2048


def test_params_validation_errors():
    good = make_test_params(64, num_primes=3, depth_budget=1)
    with pytest.raises(ParamError):
        HeParams(48, good.coeff_modulus, good.plaintext_modulus, 1)  # not a power of two
    with pytest.raises(ParamError):
        HeParams(64, (15,), good.plaintext_modulus, 1)  # composite modulus
    with pytest.raises(ParamError):
        HeParams(64, good.coeff_modulus, 97, 1)  # t not 1 mod 2N
    with pytest.raises(ParamError):
        HeParams(64, good.coeff_modulus, find_ntt_primes(41, 1, 128)[0], 1)  # t above 31 bits
    with pytest.raises(ParamError):
        HeParams(64, good.coeff_modulus, good.plaintext_modulus, 0)  # depth < 1
    HeParams(64, good.coeff_modulus, good.plaintext_modulus, 3)  # one level per prime
    for depth in (4, 10**23):  # more levels than primes
        with pytest.raises(ParamError):
            HeParams(64, good.coeff_modulus, good.plaintext_modulus, depth)
    with pytest.raises(ParamError):
        HeParams(
            64,
            good.coeff_modulus + (good.coeff_modulus[0],),
            good.plaintext_modulus,
            1,
        )  # duplicate primes


def test_output_primes(tmp_path):
    # k' per preset; custom params keep all K primes; 1 <= k' <= K
    assert {name: gen_params(name).output_primes for name in PRESET_NAMES} == {
        "svm-d1": 4, "xgb-d2": 6, "xgb-encmodel-d3": 7}
    good = make_test_params(64, num_primes=3, depth_budget=1)
    assert good.output_primes == 3
    assert HeParams(64, good.coeff_modulus, good.plaintext_modulus, 1, output_primes=1)
    for bad in (0, 4, -1):
        with pytest.raises(ParamError):
            HeParams(64, good.coeff_modulus, good.plaintext_modulus, 1, output_primes=bad)
    switched = dataclasses.replace(good, output_primes=2)
    assert switched.fingerprint != good.fingerprint
    save_params(switched, tmp_path / "params.txt")
    assert "output_primes=2\n" in (tmp_path / "params.txt").read_text()
    assert load_params(tmp_path / "params.txt") == switched
    # a params file without the line keeps all K primes
    text = good.canonical_text().replace("output_primes=3\n", "")
    (tmp_path / "bare.txt").write_text(text)
    assert load_params(tmp_path / "bare.txt") == good


def test_params_file_roundtrip(tmp_path):
    params = make_test_params(128, num_primes=4, depth_budget=2)
    path = tmp_path / "params.txt"
    save_params(params, path)
    text = path.read_text()
    assert text.startswith("N=128\n")
    assert "primes=" in text and "t=" in text and "preset=" in text
    again = load_params(path)
    assert again == params
    assert again.fingerprint == params.fingerprint


def test_params_file_missing_key(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("N=64\nt=12289\n")
    with pytest.raises(ParamError):
        load_params(path)


def test_fingerprint_distinguishes_params():
    a = make_test_params(64, num_primes=3, depth_budget=1)
    b = make_test_params(64, num_primes=4, depth_budget=1)
    assert a.fingerprint != b.fingerprint
    assert len(a.fingerprint) == 32


@pytest.mark.parametrize("preset", ["svm-d1", "xgb-d2", "xgb-encmodel-d3"])
def test_presets_support_declared_depth_with_margin(preset):
    # chain depth_budget ciphertext products and demand >= 10 bits of margin
    import numpy as np

    from hedgerow import HeBackend

    params = gen_params(preset)
    be = HeBackend(params)
    sk, pk, ek = be.keygen(seed=77)
    rng = np.random.default_rng(0)
    t = params.plaintext_modulus
    ct = be.encrypt(pk, be.encode(rng.integers(0, t, params.slot_count, dtype=np.int64)), seed=1)
    other = be.encrypt(pk, be.encode(rng.integers(0, 2, params.slot_count, dtype=np.int64)), seed=2)
    for _ in range(params.depth_budget):
        ct = be.mul_ct(ct, other, ek)
    assert ct.level == 0
    # measured as the client reads it, after the switch to the output primes
    switched = be.mod_switch(ct)
    assert switched.prime_count == params.output_primes
    assert be.noise_budget(sk, switched) >= 10


def test_keygen_with_restricted_rotation_steps():
    from hedgerow import HeBackend, MissingGaloisKeyError

    params = make_test_params(64, num_primes=5, depth_budget=1)
    be = HeBackend(params)
    sk, pk, ek = be.keygen(seed=5, rotation_steps=(1, 2))
    assert set(ek.galois) == {1, 2}
    ct = be.encrypt(pk, be.encode([1, 2, 3]), seed=1)
    be.rotate(ct, 1, ek)
    with pytest.raises(MissingGaloisKeyError):
        be.rotate(ct, 4, ek)


# The HE Standard's 128-bit classical rows (Albrecht et al. 2018, ternary
# secret, sigma ~ 3.2): ring degree -> largest log2 q
HE_STANDARD_128 = {1024: 27, 2048: 54, 4096: 109, 8192: 218, 16384: 438}


@pytest.mark.parametrize("n", sorted(HE_STANDARD_128))
def test_security_estimate_reproduces_the_he_standard(n):
    # primal uSVP under the lwe-estimator's BKZ-sieve cost model,
    # 0.292 beta + 16.4 + log2(8d), the model the standard's table used
    assert abs(security_bits(n, HE_STANDARD_128[n]) - 128) <= 4


def test_security_estimate_is_monotone():
    for n in (1024, 2048, 4096):
        levels = [security_bits(n, log_q) for log_q in (20, 27, 40, 54, 80, 109, 200, 600)]
        assert levels == sorted(levels, reverse=True), n  # a larger q is weaker
    for log_q in (27, 54, 109, 300):
        levels = [security_bits(n, log_q) for n in (1024, 2048, 4096, 8192)]
        assert levels == sorted(levels), log_q  # a larger ring is stronger


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_preset_states_its_security_level(preset):
    # the keys are published mod qP, the largest modulus any key lives under
    params = gen_params(preset)
    log_qp = math.log2(params.coeff_modulus_product * prod(special_primes(params)))
    level = params.security_bits()
    assert level == security_bits(params.ring_degree, log_qp)
    assert 0 < level < 128  # sized for the margin, not for security: far below 128
    assert level < security_bits(params.ring_degree, math.log2(params.coeff_modulus_product))
