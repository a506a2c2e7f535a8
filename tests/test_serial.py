"""Container format: byte-exact roundtrips and decode-error paths."""

import dataclasses

import numpy as np
import pytest

from hedgerow import FingerprintMismatchError, SerializationError, make_test_params
from hedgerow.scheme import HeBackend
from hedgerow import serial
from hedgerow.params import PRESET_NAMES, gen_params
from hedgerow.ring import get_ring


@pytest.fixture(scope="module")
def setup(params64):
    be = HeBackend(params64)
    sk, pk, ek = be.keygen(seed=777)
    pt = be.encode([3, 1, 4, 1, 5])
    ct = be.encrypt(pk, pt, seed=9)
    return be, sk, pk, ek, pt, ct


@pytest.fixture(scope="module")
def seeded(setup):
    """The setup's plaintext encrypted under the secret key."""
    be, sk, _, _, pt, _ = setup
    return be.encrypt(sk, pt, seed=9)


def test_ciphertext_roundtrip_and_decrypt(setup, params64):
    be, sk, _, _, pt, ct = setup
    blob = serial.serialize_ciphertext(ct)
    again = serial.deserialize_ciphertext(blob, params64)
    assert serial.serialize_ciphertext(again) == blob
    assert again.level == ct.level
    assert np.array_equal(be.decode(be.decrypt(sk, again)), be.decode(be.decrypt(sk, ct)))


def test_secret_key_roundtrip(setup, params64):
    _, sk, *_ = setup
    blob = serial.serialize_secret_key(sk)
    again = serial.deserialize_secret_key(blob, params64)
    assert serial.serialize_secret_key(again) == blob


def test_public_key_roundtrip_usable(setup, params64):
    be, sk, pk, *_ = setup
    blob = serial.serialize_public_key(pk)
    again = serial.deserialize_public_key(blob, params64)
    assert serial.serialize_public_key(again) == blob
    ct = be.encrypt(again, be.encode([8, 9]), seed=4)
    out = be.decode(be.decrypt(sk, ct))
    assert out[0] == 8 and out[1] == 9


def test_eval_keys_roundtrip_usable(setup, params64):
    be, sk, pk, ek, *_ = setup
    blob = serial.serialize_eval_keys(ek)
    again = serial.deserialize_eval_keys(blob, params64)
    assert serial.serialize_eval_keys(again) == blob
    a = be.encrypt(pk, be.encode([1, 2, 3]), seed=5)
    b = be.encrypt(pk, be.encode([2, 2, 2]), seed=6)
    out = be.decode(be.decrypt(sk, be.mul_ct(a, b, again)))
    assert list(out[:3]) == [2, 4, 6]
    rot = be.decode(be.decrypt(sk, be.rotate(a, 1, again)))
    assert rot[0] == 2


def test_truncated_stream_raises(setup, params64):
    *_, ct = setup
    blob = serial.serialize_ciphertext(ct)
    for cut in (0, 10, 37, 40, len(blob) - 8, len(blob) - 1):
        with pytest.raises(SerializationError):
            serial.deserialize_ciphertext(blob[:cut], params64)


def test_trailing_garbage_raises(setup, params64):
    *_, ct = setup
    blob = serial.serialize_ciphertext(ct) + b"\x00" * 8
    with pytest.raises(SerializationError):
        serial.deserialize_ciphertext(blob, params64)


def test_bad_magic_and_version(setup, params64):
    *_, ct = setup
    blob = bytearray(serial.serialize_ciphertext(ct))
    wrong_magic = b"NOPE" + bytes(blob[4:])
    with pytest.raises(SerializationError):
        serial.deserialize_ciphertext(wrong_magic, params64)
    for version in (99, 3, 4):  # 3 held coefficient-form limbs, 4 a part count
        blob[4] = version
        with pytest.raises(SerializationError):
            serial.deserialize_ciphertext(bytes(blob), params64)


def test_wrong_type_tag_raises(setup, params64):
    _, _, pk, *_ = setup
    blob = serial.serialize_public_key(pk)
    with pytest.raises(SerializationError):
        serial.deserialize_ciphertext(blob, params64)


def test_fingerprint_mismatch_raises(setup):
    *_, ct = setup
    other = make_test_params(64, num_primes=5, depth_budget=1)
    blob = serial.serialize_ciphertext(ct)
    with pytest.raises(FingerprintMismatchError):
        serial.deserialize_ciphertext(blob, other)


def test_limb_above_its_prime_raises(setup, params64):
    *_, ct = setup
    blob = bytearray(serial.serialize_ciphertext(ct))
    blob[-4:] = (2**32 - 1).to_bytes(4, "little")  # 29-bit primes
    with pytest.raises(SerializationError):
        serial.deserialize_ciphertext(bytes(blob), params64)


def test_level_above_depth_budget_raises(setup, params64):
    *_, ct = setup
    blob = bytearray(serial.serialize_ciphertext(ct))
    blob[38:46] = (99).to_bytes(8, "little")  # the level, right after the header
    with pytest.raises(SerializationError):
        serial.deserialize_ciphertext(bytes(blob), params64)


def test_three_part_ciphertext_raises(setup, params64):
    *_, ct = setup
    blob = serial.serialize_ciphertext(ct)
    blob += blob[-serial.LIMB_BYTES * ct.parts[1].size:]  # a third part, limbs in range
    with pytest.raises(SerializationError):
        serial.deserialize_ciphertext(blob, params64)


@pytest.mark.parametrize(
    "entry, value",
    [(0, 0), (1, 1), (2, 1), (4, 32), ("swap", 2)],
    ids=["step-zero", "step-duplicate", "step-decreasing", "step-row-size", "swap-flag-2"],
)
def test_bad_galois_entry_raises(setup, params64, entry, value):
    *_, ek, _, _ = setup
    blob = serial.serialize_eval_keys(ek)
    # header (38) and G; step i at 46 + 8i, the flag after the G steps
    offset = 46 + 8 * (len(ek.galois) if entry == "swap" else entry)
    expected = 1 if entry == "swap" else sorted(ek.galois)[entry]  # steps 1..16; N/2 = 32
    assert int.from_bytes(blob[offset:offset + 8], "little") == expected
    bad = blob[:offset] + value.to_bytes(8, "little") + blob[offset + 8:]
    with pytest.raises(SerializationError):
        serial.deserialize_eval_keys(bad, params64)


def test_eval_key_length_formula(setup, params64):
    *_, ek, _, _ = setup
    ring = get_ring(params64)
    g, swap = len(ek.galois), ek.row_swap is not None
    key_bytes = 2 * (ring.k + len(ring.p_primes)) * ring.n * 4
    expected = 38 + 8 * (2 + g) + (1 + g + swap) * key_bytes
    assert len(serial.serialize_eval_keys(ek)) == expected
    no_swap = type(ek)(params64, ek.relin, {}, None)
    assert len(serial.serialize_eval_keys(no_swap)) == 38 + 16 + key_bytes


def test_special_prime_rows_check_their_own_prime(setup, params64):
    *_, ek, _, _ = setup
    ring = get_ring(params64)
    blob = serial.serialize_eval_keys(ek)
    high, low = 0, len(ring.p_primes) - 1  # special primes run largest first

    def with_limb(j, value):
        # the relin key's b poly follows the header and the 2 + G words; its
        # row K + j is mod p_j
        offset = 38 + 8 * (2 + len(ek.galois)) + (ring.k + j) * ring.n * 4
        assert int.from_bytes(blob[offset:offset + 4], "little") == ek.relin[0][ring.k + j, 0]
        return blob[:offset] + value.to_bytes(4, "little") + blob[offset + 4:]

    serial.deserialize_eval_keys(with_limb(high, ring.p_primes[low]), params64)
    for value in (ring.p_primes[low], (1 << 31) - 1):
        with pytest.raises(SerializationError):
            serial.deserialize_eval_keys(with_limb(low, value), params64)


def test_seeded_ciphertext_roundtrip(setup, seeded, params64):
    # c0 and the seed only: the loaded c1 is expanded from the kept seed
    be, sk, *_ = setup
    blob = serial.serialize_ciphertext(seeded)
    assert blob[5] == serial.TAG_SEEDED_CIPHERTEXT
    again = serial.deserialize_ciphertext(blob, params64)
    assert again.a_seed == seeded.a_seed and again.level == seeded.level
    assert all(np.array_equal(x, y) for x, y in zip(again.parts, seeded.parts))
    assert serial.serialize_ciphertext(again) == blob
    assert list(be.decode(be.decrypt(sk, again))[:5]) == [3, 1, 4, 1, 5]
    # any op's result is written whole, seed or not in its inputs
    whole = serial.serialize_ciphertext(be.add_ct(again, again))
    assert whole[5] == serial.TAG_CIPHERTEXT
    # a seeded body under the whole form's tag (or the reverse) is refused
    for tag, body in ((serial.TAG_CIPHERTEXT, blob), (serial.TAG_SEEDED_CIPHERTEXT, whole)):
        with pytest.raises(SerializationError):
            serial.deserialize_ciphertext(body[:5] + bytes([tag]) + body[6:], params64)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_container_is_its_formula_size(name):
    # 4-byte limbs; the words and the seed as serial.py states them
    params = gen_params(name)
    ring = get_ring(params)
    be = HeBackend(params)
    sk, pk, ek = be.keygen(seed=1, rotation_steps=(1,))
    k, special, n, g = ring.k, len(ring.p_primes), ring.n, len(ek.galois)
    pt = be.encode([1, 2, 3])
    whole = be.encrypt(pk, pt, seed=2)
    sizes = [
        (serial.serialize_ciphertext(whole), 54 + 8 * k * n),
        (serial.serialize_ciphertext(be.mod_switch(whole)), 54 + 8 * params.output_primes * n),
        (serial.serialize_ciphertext(be.encrypt(sk, pt, seed=2)), 78 + 4 * k * n),
        (serial.serialize_secret_key(sk), 38 + 4 * k * n),
        (serial.serialize_public_key(pk), 38 + 8 * k * n),
        (serial.serialize_eval_keys(ek), 38 + 8 * (2 + g) + (1 + g + 1) * 8 * (k + special) * n),
    ]
    assert [len(blob) for blob, _ in sizes] == [size for _, size in sizes]
    # a score downloads at the preset's k' primes
    want = {"xgb-d2": 98_358, "svm-d1": 131_126, "xgb-encmodel-d3": 114_742}[name]
    assert sizes[1][1] == want
    if name == "xgb-d2":
        assert sizes[0][1] == 163_894 and sizes[2][1] == 81_998


@pytest.fixture(scope="module")
def switched():
    """A ciphertext switched to 4 of its 6 primes, and its params."""
    params = dataclasses.replace(make_test_params(64), output_primes=4)
    be = HeBackend(params)
    sk, pk, _ = be.keygen(seed=4)
    return params, be, sk, be.mod_switch(be.encrypt(pk, be.encode([6, 5, 4]), seed=5))


def test_switched_ciphertext_roundtrip(switched):
    params, be, sk, ct = switched
    blob = serial.serialize_ciphertext(ct)
    assert int.from_bytes(blob[46:54], "little") == ct.prime_count == 4
    again = serial.deserialize_ciphertext(blob, params)
    assert again.prime_count == 4 and serial.serialize_ciphertext(again) == blob
    assert list(be.decode(be.decrypt(sk, again))[:3]) == [6, 5, 4]


@pytest.mark.parametrize("count", [0, 3, 5, 6, 7, 2**64 - 1])
def test_prime_count_word_is_checked(switched, count):
    # 0 or more than K primes is refused by the word itself; any other count
    # but the one written is refused by the residues it leaves over or short
    params, _, _, ct = switched
    blob = serial.serialize_ciphertext(ct)
    bad = blob[:46] + count.to_bytes(8, "little") + blob[54:]
    match = "prime count" if count in (0, 7, 2**64 - 1) else "bytes of residues"
    with pytest.raises(SerializationError, match=match):
        serial.deserialize_ciphertext(bad, params)


@pytest.mark.parametrize("value", ["prime", "2^32-1"])
@pytest.mark.parametrize("row", ["q", "special"])
def test_u4_limb_at_or_above_its_prime_raises(setup, seeded, params64, row, value):
    # a 4-byte limb reaches 2^32 - 1, above every 31-bit prime: refused on a
    # coefficient-prime row (a seeded c0) and on a special-prime row (an
    # eval key), at exactly its prime too, while p - 1 loads
    *_, ek, _, _ = setup
    ring = get_ring(params64)
    if row == "q":
        i, prime = ring.k - 1, ring.q_primes[-1]
        blob, load = serial.serialize_ciphertext(seeded), serial.deserialize_ciphertext
        offset = 78 + i * ring.n * 4  # header, level, seed; then c0 row i
        held = seeded.parts[0][i, 0]
    else:
        j, prime = len(ring.p_primes) - 1, ring.p_primes[-1]
        blob, load = serial.serialize_eval_keys(ek), serial.deserialize_eval_keys
        offset = 38 + 8 * (2 + len(ek.galois)) + (ring.k + j) * ring.n * 4
        held = ek.relin[0][ring.k + j, 0]
    assert int.from_bytes(blob[offset:offset + 4], "little") == held

    def with_limb(limb):
        return blob[:offset] + limb.to_bytes(4, "little") + blob[offset + 4:]

    load(with_limb(prime - 1), params64)
    with pytest.raises(SerializationError, match="below its row's prime"):
        load(with_limb(prime if value == "prime" else 2**32 - 1), params64)


@pytest.mark.parametrize("kind", ["ciphertext", "seeded", "secret_key", "public_key", "eval_keys"])
def test_older_container_versions_raise(setup, seeded, params64, kind):
    # version 6 wrote no prime count, 5 8-byte limbs, 1-4 older layouts:
    # none is misread
    _, sk, pk, ek, _, ct = setup
    value = {"ciphertext": ct, "seeded": seeded, "secret_key": sk, "public_key": pk,
             "eval_keys": ek}[kind]
    name = "ciphertext" if kind == "seeded" else kind
    blob = getattr(serial, f"serialize_{name}")(value)
    assert blob[4] == serial.VERSION == 7
    for version in range(1, 7):
        with pytest.raises(SerializationError, match=f"version {version}"):
            getattr(serial, f"deserialize_{name}")(blob[:4] + bytes([version]) + blob[5:], params64)
