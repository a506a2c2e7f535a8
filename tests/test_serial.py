"""Container format: byte-exact roundtrips and decode-error paths."""

import numpy as np
import pytest

from hedgerow import FingerprintMismatchError, SerializationError, make_test_params
from hedgerow.scheme import HeBackend
from hedgerow import serial
from hedgerow.ring import get_ring


@pytest.fixture(scope="module")
def setup(params64):
    be = HeBackend(params64)
    sk, pk, ek = be.keygen(seed=777)
    pt = be.encode([3, 1, 4, 1, 5])
    ct = be.encrypt(pk, pt, seed=9)
    return be, sk, pk, ek, pt, ct


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
    blob[-8:] = ((1 << 40) + 5).to_bytes(8, "little")  # 29-bit primes
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
    blob += blob[-len(ct.parts[1].tobytes()):]  # a third part, limbs in range
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
    key_bytes = 2 * (ring.k + len(ring.p_primes)) * ring.n * 8
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
        offset = 38 + 8 * (2 + len(ek.galois)) + (ring.k + j) * ring.n * 8
        assert int.from_bytes(blob[offset:offset + 8], "little") == ek.relin[0][ring.k + j, 0]
        return blob[:offset] + value.to_bytes(8, "little") + blob[offset + 8:]

    serial.deserialize_eval_keys(with_limb(high, ring.p_primes[low]), params64)
    for value in (ring.p_primes[low], (1 << 31) - 1):
        with pytest.raises(SerializationError):
            serial.deserialize_eval_keys(with_limb(low, value), params64)
