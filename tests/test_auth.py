import hashlib

import numpy as np
import pytest

from kljnsync.auth import (
    AuthTag,
    KeyLedger,
    KeySpan,
    _xor,
    encrypt_digest,
    hash_message,
    verify,
)
from kljnsync.config import ProtocolConfig
from kljnsync.errors import ConfigError, KeyExhaustedError, UnknownSpanError
from kljnsync.line import LineConfig
from kljnsync.noise import derive_seed
from kljnsync.protocols import protocol_a, protocol_b
from kljnsync.scenario import make_scenario


def make_ledger(n_bits=8192, seed=1):
    return KeyLedger.generate(n_bits, seed)


def test_hash_is_deterministic_and_matches_stdlib():
    payload = b"my time is t1"
    d1 = hash_message(payload)
    d2 = hash_message(payload)
    assert d1 == d2
    assert d1 == hashlib.sha256(payload).digest()
    assert len(d1) == 32
    assert hash_message(b"") == hashlib.sha256(b"").digest()


def test_single_bit_flip_changes_digest():
    payload = bytearray(b"measurement record")
    d0 = hash_message(bytes(payload))
    payload[3] ^= 0x01
    assert hash_message(bytes(payload)) != d0


def test_encrypt_round_trip_and_span_accounting():
    ledger = make_ledger()
    digest = hash_message(b"payload")
    tag = encrypt_digest(digest, ledger)
    assert tag.span == KeySpan(0, 256)
    assert ledger.consumed == 256
    # decrypting with the same span restores the digest (XOR involution)
    pad = ledger.read(tag.span)
    assert bytes(a ^ b for a, b in zip(tag.ciphertext, pad)) == digest

    tag2 = encrypt_digest(hash_message(b"other"), ledger)
    assert tag2.span.offset == tag.span.offset + tag.span.length
    assert ledger.audit_one_time()


def test_zero_key_makes_ciphertext_equal_digest():
    ledger = KeyLedger(bytes(64))
    digest = hash_message(b"x")
    tag = encrypt_digest(digest, ledger)
    assert tag.ciphertext == digest


def test_key_exhaustion():
    ledger = make_ledger(n_bits=300)  # room for one 256-bit tag only
    encrypt_digest(hash_message(b"a"), ledger)
    with pytest.raises(KeyExhaustedError):
        encrypt_digest(hash_message(b"b"), ledger)


def test_verify_honest_and_tampered():
    ledger = make_ledger()
    payload = b"response t1*=3.25 t2*=4.5"
    tag = encrypt_digest(hash_message(payload), ledger)
    assert verify(payload, tag, ledger) is True
    # payload substituted, tag kept
    assert verify(b"response t1*=3.25 t2*=9.9", tag, ledger) is False
    # tag ciphertext corrupted
    bad = AuthTag(bytes(32), tag.span)
    assert verify(payload, bad, ledger) is False


def test_verify_unknown_span():
    ledger = make_ledger(n_bits=256)
    tag = AuthTag(bytes(32), KeySpan(256, 256))
    with pytest.raises(UnknownSpanError):
        verify(b"p", tag, ledger)


def test_forged_tags_never_verify():
    ledger = make_ledger(n_bits=512)
    payload = b"file contents"
    encrypt_digest(hash_message(payload), ledger)  # legitimate span 0..256
    rng = np.random.default_rng(5)
    for _ in range(1000):
        forged = AuthTag(rng.bytes(32), KeySpan(0, 256))
        assert verify(b"eve's replacement", forged, ledger) is False


def test_tag_serialization_round_trip():
    ledger = make_ledger()
    tag = encrypt_digest(hash_message(b"p"), ledger)
    blob = tag.to_bytes()
    assert len(blob) == 32 + 16
    back = AuthTag.from_bytes(blob)
    assert back == tag
    with pytest.raises(ConfigError):
        AuthTag.from_bytes(b"short")


def test_ledger_generation_is_deterministic():
    a = KeyLedger.generate(1024, seed=7)
    b = KeyLedger.generate(1024, seed=7)
    c = KeyLedger.generate(1024, seed=8)
    assert a._key == b._key
    assert a._key != c._key


@pytest.mark.parametrize("n_bits", [0, 8, 300, 8192])
def test_a_generated_ledger_draws_the_seeded_stream_on_first_use(n_bits):
    expected = np.random.default_rng(derive_seed(11, 0xFEED)).bytes((n_bits + 7) // 8)
    ledger = KeyLedger.generate(n_bits, seed=11)
    assert ledger._pad is None  # nothing drawn yet
    assert ledger._key == expected
    assert ledger.bit_length == n_bits
    whole = 8 * (n_bits // 8)
    assert KeyLedger.generate(n_bits, seed=11).read(KeySpan(0, whole)) == expected[: whole // 8]
    taken = KeyLedger.generate(n_bits, seed=11)
    assert taken.take(whole) == (KeySpan(0, whole), expected[: whole // 8])
    with pytest.raises(KeyExhaustedError):
        taken.take(8)  # fewer than 8 bits remain


def test_a_protocol_a_run_spends_and_draws_no_key():
    line = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
    sc = make_scenario(line, seed=3, protocol=ProtocolConfig("A"))
    protocol_a(sc)
    assert sc.ledger.consumed == 0 and sc.ledger._pad is None
    sc = make_scenario(line, seed=3, protocol=ProtocolConfig("B"))
    protocol_b(sc)
    assert sc.ledger.consumed == 3 * 256
    assert sc.ledger._key == np.random.default_rng(derive_seed(3, 0xFEED)).bytes(1024)


def _xor_by_zip(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def test_xor_matches_the_bytewise_form_and_cuts_to_the_shorter_input():
    rng = np.random.default_rng(5)
    for la, lb in [(0, 0), (1, 1), (32, 32), (5, 9), (9, 5), (0, 7), (33, 32)]:
        a, b = rng.bytes(la), rng.bytes(lb)
        assert _xor(a, b) == _xor_by_zip(a, b)
        assert len(_xor(a, b)) == min(la, lb)
    # leading zero bytes survive the integer round trip
    assert _xor(b"\x00\x00\x01", b"\x00\x00\x01") == b"\x00\x00\x00"


def test_audit_detects_overlap():
    ledger = make_ledger()
    ledger.issued.append(KeySpan(0, 256))
    ledger.issued.append(KeySpan(128, 256))
    assert ledger.audit_one_time() is False
