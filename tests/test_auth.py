import hashlib
import sys
import threading

import numpy as np
import pytest

from kljnsync import auth
from kljnsync.auth import (
    AuthTag,
    KeyLedger,
    KeySpan,
    encrypt_digest,
    hash_message,
    key_pad,
    verify,
)
from kljnsync.config import ProtocolConfig
from kljnsync.errors import ConfigError, KeyExhaustedError, UnknownSpanError
from kljnsync.channel import format_event_log
from kljnsync.harness import ScenarioConfig, load_bundled, run_scenario
from kljnsync.line import LineConfig
from kljnsync.noise import derive_seed
from kljnsync.protocols import combined_check, protocol_a, protocol_b


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


def test_an_unaligned_take_leaves_the_ledger_as_it_was():
    ledger = KeyLedger.generate(64, 1)
    with pytest.raises(UnknownSpanError):
        ledger.take(3)
    assert ledger.consumed == 0
    assert ledger.take(8)[0] == KeySpan(0, 8)


def test_a_negative_take_leaves_the_ledger_as_it_was():
    # a negative count would hand out a span that runs backwards, and move
    # the counter back over bits later tags would then spend again
    ledger = KeyLedger.generate(512, 9)
    with pytest.raises(UnknownSpanError):
        ledger.take(-8)
    assert ledger.consumed == 0
    assert ledger.take(8)[0] == KeySpan(0, 8)


@pytest.mark.parametrize("span", [KeySpan(-8, 256), KeySpan(0, -256), KeySpan(-8, -8)])
def test_a_span_with_a_negative_offset_or_length_is_unknown(span):
    ledger = KeyLedger.generate(512, 9)
    with pytest.raises(UnknownSpanError):
        ledger.read(span)


def test_a_bare_digest_under_a_negative_span_does_not_verify():
    # the pad of [-8, 248) would slice to nothing, and a digest XOR nothing
    # is the digest, so an unencrypted digest would pass as its own tag
    ledger = KeyLedger.generate(512, 9)
    digest = hash_message(b"p")
    with pytest.raises(UnknownSpanError):
        auth.verify_digest(digest, AuthTag(digest, KeySpan(-8, 256)), ledger)


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
    whole = KeySpan(0, 1024)
    assert a.read(whole) == b.read(whole)
    assert a.read(whole) != c.read(whole)


@pytest.mark.parametrize("n_bits", [0, 8, 300, 8192])
def test_a_generated_ledger_draws_the_seeded_stream_on_first_use(n_bits):
    expected = np.random.default_rng(derive_seed(11, 0xFEED)).bytes((n_bits + 7) // 8)
    ledger = KeyLedger.generate(n_bits, seed=11)
    assert ledger._pad is None  # nothing drawn yet
    assert ledger.bit_length == n_bits
    whole = 8 * (n_bits // 8)
    assert ledger.read(KeySpan(0, whole)) == expected[: whole // 8]
    assert ledger._pad == expected  # the whole pad, a last partial byte included
    taken = KeyLedger.generate(n_bits, seed=11)
    assert taken.take(whole) == (KeySpan(0, whole), expected[: whole // 8])
    with pytest.raises(KeyExhaustedError):
        taken.take(8)  # fewer than 8 bits remain


def test_a_protocol_a_run_spends_and_draws_no_key():
    line = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
    sc = ScenarioConfig(3, line, ProtocolConfig("A")).build_scenario()
    protocol_a(sc)
    assert sc.ledger.consumed == 0 and sc.ledger._pad is None
    sc = ScenarioConfig(3, line, ProtocolConfig("B")).build_scenario()
    protocol_b(sc)
    assert sc.ledger.consumed == 3 * 256
    assert sc.ledger._pad == np.random.default_rng(derive_seed(3, 0xFEED)).bytes(1024)


def _xor_by_zip(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def test_tags_xor_the_pad_bytewise_and_keep_leading_zero_bytes():
    rng = np.random.default_rng(5)
    for n in (0, 1, 5, 32, 33):
        ledger, digest = make_ledger(), rng.bytes(n)
        tag = encrypt_digest(digest, ledger)
        assert tag.ciphertext == _xor_by_zip(digest, ledger.read(tag.span))
        assert len(tag.ciphertext) == n
    # leading zero bytes survive the integer round trip: a digest that
    # starts as the pad does, and a tag whose XOR with the pad is the hash
    ledger = make_ledger()
    digest = ledger.read(KeySpan(0, 256))[:2] + bytes(30)
    tag = encrypt_digest(digest, ledger)
    assert tag.ciphertext[:2] == bytes(2) and len(tag.ciphertext) == 32
    payload = b"a payload"
    ledger = make_ledger()
    pad = ledger.read(KeySpan(0, 256))
    tag = AuthTag(_xor_by_zip(hash_message(payload), pad), KeySpan(0, 256))
    assert verify(payload, tag, ledger)


@pytest.mark.parametrize(
    "name, runner, bits", [("honest_combined", combined_check, 1280), ("honest_protocol_b", protocol_b, 768)]
)
def test_the_key_spans_on_the_channel_tile_what_the_ledger_spent(name, runner, bits):
    config, spans = load_bundled(name), []
    sc = config.build_scenario()
    # a hook that returns the envelope unchanged leaves no line in the log
    sc.scheduler.hooks.append(lambda env: spans.append(env.payload.tag.span) or env)
    runner(sc)
    cursor = 0
    for span in sorted(spans):  # disjoint and contiguous from 0
        assert span.offset == cursor and span.length > 0
        cursor += span.length
    assert cursor == sc.ledger.consumed == bits
    assert format_event_log(sc.scheduler.log) == run_scenario(config).event_log


def test_ledgers_of_one_seed_share_the_pad_but_not_the_counter():
    a, b = KeyLedger.generate(4096, seed=21), KeyLedger.generate(4096, seed=21)
    assert a.take(256) == b.take(256)
    assert a._pad is b._pad  # one drawn pad, read by both
    a.take(512)
    assert (a.consumed, b.consumed) == (768, 256)
    assert b.remaining_bits == 4096 - 256
    assert b.take(512)[1] == a.read(KeySpan(256, 512))


def test_a_float_seed_raises_after_its_integer_pad_is_memoised():
    KeyLedger.generate(64, seed=5).take(8)
    with pytest.raises(TypeError):
        KeyLedger.generate(64, seed=5.0).take(8)


def _reference_pad(seed, nbytes):
    return np.random.default_rng(derive_seed(seed, 0xFEED)).bytes(nbytes)


@pytest.fixture
def small_pad_memo():
    """The pad memo, emptied; returns how many pads it keeps."""
    auth._kept_pad.cache_clear()

    def kept():
        info = auth._kept_pad.cache_info()
        assert info.currsize <= info.maxsize == 16
        return info.currsize

    yield kept
    auth._kept_pad.cache_clear()


def test_the_pad_memo_keeps_at_most_its_byte_budget(small_pad_memo):
    assert auth.PAD_MEMO_BYTES == 4096
    for seed in range(30):
        for nbytes in (0, 1, 100, 1024, 4096):
            misses = auth._kept_pad.cache_info().misses
            pad = key_pad(seed, nbytes)
            assert pad == _reference_pad(seed, nbytes)
            assert auth._kept_pad.cache_info().misses == misses + 1  # the last drawn is kept
            assert key_pad(seed, nbytes) is pad  # a hit returns the kept pad itself
            small_pad_memo()
    assert small_pad_memo() == 16
    # a pad longer than PAD_MEMO_BYTES is drawn every time and never kept
    before = auth._kept_pad.cache_info()
    long_pad = key_pad(3, 4097)
    assert long_pad == _reference_pad(3, 4097) and key_pad(3, 4097) is not long_pad
    assert auth._kept_pad.cache_info() == before


def test_threads_drawing_pads_keep_the_memo_within_its_budget(small_pad_memo):
    pads, switch, counts = {}, sys.getswitchinterval(), []

    def draw(worker):
        for i in range(200):
            seed, nbytes = (worker * 7 + i) % 23, 100 * (i % 5)
            pads.setdefault((seed, nbytes), []).append(key_pad(seed, nbytes))
            counts.append(small_pad_memo())

    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(w,)) for w in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    assert sum(map(len, pads.values())) == len(counts) == 6 * 200
    assert max(counts) <= 16
    for (seed, nbytes), drawn in pads.items():
        assert set(drawn) == {_reference_pad(seed, nbytes)}
