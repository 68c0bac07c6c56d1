import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from kljnsync.auth import KeyLedger, encrypt_digest, hash_message, verify
from kljnsync.bepfile import BepFile, build_bep_file, parse_bep_file, serialize_bep_file
from kljnsync.errors import ConfigError, DegenerateInputError
from kljnsync.line import (
    BepMeasurement,
    LineConfig,
    Party,
    ResistorChoice,
    simulate_bep,
)
from kljnsync.noise import NoiseTrace

CFG = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
HEADER = 73  # bytes before the first sample


def honest_measurement(seed=21, **kw):
    return simulate_bep(ResistorChoice.L, ResistorChoice.H, CFG, seed=seed, **kw)


def test_build_and_round_trip_identity():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    blob = serialize_bep_file(f)
    parsed, tag = parse_bep_file(blob)
    assert tag is None
    assert parsed == f
    assert serialize_bep_file(parsed) == blob  # byte-exact


def test_round_trip_with_tag():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    ledger = KeyLedger.generate(4096, 1)
    tag = encrypt_digest(hash_message(f.payload_bytes()), ledger)
    blob = serialize_bep_file(f, tag)
    parsed, tag_back = parse_bep_file(blob)
    assert tag_back == tag
    assert serialize_bep_file(parsed, tag_back) == blob


def test_build_keeps_the_measurement_bit_for_bit():
    meas_a, meas_b = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    assert np.array_equal(f.voltage_samples, meas_a.voltage_trace.samples)
    assert np.array_equal(f.current_samples, meas_a.current_trace.samples)
    assert f.local_start == meas_a.local_start_time
    # the parties share one current array; each record owns a frozen copy
    f_b = build_bep_file(meas_b, CFG)
    for record, meas in ((f, meas_a), (f_b, meas_b)):
        for mine, theirs in (
            (record.voltage_samples, meas.voltage_trace.samples),
            (record.current_samples, meas.current_trace.samples),
        ):
            assert not mine.flags.writeable
            assert not np.shares_memory(mine, theirs)
    assert not np.shares_memory(f.current_samples, f_b.current_samples)
    parsed, _ = parse_bep_file(serialize_bep_file(f))
    assert np.array_equal(parsed.voltage_samples, meas_a.voltage_trace.samples)
    assert np.array_equal(parsed.current_samples, meas_a.current_trace.samples)
    assert parsed.local_start == meas_a.local_start_time


def test_serialized_size_is_the_header_and_16_bytes_per_sample():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    tag = encrypt_digest(hash_message(f.payload_bytes()), KeyLedger.generate(4096, 1))
    assert len(serialize_bep_file(f)) == HEADER + 16 * len(f)
    assert len(serialize_bep_file(f, tag)) == HEADER + 16 * len(f) + len(tag.to_bytes())


def test_local_start_carries_the_party_clock():
    _, meas_b = honest_measurement(start_absolute=1.0, offset_B=0.003)
    f = build_bep_file(meas_b, CFG)
    assert f.party is Party.BOB
    assert f.local_start == pytest.approx(1.003, abs=1e-9)


def test_empty_measurement_rejected():
    empty = NoiseTrace(np.zeros(0), CFG.sample_rate)
    meas = BepMeasurement(Party.ALICE, 0, 0.0, empty, empty)
    with pytest.raises(DegenerateInputError):
        build_bep_file(meas, CFG)


def test_config_digest_embedded():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    assert f.config_digest == CFG.digest()
    other = LineConfig(R_L=1.0, R_H=12.0, bandwidth_B=1e4, noise_scale=1e-4)
    assert f.config_digest != other.digest()


def test_parse_rejects_garbage():
    good = serialize_bep_file(build_bep_file(honest_measurement()[0], CFG))
    text_record = (
        "KLJN-BEP v1 party=alice k=0 fs=200000.000000 local_start=0.000000000 "
        f"config={CFG.digest().hex()}\n0,1.00000000000e-03,2.00000000000e-04\n"
    ).encode()
    for blob in (b"", b"not a bep file\n", good[: HEADER - 1], text_record):
        with pytest.raises(ConfigError):
            parse_bep_file(blob)


# byte offsets in the layout: magic 0, party 8, k 9, fs 17, local_start 25,
# config digest 33, n 65, voltage samples from 73, then current samples
def _put(fmt, at, value):
    def corrupt(blob, n):
        struct.pack_into(fmt, blob, at(n), value)

    return corrupt


def _voltage(i):
    return lambda n: HEADER + 8 * i


def _current(i):
    return lambda n: HEADER + 8 * (n + i)


def _truncate_samples(blob, n):
    del blob[HEADER + 16 * n - 8 :]


def _cut_tag_to_its_span(blob, n):
    del blob[HEADER + 16 * n : -16]


@pytest.mark.parametrize(
    "corrupt",
    [
        _put("8s", lambda n: 0, b"KLJNBEP1"),
        _put("B", lambda n: 8, 2),
        _truncate_samples,  # n claims one sample more than the blob holds
        _put(">Q", lambda n: 65, 2**64 - 1),  # n * 16 overflows a u64
        _cut_tag_to_its_span,
        _put(">d", _voltage(4), math.nan),
        _put(">d", _voltage(6), -math.inf),
        _put(">d", _current(5), math.nan),
        _put(">d", _current(5), -math.inf),
        _put(">d", lambda n: 17, math.nan),
        _put(">d", lambda n: 25, math.inf),
    ],
    ids=[
        "magic", "party", "truncated", "overflow", "tag", "nan", "voltage_neginf",
        "current_nan", "inf", "fs_nan", "start_inf",
    ],
)
def test_parse_fails_closed_on_malformed_content(corrupt):
    f = build_bep_file(honest_measurement()[0], CFG)
    tag = encrypt_digest(hash_message(f.payload_bytes()), KeyLedger.generate(4096, 1))
    good = serialize_bep_file(f, tag)
    bad = bytearray(good)
    corrupt(bad, len(f))
    assert bad != good
    with pytest.raises(ConfigError):
        parse_bep_file(bytes(bad))


def test_parse_rejects_trailing_bytes_too_short_for_a_tag():
    good = serialize_bep_file(build_bep_file(honest_measurement()[0], CFG))
    for extra in range(1, 17):
        with pytest.raises(ConfigError):
            parse_bep_file(good + bytes(extra))


def test_mismatched_lengths_rejected():
    with pytest.raises(ConfigError):
        BepFile(Party.ALICE, 0, 1e5, 0.0, np.zeros(5), np.zeros(4), b"\x00")


@pytest.mark.parametrize(
    "field",
    [{"bep_index": -1}, {"bep_index": 2**64}, {"party": Party.EVE}, {"config_digest": b"\x00" * 31}],
    ids=["negative_index", "index_too_large", "eve", "short_digest"],
)
def test_fields_the_layout_cannot_hold_rejected(field):
    args = dict(
        party=Party.ALICE, bep_index=0, sample_rate=1e5, local_start=0.0,
        voltage_samples=np.zeros(4), current_samples=np.zeros(4), config_digest=CFG.digest(),
    )
    with pytest.raises(ConfigError):
        BepFile(**dict(args, **field))


def test_tampering_changes_payload_bytes():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    volts = f.voltage_samples.copy()
    volts[100] += 1e-3
    from dataclasses import replace

    forged = replace(f, voltage_samples=volts)
    assert forged.payload_bytes() != f.payload_bytes()


def test_a_record_is_encoded_once():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    assert f.payload_bytes() is f.payload_bytes()
    assert f.canonical_bytes() is f.payload_bytes()


def test_parsed_payload_is_the_received_bytes():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    ledger = KeyLedger.generate(4096, 1)
    tag = encrypt_digest(hash_message(f.payload_bytes()), ledger)
    for blob in (serialize_bep_file(f), serialize_bep_file(f, tag)):
        parsed, _ = parse_bep_file(blob)
        received = blob[: HEADER + 16 * len(f)]
        assert parsed.payload_bytes() == received
        # and exactly what encoding the parsed fields gives
        assert replace(parsed, bep_index=parsed.bep_index).payload_bytes() == received


def test_a_parsed_record_with_a_tag_keeps_the_received_buffer():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    ledger = KeyLedger.generate(4096, 1)
    tag = encrypt_digest(hash_message(f.payload_bytes()), ledger)
    blob = serialize_bep_file(f, tag)
    parsed, tag_back = parse_bep_file(blob)
    payload = parsed.payload_bytes()
    assert np.shares_memory(np.frombuffer(payload, np.uint8), np.frombuffer(blob, np.uint8))
    assert payload.readonly and len(payload) == HEADER + 16 * len(f)
    # it still compares, hashes, verifies and serializes as the bytes
    assert parsed == f and payload == f.payload_bytes()
    assert hash_message(payload) == hash_message(f.payload_bytes())
    assert verify(payload, tag_back, ledger)
    again = serialize_bep_file(parsed, tag_back)
    assert type(again) is bytes and again == blob
    untagged = serialize_bep_file(parsed)
    assert type(untagged) is bytes and untagged == f.payload_bytes()


def test_a_writable_buffer_is_copied_before_it_is_parsed():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    buffer = bytearray(serialize_bep_file(f))
    parsed, _ = parse_bep_file(buffer)
    buffer[HEADER] ^= 0xFF  # the caller reuses its buffer
    assert parsed.payload_bytes() == f.payload_bytes()


def test_a_replaced_record_is_encoded_afresh():
    meas_a, _ = honest_measurement()
    ledger = KeyLedger.generate(4096, 1)
    f = build_bep_file(meas_a, CFG)
    tag = encrypt_digest(hash_message(f.payload_bytes()), ledger)
    for record in (f, parse_bep_file(serialize_bep_file(f, tag))[0]):
        assert verify(record.payload_bytes(), tag, ledger)
        volts = record.voltage_samples.copy()
        volts[7] += 0.25
        forged = replace(record, voltage_samples=volts)
        assert forged.payload_bytes() != record.payload_bytes()
        assert not verify(forged.payload_bytes(), tag, ledger)
        assert replace(forged, voltage_samples=record.voltage_samples) == record
