import numpy as np
import pytest

from kljnsync.auth import KeyLedger, encrypt_digest, hash_message
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


def honest_measurement(seed=21, **kw):
    return simulate_bep(ResistorChoice.L, ResistorChoice.H, CFG, seed=seed, **kw)


def test_build_and_round_trip_identity():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    blob = serialize_bep_file(f)
    parsed, tag = parse_bep_file(blob)
    assert tag is None
    assert parsed == f  # values were frozen through the codec at build time
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


def test_build_quantizes_within_format_precision():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    assert np.allclose(f.voltage_samples, meas_a.voltage_trace.samples, rtol=1e-11)
    assert not np.array_equal(f.voltage_samples, np.zeros_like(f.voltage_samples))


def test_local_start_carries_the_party_clock():
    _, meas_b = honest_measurement(start_absolute=1.0, offset_B=0.003)
    f = build_bep_file(meas_b, CFG)
    assert f.party is Party.BOB
    assert f.local_start == pytest.approx(1.003, abs=1e-9)


def test_sample_times():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    times = f.sample_times()
    assert times[0] == f.local_start
    assert times[1] - times[0] == pytest.approx(1.0 / f.sample_rate)


def test_empty_measurement_rejected():
    empty = NoiseTrace(np.zeros(0), CFG.sample_rate)
    meas = BepMeasurement(Party.ALICE, 0, 0.0, empty, empty, 0.0, 0.0)
    with pytest.raises(DegenerateInputError):
        build_bep_file(meas, CFG)


def test_config_digest_embedded():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    assert f.config_digest == CFG.digest()
    other = LineConfig(R_L=1.0, R_H=12.0, bandwidth_B=1e4, noise_scale=1e-4)
    assert f.config_digest != other.digest()


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_bep_file(b"not a bep file\n")
    with pytest.raises(ConfigError):
        parse_bep_file("KLJN-BEP v1 party=alice k=x fs=1 local_start=0 config=00\n".encode())
    # sample index mismatch
    good = serialize_bep_file(build_bep_file(honest_measurement()[0], CFG))
    lines = good.decode().splitlines()
    lines[5], lines[6] = lines[6], lines[5]
    with pytest.raises(ConfigError):
        parse_bep_file(("\n".join(lines) + "\n").encode())


def _edit_line(n, edit):
    def corrupt(lines):
        lines = list(lines)
        lines[n] = edit(lines[n])
        return lines

    return corrupt


def _set_field(n, column, text):
    def edit(line):
        parts = line.split(",")
        parts[column] = text
        return ",".join(parts)

    return _edit_line(n, edit)


@pytest.mark.parametrize(
    "corrupt",
    [
        _set_field(1, 0, "x"),  # non-numeric sample index
        _set_field(2, 1, "1.5e-3x"),  # not a float
        _set_field(3, 2, "0x1p-3"),  # not a decimal float
        _edit_line(-1, lambda line: "tag=" + "zz" * 40),  # tag not hex
        _set_field(4, 1, "nan"),
        _set_field(5, 2, "-inf"),
        _set_field(6, 1, "1e999"),  # overflows to inf
        _edit_line(0, lambda line: line.replace("fs=200000.000000", "fs=nan")),
        _edit_line(0, lambda line: line.replace("local_start=", "local_start=inf ")),
    ],
    ids=["index", "float", "hexfloat", "tag", "nan", "inf", "overflow", "fs_nan", "start_inf"],
)
def test_parse_fails_closed_on_malformed_content(corrupt):
    f = build_bep_file(honest_measurement()[0], CFG)
    tag = encrypt_digest(hash_message(f.payload_bytes()), KeyLedger.generate(4096, 1))
    lines = serialize_bep_file(f, tag).decode().splitlines()
    bad = corrupt(lines)
    assert bad != lines
    with pytest.raises(ConfigError):
        parse_bep_file(("\n".join(bad) + "\n").encode())


def test_mismatched_lengths_rejected():
    with pytest.raises(ConfigError):
        BepFile(Party.ALICE, 0, 1e5, 0.0, np.zeros(5), np.zeros(4), b"\x00")


def test_tampering_changes_payload_bytes():
    meas_a, _ = honest_measurement()
    f = build_bep_file(meas_a, CFG)
    volts = f.voltage_samples.copy()
    volts[100] += 1e-3
    from dataclasses import replace

    forged = replace(f, voltage_samples=volts)
    assert forged.payload_bytes() != f.payload_bytes()
