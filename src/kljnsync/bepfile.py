"""Measurement files exchanged for the integrity-check synchronization.

Each party writes its BEP record - terminal voltage and loop current,
indexed by its own absolute clock - into a file keyed by the BEP number.
The serialized form is the authenticated unit: its hash gets one-time-pad
encrypted and travels with the file, and the BEP index plus a digest of the
line configuration live inside the hashed bytes, so replaying an old file
(or one recorded against other line parameters) fails the expected-index
check even though its tag is genuine.

Layout, big-endian throughout: a 73-byte header - magic ``KLJNBEP2``,
party (u8: 0 Alice, 1 Bob), BEP index k (u64), sample rate fs (f64),
local start (f64, seconds on the writer's clock), the 32-byte line-config
digest and the sample count n (u64) - then n voltage and n current samples
(f64, 16 bytes per sample), then optionally the tag as ``AuthTag.to_bytes``
writes it. The record keeps the measured floats bit for bit, so
serialize -> parse -> serialize is byte-exact and the parsed record equals
the built one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .auth import AuthTag
from .errors import ConfigError, DegenerateInputError
from .line import BepMeasurement, LineConfig, Party

_HEADER = struct.Struct(">8sBQdd32sQ")
_MAGIC = b"KLJNBEP2"
_PARTIES = (Party.ALICE, Party.BOB)
_SAMPLE = np.dtype(">f8")


@dataclass(frozen=True, eq=False)
class BepFile:
    party: Party
    bep_index: int
    sample_rate: float
    local_start: float  # seconds on the writing party's clock
    voltage_samples: np.ndarray
    current_samples: np.ndarray
    config_digest: bytes

    def __eq__(self, other) -> bool:
        # every field feeds the serialized payload, so byte equality is
        # exactly record identity
        if not isinstance(other, BepFile):
            return NotImplemented
        return self.payload_bytes() == other.payload_bytes()

    def __post_init__(self):
        # read-only copies: both parties' measurements share one current
        # array, and a record must not change after it is hashed
        for name in ("voltage_samples", "current_samples"):
            samples = np.array(getattr(self, name), dtype=np.float64)
            samples.setflags(write=False)
            object.__setattr__(self, name, samples)
        if self.voltage_samples.size != self.current_samples.size:
            raise ConfigError("bep file: voltage and current lengths differ")
        if self.sample_rate <= 0:
            raise ConfigError("bep file: sample_rate must be > 0")
        if not 0 <= self.bep_index < 2**64:
            raise ConfigError("bep file: bep_index must fit an unsigned 64-bit field")
        if self.party not in _PARTIES or len(self.config_digest) != 32:
            raise ConfigError("bep file: party must be alice or bob, config_digest 32 bytes")

    def __len__(self) -> int:
        return int(self.voltage_samples.size)

    def payload_bytes(self) -> bytes | memoryview:
        """The authenticated content: header and samples, no tag.

        Encoded once per record and kept: the fields are frozen and the
        samples read-only, and a record changed with dataclasses.replace
        is a new record with no encoding yet. A parsed record's payload is
        a read-only view of the bytes it was parsed from."""
        blob = getattr(self, "_payload_cache", None)
        if blob is None:
            header = _HEADER.pack(
                _MAGIC, _PARTIES.index(self.party), self.bep_index, self.sample_rate,
                self.local_start, self.config_digest, len(self),
            )
            samples = np.concatenate([self.voltage_samples, self.current_samples], dtype=_SAMPLE)
            blob = b"".join((header, samples))
            object.__setattr__(self, "_payload_cache", blob)
        return blob

    # the scheduler hashes payloads via this hook
    canonical_bytes = payload_bytes


def build_bep_file(meas: BepMeasurement, config: LineConfig) -> BepFile:
    """Freeze a measurement into its exchangeable file form."""
    if len(meas.voltage_trace) == 0:
        raise DegenerateInputError("cannot build a file from an empty measurement")
    return BepFile(
        party=meas.party,
        bep_index=meas.bep_index,
        sample_rate=meas.voltage_trace.sample_rate,
        local_start=float(meas.local_start_time),
        voltage_samples=meas.voltage_trace.samples,
        current_samples=meas.current_trace.samples,
        config_digest=config.digest(),
    )


def serialize_bep_file(file: BepFile, tag: Optional[AuthTag] = None) -> bytes:
    blob = file.payload_bytes()
    return bytes(blob) if tag is None else b"".join((blob, tag.to_bytes()))


def parse_bep_file(blob: bytes) -> tuple[BepFile, Optional[AuthTag]]:
    # a no-op for bytes; a buffer the caller could still write to is copied,
    # so the record cannot change after it is hashed
    blob = bytes(blob)
    if len(blob) < _HEADER.size:
        raise ConfigError("bep file: shorter than its header")
    magic, party, bep_index, sample_rate, local_start, config_digest, n = _HEADER.unpack_from(blob)
    end = _HEADER.size + 2 * n * _SAMPLE.itemsize
    if magic != _MAGIC or party >= len(_PARTIES):
        raise ConfigError("bep file: bad magic or party")
    if len(blob) < end:
        raise ConfigError(f"bep file: {n} samples do not fit in {len(blob)} bytes")
    samples = np.frombuffer(blob, _SAMPLE, 2 * n, _HEADER.size)
    if not (np.isfinite(sample_rate) and np.isfinite(local_start) and np.isfinite(samples).all()):
        raise ConfigError("bep file: fs, local_start and samples must be finite")
    tag = AuthTag.from_bytes(blob[end:]) if len(blob) > end else None
    volts, amps = samples[:n], samples[n:]
    record = BepFile(_PARTIES[party], bep_index, sample_rate, local_start, volts, amps, config_digest)
    # the received bytes are exactly what encoding the record would give;
    # a view keeps them in place instead of copying them out from before a tag
    object.__setattr__(record, "_payload_cache", memoryview(blob)[:end])
    return record, tag
