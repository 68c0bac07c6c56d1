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
writes it. A record holds its payload (header and samples) once, in one
read-only buffer, and its samples are read-only big-endian views of it.
Built from fields, it encodes them once; parsed, it keeps the received
bytes and copies no sample. Both run one validation: samples 1-D, of one
length and finite, fs > 0, fs and start finite, and a party, index and
digest the header can hold. Serialize -> parse -> serialize is byte-exact.

A record also keeps the SHA-256 state of its payload, computed once from
the read-only bytes the first time it is asked for and handed out only as
a copy. The sender's tag, the event log's digest of the record sent with
its tag, and the receiver's check all come from that one hash. It cannot
go stale or be supplied from outside: the payload never changes, it is no
init field, and a record made by dataclasses.replace or parse_bep_file
hashes its own bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .auth import AuthTag
from .errors import ConfigError, DegenerateInputError
from .line import BepMeasurement, LineConfig, Party

_HEADER = struct.Struct(">8sBQdd32sQ")
_MAGIC = b"KLJNBEP2"
_PARTIES = (Party.ALICE, Party.BOB)
_SAMPLE = np.dtype(">f8")


@dataclass(frozen=True, eq=False, slots=True)
class BepFile:
    party: Party
    bep_index: int
    sample_rate: float
    local_start: float  # seconds on the writing party's clock
    voltage_samples: np.ndarray
    current_samples: np.ndarray
    config_digest: bytes
    # parse_bep_file's received payload, which the fields were read from and
    # the samples view; None (as dataclasses.replace passes) encodes them
    _received: InitVar[Optional[memoryview]] = None
    _payload: memoryview = field(init=False, repr=False)
    # the payload's hashlib.sha256 state, None until sha256() is first called
    _sha256: object = field(init=False, repr=False)

    def __eq__(self, other) -> bool:
        # every field feeds the serialized payload, so byte equality is
        # exactly record identity; memoryview == compares item by item
        if not isinstance(other, BepFile):
            return NotImplemented
        mine, theirs = (np.frombuffer(r.payload_bytes(), np.uint8) for r in (self, other))
        return np.array_equal(mine, theirs)

    def __post_init__(self, _received):
        volts, amps = np.asarray(self.voltage_samples), np.asarray(self.current_samples)
        if volts.ndim != 1 or volts.shape != amps.shape:
            raise ConfigError("bep file: voltage and current must be 1-D and of one length")
        fs, start = self.sample_rate, self.local_start
        finite = all(np.isfinite(x).all() for x in ((fs, start), volts, amps))
        if not (fs > 0 and finite):
            raise ConfigError("bep file: sample_rate must be > 0; it, local_start and the samples finite")
        if self.party not in _PARTIES or not 0 <= self.bep_index < 2**64 or len(self.config_digest) != 32:
            raise ConfigError("bep file: party must be alice or bob, bep_index a u64, config_digest 32 bytes")
        payload, n = _received, volts.size
        if payload is None:
            # the samples are byte-swapped straight into place, in one pass
            buffer = np.empty(_HEADER.size + 2 * n * _SAMPLE.itemsize, np.uint8)
            party = _PARTIES.index(self.party)
            _HEADER.pack_into(buffer, 0, _MAGIC, party, self.bep_index, fs, start, self.config_digest, n)
            np.concatenate((volts, amps), out=buffer[_HEADER.size :].view(_SAMPLE))
            buffer.setflags(write=False)
            payload = memoryview(buffer)
            volts, amps = np.ndarray((2, n), _SAMPLE, payload, _HEADER.size)
        object.__setattr__(self, "voltage_samples", volts)
        object.__setattr__(self, "current_samples", amps)
        object.__setattr__(self, "_payload", payload)
        object.__setattr__(self, "_sha256", None)

    def __len__(self) -> int:
        return len(self.voltage_samples)

    def payload_bytes(self) -> memoryview:
        """The authenticated content: header and samples, no tag. It is the
        record's one buffer, read-only, and the samples are views of it."""
        return self._payload

    # the name other payloads give their encoding
    canonical_bytes = payload_bytes

    def sha256(self):
        """A copy of the SHA-256 state of payload_bytes(). The payload is
        hashed on the first call only; .digest() of the copy is its hash,
        and a caller may extend the copy without touching the kept state."""
        kept = self._sha256
        if kept is None:
            kept = hashlib.sha256(self._payload)
            object.__setattr__(self, "_sha256", kept)
        return kept.copy()


def build_bep_file(meas: BepMeasurement, config: LineConfig) -> BepFile:
    """Freeze a measurement, sampled at config.sample_rate, into its
    exchangeable file form."""
    if len(meas.voltage) == 0:
        raise DegenerateInputError("cannot build a file from an empty measurement")
    return BepFile(
        party=meas.party,
        bep_index=meas.bep_index,
        sample_rate=config.sample_rate,
        local_start=float(meas.local_start_time),
        voltage_samples=meas.voltage,
        current_samples=meas.current,
        config_digest=config.digest,
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
    tag = AuthTag.from_bytes(blob[end:]) if len(blob) > end else None
    payload = memoryview(blob)[:end]
    volts, amps = np.ndarray((2, n), _SAMPLE, payload, _HEADER.size)
    return BepFile(_PARTIES[party], bep_index, sample_rate, local_start, volts, amps, config_digest, payload), tag
