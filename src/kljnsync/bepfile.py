"""Measurement files exchanged for the integrity-check synchronization.

Each party writes its BEP record - terminal voltage and loop current,
indexed by its own absolute clock - into a file keyed by the BEP number.
The serialized form is the authenticated unit: its hash gets one-time-pad
encrypted and travels with the file, and the BEP index plus a digest of the
line configuration live inside the hashed bytes, so replaying an old file
(or one recorded against other line parameters) fails the expected-index
check even though its tag is genuine.

Layout: one header line, one "index,voltage,current" line per sample with
12 significant digits, and optionally a final hex tag line. Values are
passed through the same decimal formatting when the record is built, which
makes serialize -> parse -> serialize byte-exact and the parsed object equal
to the built one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .auth import AuthTag
from .errors import ConfigError, DegenerateInputError
from .line import BepMeasurement, LineConfig, Party

_MAGIC = "KLJN-BEP v1"


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _fmt_fs(fs: float) -> str:
    return f"{fs:.6f}"


@dataclass(frozen=True, eq=False)
class BepFile:
    party: Party
    bep_index: int
    sample_rate: float
    local_start: float  # seconds on the writing party's clock, ns resolution
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
        v = np.asarray(self.voltage_samples, dtype=np.float64)
        c = np.asarray(self.current_samples, dtype=np.float64)
        object.__setattr__(self, "voltage_samples", v)
        object.__setattr__(self, "current_samples", c)
        object.__setattr__(self, "_payload_cache", None)
        if v.size != c.size:
            raise ConfigError("bep file: voltage and current lengths differ")
        if self.sample_rate <= 0:
            raise ConfigError("bep file: sample_rate must be > 0")

    def __len__(self) -> int:
        return int(self.voltage_samples.size)

    def sample_times(self) -> np.ndarray:
        """Local timestamps: local_start + n / sample_rate."""
        return self.local_start + np.arange(len(self)) / self.sample_rate

    def payload_bytes(self) -> bytes:
        """The authenticated content: header plus sample lines, no tag."""
        if self._payload_cache is not None:
            return self._payload_cache
        header = (
            f"{_MAGIC} party={self.party.value} k={self.bep_index} "
            f"fs={_fmt_fs(self.sample_rate)} local_start={self.local_start:.9f} "
            f"config={self.config_digest.hex()}"
        )
        n = len(self)
        idx = np.arange(n).astype(str)
        volts = np.char.mod("%.11e", self.voltage_samples)
        amps = np.char.mod("%.11e", self.current_samples)
        rows = np.char.add(np.char.add(np.char.add(np.char.add(idx, ","), volts), ","), amps)
        blob = ("\n".join([header, *rows.tolist()]) + "\n").encode("ascii")
        object.__setattr__(self, "_payload_cache", blob)
        return blob

    # the scheduler hashes payloads via this hook
    canonical_bytes = payload_bytes


def build_bep_file(meas: BepMeasurement, config: LineConfig) -> BepFile:
    """Freeze a measurement into its exchangeable file form.

    Samples and the start stamp are rounded through the file's decimal
    formats up front (12 significant digits, nanosecond start resolution),
    so the in-memory record equals what the wire will carry.
    """
    n = len(meas.voltage_trace)
    if n == 0:
        raise DegenerateInputError("cannot build a file from an empty measurement")
    volts = np.char.mod("%.11e", meas.voltage_trace.samples).astype(np.float64)
    amps = np.char.mod("%.11e", meas.current_trace.samples).astype(np.float64)
    return BepFile(
        party=meas.party,
        bep_index=meas.bep_index,
        sample_rate=meas.voltage_trace.sample_rate,
        local_start=float(f"{meas.local_start_time:.9f}"),
        voltage_samples=volts,
        current_samples=amps,
        config_digest=config.digest(),
    )


def serialize_bep_file(file: BepFile, tag: Optional[AuthTag] = None) -> bytes:
    blob = file.payload_bytes()
    if tag is not None:
        blob += f"tag={tag.to_bytes().hex()}\n".encode("ascii")
    return blob


def parse_bep_file(blob: bytes) -> tuple[BepFile, Optional[AuthTag]]:
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"bep file: not ascii ({exc})") from None
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise ConfigError("bep file: missing header")

    fields = dict(tok.split("=", 1) for tok in lines[0][len(_MAGIC) :].split() if "=" in tok)
    try:
        party = Party(fields["party"])
        bep_index = int(fields["k"])
        sample_rate = float(fields["fs"])
        local_start = float(fields["local_start"])
        config_digest = bytes.fromhex(fields["config"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bep file: bad header ({exc})") from None
    if not (math.isfinite(sample_rate) and math.isfinite(local_start)):
        raise ConfigError("bep file: bad header (fs and local_start must be finite)")

    tag = None
    sample_lines = lines[1:]
    if sample_lines and sample_lines[-1].startswith("tag="):
        try:
            tag = AuthTag.from_bytes(bytes.fromhex(sample_lines[-1][4:]))
        except ValueError:
            raise ConfigError("bep file: tag is not hex") from None
        sample_lines = sample_lines[:-1]

    volts = np.empty(len(sample_lines))
    amps = np.empty(len(sample_lines))
    try:
        for i, line in enumerate(sample_lines):
            parts = line.split(",")
            if len(parts) != 3 or int(parts[0]) != i:
                raise ValueError
            volts[i] = float(parts[1])
            amps[i] = float(parts[2])
    except ValueError:
        raise ConfigError(f"bep file: malformed sample line {i}") from None
    if not (np.isfinite(volts).all() and np.isfinite(amps).all()):
        raise ConfigError("bep file: samples must be finite")

    return (
        BepFile(party, bep_index, sample_rate, local_start, volts, amps, config_digest),
        tag,
    )
