"""Hash fingerprints encrypted with one-time key bits.

Messages and measurement files are authenticated by hashing them and
XOR-encrypting the digest with bits of a previously exchanged secret key.
Hashes are short, so each transfer spends only a small slice of the key,
and the pad makes the tag information-theoretically unforgeable: without
the key bits, a substituted payload cannot be given a matching tag except
by blind 2^-256 luck. A ledger tracks consumption so no key bit is ever
used twice.
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, KeyExhaustedError, UnknownSpanError
from .noise import derive_seed


# the largest key a ledger holds: a 128 MiB pad
MAX_KEY_BITS = 2**30


class KeySpan(NamedTuple):
    """Identifies consumed key bits: bit offset and bit count."""

    offset: int
    length: int


class AuthTag(NamedTuple):
    ciphertext: bytes
    span: KeySpan

    def to_bytes(self) -> bytes:
        """Ciphertext octets followed by offset and length as big-endian u64."""
        return self.ciphertext + struct.pack(">QQ", self.span.offset, self.span.length)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AuthTag":
        if len(blob) < 17:
            raise ConfigError("auth tag: too short to contain a span")
        offset, length = struct.unpack(">QQ", blob[-16:])
        return cls(blob[:-16], KeySpan(offset, length))


class KeyLedger:
    """Shared secret bits from the last key exchange, with a consumption
    counter. Both honest parties hold the identical ledger and advance it in
    protocol order, so span bookkeeping never diverges.
    """

    def __init__(self, key_bytes: bytes):
        self._pad: bytes | None = bytes(key_bytes)
        self.bit_length = 8 * len(self._pad)
        self.consumed = 0
        self.issued: list[KeySpan] = []

    @classmethod
    def generate(cls, n_bits: int, seed: int) -> "KeyLedger":
        """n_bits of seeded key. The bits are drawn the first time a span is
        read or taken, so a run that spends no key draws none. The pad is the
        raw 64-bit words of a PCG64 stream seeded with derive_seed(seed,
        0xFEED), little-endian, cut to whole bytes: the bytes
        Generator.bytes would give, without its uint32 round trip."""
        if not 0 <= n_bits <= MAX_KEY_BITS:
            raise ConfigError(f"n_bits: must be in [0, {MAX_KEY_BITS}]")
        ledger = cls(b"")
        ledger.bit_length, ledger._pad, ledger._seed = n_bits, None, seed
        return ledger

    @property
    def _key(self) -> bytes:
        if self._pad is None:
            nbytes = (self.bit_length + 7) // 8
            words = np.random.PCG64(derive_seed(self._seed, 0xFEED)).random_raw((nbytes + 7) // 8)
            self._pad = words.astype("<u8").tobytes()[:nbytes]
        return self._pad

    @property
    def remaining_bits(self) -> int:
        return self.bit_length - self.consumed

    def _slice(self, span: KeySpan) -> bytes:
        if span.offset % 8 or span.length % 8:
            raise UnknownSpanError("key spans must be byte aligned")
        if span.offset + span.length > self.bit_length:
            raise UnknownSpanError(
                f"span [{span.offset}, {span.offset + span.length}) exceeds "
                f"ledger of {self.bit_length} bits"
            )
        start = span.offset // 8
        return self._key[start : start + span.length // 8]

    def take(self, n_bits: int) -> tuple[KeySpan, bytes]:
        """Consume the next n_bits. Raises KeyExhaustedError when the ledger
        cannot cover them (the deployment must re-key)."""
        if n_bits > self.remaining_bits:
            raise KeyExhaustedError(
                f"need {n_bits} key bits, only {self.remaining_bits} remain"
            )
        span = KeySpan(self.consumed, n_bits)
        self.consumed += n_bits
        self.issued.append(span)
        return span, self._slice(span)

    def read(self, span: KeySpan) -> bytes:
        """Read previously issued bits for verification; never consumes."""
        return self._slice(span)

    def audit_one_time(self) -> bool:
        """True iff no issued spans overlap and consumption adds up."""
        spans = sorted(self.issued, key=lambda s: s.offset)
        cursor = 0
        total = 0
        for span in spans:
            if span.offset < cursor:
                return False
            cursor = span.offset + span.length
            total += span.length
        return total == self.consumed and cursor <= self.bit_length


def hash_message(payload: bytes) -> bytes:
    """The 32-byte sha256 digest of payload."""
    return hashlib.sha256(payload).digest()


def _xor(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR, cut to the shorter input as zip would cut it."""
    n = min(len(a), len(b))
    return (int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")


def encrypt_digest(digest: bytes, ledger: KeyLedger) -> AuthTag:
    """One-time-pad the digest with the next unconsumed key bits."""
    span, pad = ledger.take(8 * len(digest))
    return AuthTag(_xor(digest, pad), span)


def verify(payload: bytes, tag: AuthTag, ledger_view: KeyLedger) -> bool:
    """Recompute the payload hash, decrypt the tag with the named span, and
    compare. False means the payload or the tag was altered in flight."""
    if len(tag.ciphertext) * 8 != tag.span.length:
        return False
    pad = ledger_view.read(tag.span)
    return _xor(tag.ciphertext, pad) == hashlib.sha256(payload).digest()
