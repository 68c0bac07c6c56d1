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

import functools
import hashlib
import operator
import struct
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, KeyExhaustedError, UnknownSpanError
from .noise import derive_seed


# the largest key a ledger holds: a 128 MiB pad
MAX_KEY_BITS = 2**30

# key_pad keeps the 16 pads it last drew, of up to PAD_MEMO_BYTES each: 64 KiB
# at most. A longer pad is drawn on every call. Where no seed repeats the
# memo only churns: there a 1 MiB budget cost 1.3 MB of peak RSS, and a
# 256 KiB one extra page faults.
PAD_MEMO_BYTES = 2**12


def _draw_pad(seed: int, nbytes: int) -> bytes:
    words = np.random.PCG64(derive_seed(seed, 0xFEED)).random_raw((nbytes + 7) // 8)
    return words.astype("<u8").tobytes()[:nbytes]


_kept_pad = functools.lru_cache(maxsize=16)(_draw_pad)


def key_pad(seed: int, nbytes: int) -> bytes:
    """nbytes of the key seeded by seed: the raw 64-bit words of a PCG64
    stream seeded with derive_seed(seed, 0xFEED), little-endian, cut to
    whole bytes (the bytes Generator.bytes would give, without its uint32
    round trip).

    The pad is a pure function of (seed, nbytes), and bytes are immutable,
    so every caller gets the one drawn copy: a pad of at most
    PAD_MEMO_BYTES is kept in an lru_cache of the 16 last drawn.
    """
    # as an int, so that a float seed raises TypeError as derive_seed does
    # instead of finding its integer's pad
    seed = operator.index(seed)
    return (_kept_pad if nbytes <= PAD_MEMO_BYTES else _draw_pad)(seed, nbytes)


# The spans and tags a run builds are made with tuple.__new__(Type, fields):
# the very value Type(*fields) gives, without the Python frame of the
# NamedTuple's generated __new__.
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
        return tuple.__new__(cls, (blob[:-16], tuple.__new__(KeySpan, (offset, length))))


class KeyLedger:
    """Shared secret bits from the last key exchange, with a consumption
    counter. Both honest parties hold the identical ledger and advance it in
    protocol order, so span bookkeeping never diverges. generate builds one.
    """

    @classmethod
    def generate(cls, n_bits: int, seed: int) -> "KeyLedger":
        """n_bits of seeded key, key_pad(seed, whole bytes). The pad is
        drawn the first time a span is read or taken, so a run that spends
        no key draws none. It is memoised: ledgers of one seed and size
        share one immutable pad, each with its own consumption counter, and
        key_pad keeps the 16 pads it last drew, of up to PAD_MEMO_BYTES
        (4 KiB) each."""
        if not 0 <= n_bits <= MAX_KEY_BITS:
            raise ConfigError(f"n_bits: must be in [0, {MAX_KEY_BITS}]")
        ledger = object.__new__(cls)
        ledger.bit_length, ledger.consumed, ledger._seed, ledger._pad = n_bits, 0, seed, None
        return ledger

    @property
    def remaining_bits(self) -> int:
        return self.bit_length - self.consumed

    def read(self, span: KeySpan) -> bytes:
        """The key bits of span, as a tag's sender took them; never consumes.
        The pad is drawn here, on the ledger's first read."""
        offset, length = span
        if offset < 0 or length < 0:
            raise UnknownSpanError("key spans must not have a negative offset or length")
        if offset % 8 or length % 8:
            raise UnknownSpanError("key spans must be byte aligned")
        end = offset + length
        if end > self.bit_length:
            raise UnknownSpanError(f"span [{offset}, {end}) exceeds ledger of {self.bit_length} bits")
        pad = self._pad
        if pad is None:
            pad = self._pad = key_pad(self._seed, (self.bit_length + 7) // 8)
        return pad[offset // 8 : end // 8]

    def take(self, n_bits: int) -> tuple[KeySpan, bytes]:
        """Consume the next n_bits. Raises KeyExhaustedError when the ledger
        cannot cover them (the deployment must re-key), and UnknownSpanError
        for a count that is negative or not whole bytes; either leaves it
        unchanged."""
        if n_bits > self.bit_length - self.consumed:
            raise KeyExhaustedError(
                f"need {n_bits} key bits, only {self.remaining_bits} remain"
            )
        span = tuple.__new__(KeySpan, (self.consumed, n_bits))
        pad = self.read(span)
        self.consumed += n_bits
        return span, pad


def hash_message(payload: bytes) -> bytes:
    """The 32-byte sha256 digest of payload."""
    return hashlib.sha256(payload).digest()


def encrypt_digest(digest: bytes, ledger: KeyLedger) -> AuthTag:
    """One-time-pad the digest with the next unconsumed key bits: the bytes
    of digest XOR those of the pad, as integers, which keeps leading zero
    bytes."""
    n = len(digest)
    span, pad = ledger.take(8 * n)  # n bytes of pad
    ciphertext = (int.from_bytes(digest, "big") ^ int.from_bytes(pad, "big")).to_bytes(n, "big")
    return tuple.__new__(AuthTag, (ciphertext, span))


def verify_digest(digest: bytes, tag: AuthTag, ledger_view: KeyLedger) -> bool:
    """Decrypt the tag with the named span and compare it with digest, the
    hash of the payload that arrived. False means the payload or the tag
    was altered in flight."""
    ciphertext, span = tag
    n = len(ciphertext)
    if n * 8 != span.length:
        return False
    plain = int.from_bytes(ciphertext, "big") ^ int.from_bytes(ledger_view.read(span), "big")
    return plain.to_bytes(n, "big") == digest


def verify(payload: bytes, tag: AuthTag, ledger_view: KeyLedger) -> bool:
    """verify_digest of the payload's hash_message."""
    return verify_digest(hash_message(payload), tag, ledger_view)
