"""The three clock-synchronization protocols.

Protocol A is the bare two-way timestamp exchange: Alice announces her time,
Bob reports when he saw it and when he replied, Alice shares her arrival
time, and the two unknowns (Bob's offset and the propagation delay) fall out
of the two one-way equations. It synchronizes perfectly over an honest
channel and is trivially attackable: an asymmetric extra delay d on one leg
biases the recovered offset by d/2 in whichever direction, and nothing
flags.

Protocol B is the same exchange with every message authenticated by an
encrypted hash fingerprint. Substituted content is detected; channel
manipulation that leaves content intact (delays, a changed line) is not.

Protocol C synchronizes during normal bit exchange: both parties record
their terminal voltage and current against their own clocks, swap the
records through authenticated file transfer, and each feeds the other's
record, shifted by a trial offset, into a wire model (Ohm's law with the
known wire resistance). The shift that makes the simulated current match
the measured one is the negative of Bob's clock offset, and any line
tampering during the record shows up as a residual floor no shift can
remove. A combined check follows Protocol C with a random-time Protocol B
probe: the probe's offset should now be zero and its delay estimate should
match the nominal propagation time, which catches the delay games that C
alone cannot see.
"""

from __future__ import annotations

import copyreg
import enum
import math
import struct
import typing
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .auth import AuthTag, encrypt_digest, hash_message, verify, verify_digest
from .bepfile import BepFile, build_bep_file
from .channel import Direction, Envelope
from .config import ProtocolConfig
from .errors import ConfigError, InsufficientOverlapError
from .line import Party, ResistorChoice, simulate_bep
from .noise import derive_seed
from .scenario import Scenario

if TYPE_CHECKING:  # harness imports this module
    from .harness import ScenarioConfig

# spawn-key namespaces for the per-purpose random streams; each keys the
# draws of every seeded report, so a value is never reused or renumbered
_SEED_CHOICE_A = 1
_SEED_CHOICE_B = 2
_SEED_BEP = 3
_SEED_PROBE = 5

# the combined check's probe starts fewer than this many clock quanta after
# the next tick past the last event
PROBE_WAIT_QUANTA = 1_000_000

# the protocols a result may name: the kinds a config runs
PROTOCOL_KINDS = typing.get_args(typing.get_type_hints(ProtocolConfig)["kind"])


# the values a two-way message may carry, in the order of their field
# numbers: a message's encoding writes each one it carries under its number
MESSAGE_VALUES = ("t1", "t1_star", "t2_star", "t2")


class MessageKind(enum.Enum):
    """A two-way message's kind, which keeps its encoding plan: fields, the
    values its messages carry; plan, each of them as (field number, name);
    and prefix, the kind's name in ASCII, which starts the encoding. The
    plan is read off the member: a dict keyed by the kind would run Enum's
    Python-level __hash__ on every lookup."""

    TIME_STAMP = "TimeStamp", ("t1",)
    RESPONSE = "Response", ("t1_star", "t2_star")
    SHARE = "Share", ("t2",)

    def __new__(cls, value: str, fields: tuple[str, ...]):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.fields = fields
        kind.plan = tuple((MESSAGE_VALUES.index(name), name) for name in fields)
        kind.prefix = value.encode("ascii")
        return kind


class _MessageFields(NamedTuple):
    kind: MessageKind
    t1: Optional[float]
    t1_star: Optional[float]
    t2_star: Optional[float]
    t2: Optional[float]
    tag: Optional[AuthTag]
    # made by the constructor from the fields above, tag excluded
    encoding: bytes


class SyncMessage(_MessageFields):
    """One message of the two-way exchange: an immutable tuple whose
    encoding is made once, when it is built.

    SyncMessage(kind, **fields) is its one constructor. fields holds each
    value kind carries (kind.fields), all required, and optionally tag; a
    value another kind carries may be given only as None. It checks them,
    encodes the message and builds the tuple in one call. Every other way
    to a message goes through it or is refused: _replace (Eve's rewrite),
    copy, deepcopy and pickle build the changed or copied message afresh,
    and _make, which would take an encoding as given, raises TypeError.
    Only tagged keeps an encoding: it adds the tag the sender made from
    it, and the tag is not part of it.
    """

    __slots__ = ()

    def __new__(cls, kind: MessageKind, **fields) -> SyncMessage:
        # the tuple's items: kind, the four values, tag, encoding
        items = [kind, None, None, None, None, fields.pop("tag", None), None]
        parts = [kind.prefix]
        for i, name in kind.plan:
            value = fields.pop(name, None)
            if value is None:
                raise ConfigError(f"{kind._value_} message requires {name}")
            items[i + 1] = value
            parts.append(struct.pack(">Bd", i, value))
        for name, value in fields.items():  # what no field of kind took
            if value is not None or name not in MESSAGE_VALUES:
                raise ConfigError(f"{name}: a {kind._value_} message carries only {', '.join(kind.fields)} and tag")
        items[6] = b"|".join(parts)
        return tuple.__new__(cls, items)

    def canonical_bytes(self) -> bytes:
        """Deterministic encoding of the content (tag excluded): the kind
        name plus each field the kind carries as a tagged big-endian
        double."""
        return self.encoding

    def tagged(self, tag: AuthTag) -> SyncMessage:
        """The message with tag, the one its sender made from its encoding,
        built in one call: the fields and encoding are this message's."""
        kind, t1, t1_star, t2_star, t2, _, encoding = self
        return tuple.__new__(SyncMessage, (kind, t1, t1_star, t2_star, t2, tag, encoding))

    def _content(self) -> dict:
        """The fields the constructor builds this message from, by name."""
        return {"kind": self.kind, "t1": self.t1, "t1_star": self.t1_star, "t2_star": self.t2_star,
                "t2": self.t2, "tag": self.tag}

    def _replace(self, **changes) -> SyncMessage:
        """The message with changes made, built by the constructor, so
        checked and encoded afresh. Changing the encoding is refused."""
        return SyncMessage(**{**self._content(), **changes})

    @classmethod
    def _make(cls, iterable) -> SyncMessage:
        raise TypeError("SyncMessage._make: a message is built by SyncMessage(kind, **fields), which encodes it")

    def __reduce__(self):
        # copy, deepcopy and pickle, at any protocol, call the constructor
        # with the content fields, which encodes the copy afresh
        return copyreg.__newobj_ex__, (SyncMessage, (), self._content())


class _ResultFields(NamedTuple):
    protocol: str  # the config's kind: "A", "B", "C" or "Combined"
    t0_est: Optional[float]
    tau_est: Optional[float]
    residual: Optional[float]
    auth_ok: bool
    attack_flag: bool
    detail: str


class SyncResult(_ResultFields):
    """Outcome of one synchronization run: an immutable tuple.

    attack_flag is true whenever authentication failed, the integrity
    residual exceeded its threshold, or the measured propagation delay
    strayed from nominal; estimates from a flagged run are discarded.

    SyncResult(protocol, t0_est, tau_est, residual, auth_ok, attack_flag,
    detail) is its one constructor: it raises ConfigError for a protocol
    no config runs, or a failed authentication without the flag. _make
    (and so _replace), copy, deepcopy and pickle go through it.
    """

    __slots__ = ()

    def __new__(cls, protocol, t0_est, tau_est, residual, auth_ok, attack_flag, detail) -> SyncResult:
        if protocol not in PROTOCOL_KINDS:
            raise ConfigError(f"result.protocol: {protocol!r} is not one of {', '.join(PROTOCOL_KINDS)}")
        if not auth_ok and not attack_flag:
            raise ConfigError("result: failed authentication must raise the attack flag")
        return tuple.__new__(cls, (protocol, t0_est, tau_est, residual, auth_ok, attack_flag, detail))

    @classmethod
    def _make(cls, iterable) -> SyncResult:
        return cls(*iterable)

    def __reduce__(self):
        # copy, deepcopy and pickle, at any protocol, call the constructor
        return SyncResult, tuple(self)


@dataclass(frozen=True)
class FileTransfer:
    """A measurement file plus its tag, as carried by one envelope."""

    file: BepFile
    tag: AuthTag

    def sha256(self):
        """The SHA-256 state of the transfer as serialize_bep_file writes
        it: a copy of the record's kept hash, extended by the tag's bytes."""
        state = self.file.sha256()
        state.update(self.tag.to_bytes())
        return state


# ---------------------------------------------------------------------------
# Protocols A and B: two-way timestamp exchange
# ---------------------------------------------------------------------------


def _stalled(kind: str) -> SyncResult:
    if kind == "A":  # A has nothing to detect with: a stall is a failure, not a flag
        detail = "incomplete: synchronization exchange never finished"
        return SyncResult(kind, None, None, None, auth_ok=True, attack_flag=False, detail=detail)
    return SyncResult(kind, None, None, None, auth_ok=False, attack_flag=True, detail="timeout: exchange stalled")


def _two_way(scenario: Scenario, kind: str, start_absolute: float) -> SyncResult:
    """One A or B exchange, three messages sent in turn; a message Eve
    drops ends it. Only B tags its messages, and it checks the tags of all
    three once they have arrived."""
    authenticated = kind == "B"
    # read once per run, not once per message
    ledger, scheduler = scenario.ledger, scenario.scheduler
    alice, bob = scenario.alice_clock, scenario.bob_clock

    def leg(msg: SyncMessage, direction: Direction, now: float) -> Optional[Envelope]:
        """Send msg and run the channel until idle: the envelope delivered,
        or None when Eve dropped it."""
        digest = None
        if authenticated:
            # the tag is not part of the encoding: the sender hashes the
            # message it has just built and sends it tagged, before the
            # channel sees it, and the digest it tagged is the one the
            # event log shows
            digest = hash_message(msg.encoding)
            msg = msg.tagged(encrypt_digest(digest, ledger))
            digest = digest.hex()
        scheduler.send(msg, direction, now, digest)
        delivered: list[Envelope] = []
        scheduler.run_until_idle(delivered.append)
        return delivered[-1] if delivered else None

    t1 = alice.read(start_absolute)
    stamp = leg(SyncMessage(MessageKind.TIME_STAMP, t1=t1), Direction.A_TO_B, start_absolute)
    if stamp is None:
        return _stalled(kind)
    # at Bob: note arrival, think, respond with both of his stamps
    respond_at = stamp.deliver_absolute + scenario.config.channel.processing_delay
    reply = SyncMessage(MessageKind.RESPONSE, t1_star=bob.read(stamp.deliver_absolute), t2_star=bob.read(respond_at))
    response = leg(reply, Direction.B_TO_A, respond_at)
    if response is None:
        return _stalled(kind)
    # at Alice: record her arrival time and share it
    t2 = alice.read(response.deliver_absolute)
    share = leg(SyncMessage(MessageKind.SHARE, t2=t2), Direction.A_TO_B, response.deliver_absolute)
    if share is None:
        return _stalled(kind)
    if authenticated:
        for msg in (stamp.payload, response.payload, share.payload):
            if not verify(msg.encoding, msg.tag, ledger):
                detail = "authentication failed"
                return SyncResult(kind, None, None, None, auth_ok=False, attack_flag=True, detail=detail)
    t1_star, t2_star = response.payload.t1_star, response.payload.t2_star
    t0 = (t1_star - t1 - t2 + t2_star) / 2.0
    tau = (t1_star - t1 + t2 - t2_star) / 2.0
    return SyncResult(kind, t0, tau, None, auth_ok=True, attack_flag=False, detail="")


def protocol_a(scenario: Scenario) -> SyncResult:
    """Undefended two-way synchronization. Recovers (t0, tau) exactly over an
    honest channel; never raises an attack flag because it has nothing to
    check. A stalled exchange is reported unflagged, as incomplete."""
    return _two_way(scenario, "A", 0.0)


def protocol_b(scenario: Scenario, start_absolute: float = 0.0) -> SyncResult:
    """Authenticated two-way synchronization. Content substitution is caught
    by the tags; a stalled exchange is reported as a timeout detection. Pure
    delay or line-length games pass unflagged - the combined check exists
    for those."""
    return _two_way(scenario, "B", start_absolute)


# ---------------------------------------------------------------------------
# Protocol C: integrity-check synchronization over measurement files
# ---------------------------------------------------------------------------


def exchange_files(
    scenario: Scenario,
    file_a: BepFile,
    file_b: BepFile,
    send_absolute: float,
) -> tuple[dict[Direction, BepFile], str]:
    """Swap the two measurement files through the authenticated channel.

    Each file crosses with a one-time-pad encrypted hash of its serialized
    payload. The receiver checks the tag against the received record's own
    hash, which the record computes once from its bytes (BepFile.sha256):
    the sender's tag, the event log's digest and this check share one
    SHA-256 pass over each record, and a record Eve forged or replayed is
    hashed from its own bytes. The BEP index and line-config digest sit
    inside the hashed bytes, so a replayed or re-parameterized file is
    caught even though its tag verifies: each received file must carry
    file_a's BEP index and the local config digest.

    Returns (received, problem): received maps each direction to the file
    delivered along it, and problem is "" or the one thing wrong with the
    exchange. A stall outranks a failed tag, which outranks a stale or
    mismatched file.
    """
    ledger, sched = scenario.ledger, scenario.scheduler
    for file, direction in ((file_a, Direction.A_TO_B), (file_b, Direction.B_TO_A)):
        sched.send(FileTransfer(file, encrypt_digest(file.sha256().digest(), ledger)), direction, send_absolute)
    delivered: list[Envelope] = []
    sched.run_until_idle(delivered.append)
    transfers = {env.direction: env.payload for env in delivered}  # the last in each direction
    received = {direction: transfer.file for direction, transfer in transfers.items()}
    if len(received) < 2:
        return received, "timeout: file exchange stalled"
    if not all(verify_digest(t.file.sha256().digest(), t.tag, ledger) for t in transfers.values()):
        return received, "authentication failed"
    local_digest = scenario.config.line.digest
    fresh = all(f.bep_index == file_a.bep_index and f.config_digest == local_digest for f in received.values())
    return received, "" if fresh else "stale or mismatched file"


def residual_curve(file_ref: BepFile, file_other: BepFile, r_wire: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized mean-square mismatch against the wire model, per shift.

    The candidate shifts lie on the sample lattice. With base the offset,
    in samples, between the two records' start stamps, shift j + frac(base)
    maps reference sample n exactly onto other sample n + m, m = rint(base)
    - j, so no interpolation is needed. Every shift whose overlap keeps at
    least half of the reference record is a candidate: about +-N/2 samples
    for two N-sample records. The two terminal voltages drive the wire
    model: I_sim = (U_alice - U_bob) / r_wire is compared with the
    reference party's measured current I, and the residual is
    sum((I_sim - I)^2) / sum(I^2) over the overlap.

    Written as sum((a - b)^2) / sum(I^2), with a = +-U_ref / r_wire - I and
    b = +-U_other / r_wire, the numerator is expanded into sum(a^2) -
    2 sum(a b) + sum(b^2): the cross term of every shift comes from one FFT
    cross-correlation, the energies and the denominator from prefix sums.
    The expansion cancels badly where the residual is small, so the minimum
    and its two neighbours are computed again directly. The records'
    samples are big-endian views of their payloads; each of the three
    sample arrays is copied once into native byte order, which every pass
    then reads without swapping, bit for bit as the views.

    Returns (shifts_seconds, residuals), shifts ascending. Raises
    InsufficientOverlapError when no shift leaves half the reference record
    usable.
    """
    if r_wire <= 0:
        raise ConfigError("r_wire: alignment search needs a positive wire resistance")
    if file_ref.sample_rate != file_other.sample_rate:
        raise ConfigError("files: sample rates differ")
    n_ref, n_other = len(file_ref), len(file_other)
    if n_ref == 0 or n_other == 0:
        raise ConfigError("files: empty record")

    fs = file_ref.sample_rate
    base = (file_ref.local_start - file_other.local_start) * fs

    # lags m, descending so that shifts ascend, and each one's overlap
    # [lo, hi) on the reference record. The overlap min(n_ref, n_other - m)
    # - max(0, -m) keeps need = ceil(n_ref / 2) samples exactly for m in
    # [need - n_ref, n_other - need], one run that is empty iff n_other < need
    need = (n_ref + 1) // 2
    if n_other < need:
        raise InsufficientOverlapError(
            f"no shift leaves half of the {n_ref}-sample record overlapping "
            f"the {n_other}-sample one"
        )
    m = np.arange(n_other - need, need - n_ref - 1, -1)
    lo = np.maximum(0, -m)
    hi = np.minimum(n_ref, n_other - m)

    sign = 1.0 if file_ref.party is Party.ALICE else -1.0
    v_ref, v_other, i_ref = (
        np.asarray(x, float) for x in (file_ref.voltage_samples, file_other.voltage_samples, file_ref.current_samples)
    )
    a = sign * v_ref / r_wire - i_ref
    b = sign * v_other / r_wire

    size = 1 << (n_ref + n_other - 2).bit_length()  # a power of two >= n_ref + n_other - 1
    spectrum = np.conj(np.fft.rfft(a, size)) * np.fft.rfft(b, size)
    cross = np.fft.irfft(spectrum, size)[m % size]  # sum over n of a[n] b[n + m]

    def prefix(x: np.ndarray) -> np.ndarray:
        sums = np.empty(x.size + 1)
        sums[0] = 0.0
        np.cumsum(x, out=sums[1:])
        return sums

    energy_a, energy_b, energy_i = prefix(a * a), prefix(b * b), prefix(i_ref**2)
    num = energy_a[hi] - energy_a[lo] - 2.0 * cross + energy_b[hi + m] - energy_b[lo + m]
    den = energy_i[hi] - energy_i[lo]
    residuals = np.full(m.size, np.inf)
    # rounding can take the expanded numerator of a near-zero residual below 0
    np.divide(np.maximum(num, 0.0), den, out=residuals, where=den > 0)

    def direct(k: int) -> float:
        n = slice(lo[k], hi[k])
        v_diff = sign * (v_ref[n] - v_other[lo[k] + m[k] : hi[k] + m[k]])
        i_meas = i_ref[n]
        mismatch, norm = np.sum((v_diff / r_wire - i_meas) ** 2), np.sum(i_meas**2)
        return mismatch / norm if norm > 0 else np.inf

    best = int(np.argmin(residuals))
    for k in range(max(best - 1, 0), min(best + 2, m.size)):
        residuals[k] = direct(k)

    return (base - m) / fs, residuals


def _pick_minimum(shifts: np.ndarray, residuals: np.ndarray) -> int:
    # smallest residual, NaN last; ties go to the smallest |shift| (the null
    # hypothesis of already-synchronized clocks), then the negative shift
    finite = residuals[~np.isnan(residuals)]
    ties = np.flatnonzero(residuals == finite.min()) if finite.size else np.arange(residuals.size)
    nearest = ties[np.abs(shifts[ties]) == np.abs(shifts[ties]).min()]
    return int(nearest[np.argmin(shifts[nearest])])


def bep_start_time(config: ScenarioConfig, k: int) -> float:
    """Absolute start of BEP k on the shared timeline: records are taken
    back to back with enough slack after each for the file exchange."""
    slack = 4.0 * config.channel.tau
    return k * (config.line.bep_duration + slack)


def _draw_choices(scenario: Scenario, k: int) -> tuple[ResistorChoice, ResistorChoice]:
    rng_a = np.random.default_rng(derive_seed(scenario.config.seed, _SEED_CHOICE_A, k))
    rng_b = np.random.default_rng(derive_seed(scenario.config.seed, _SEED_CHOICE_B, k))
    c_a = ResistorChoice.L if rng_a.integers(2) == 0 else ResistorChoice.H
    c_b = ResistorChoice.L if rng_b.integers(2) == 0 else ResistorChoice.H
    return c_a, c_b


def run_bep(scenario: Scenario, k: int):
    """Simulate BEP k with the parties' current clocks and any installed
    line modification, and log it in the scenario trace."""
    t_k = bep_start_time(scenario.config, k)
    c_a, c_b = _draw_choices(scenario, k)
    meas_a, meas_b = simulate_bep(
        c_a,
        c_b,
        scenario.config.line,
        derive_seed(scenario.config.seed, _SEED_BEP, k),
        bep_index=k,
        start_absolute=t_k,
        offset_B=scenario.bob_clock.offset,
        r_wire_schedule=scenario.r_wire_schedule or None,
    )
    scenario.scheduler.record(t_k, "bep")
    scenario.diagnostics.setdefault("first_bep_voltage", meas_a.voltage)
    scenario.diagnostics.setdefault("bep_msq", []).append(meas_a.msq_voltage)
    return meas_a, meas_b


def protocol_c(scenario: Scenario) -> SyncResult:
    """Integrity-check synchronization over one or more BEPs.

    Per BEP: record, exchange files with authentication, and accumulate the
    residual curve; curves from multiple BEPs are averaged before the
    minimum is taken, which sharpens the valley. Alice and Bob run the
    search symmetrically (their shifts are negatives of each other). Each
    party's minimum must reach residual_threshold, and its estimate is the
    lattice shift there, which carries the fractional part of the
    start-stamp offset. While Bob samples on Alice's instants, as the
    simulated records do, that shift is the true offset, so Bob, as the
    non-master, applies it and his clock offset is zero to round-off. The
    run is flagged, and no correction applied, when any file fails
    authentication or freshness, when no shift explains the data (line
    modified mid-record), or when the two shifts disagree.

    This protocol produces no propagation-delay estimate; only the embedded
    two-way probe of the combined check measures tau.
    """
    line, search = scenario.config.line, scenario.config.protocol

    curves_alice: list[tuple[np.ndarray, np.ndarray]] = []
    curves_bob: list[tuple[np.ndarray, np.ndarray]] = []

    for k in search.k_range:
        meas_a, meas_b = run_bep(scenario, k)
        file_a = build_bep_file(meas_a, line)
        file_b = build_bep_file(meas_b, line)
        send_at = bep_start_time(scenario.config, k) + line.bep_duration
        received, problem = exchange_files(scenario, file_a, file_b, send_at)
        if problem:
            return SyncResult("C", None, None, None, auth_ok=False, attack_flag=True, detail=problem)
        # Alice searches her own record against Bob's received copy; Bob
        # does the mirror image with Alice's received copy, on his own grid.
        curves_alice.append(residual_curve(file_a, received[Direction.B_TO_A], line.R_wire))
        curves_bob.append(residual_curve(file_b, received[Direction.A_TO_B], line.R_wire))

    # every BEP's records have the same lengths, so position p of each curve
    # is the same index lag; its shifts differ only by the float rounding of
    # each BEP's start-stamp difference
    shifts_alice, mean_alice = np.mean(curves_alice, axis=0)
    shifts_bob, mean_bob = np.mean(curves_bob, axis=0)
    i_alice, i_bob = _pick_minimum(shifts_alice, mean_alice), _pick_minimum(shifts_bob, mean_bob)
    width = 2 * search.dt_window + 1
    lo = max(min(i_alice - search.dt_window, mean_alice.size - width), 0)
    scenario.diagnostics["residual_curve"] = (shifts_alice[lo : lo + width], mean_alice[lo : lo + width])

    # either party's grid minimum left above threshold: the line was
    # modified mid-record, or the model is wrong
    best = float(mean_alice[i_alice])
    for residual in (best, float(mean_bob[i_bob])):
        if not residual <= search.residual_threshold:
            return SyncResult(
                "C", None, None, residual,
                auth_ok=True, attack_flag=True,
                detail=f"no shift explains the data (residual {residual:.3e})",
            )

    dt_alice, dt_bob = float(shifts_alice[i_alice]), float(shifts_bob[i_bob])
    t0_est = -dt_alice
    # symmetric searches must agree (their shifts are mutual negatives)
    if abs(dt_alice + dt_bob) > 1.0 / line.sample_rate:
        return SyncResult(
            "C", t0_est, None, best,
            auth_ok=True, attack_flag=True, detail="parties' shift estimates disagree",
        )

    # Bob, the non-master, corrects his clock
    scenario.bob_clock = scenario.bob_clock.corrected(t0_est)
    return SyncResult("C", t0_est, None, best, auth_ok=True, attack_flag=False, detail="")


def combined_check(scenario: Scenario) -> SyncResult:
    """Full verdict: Protocol C plus a random-time authenticated probe.

    Passes only when (a) the probe's offset estimate is zero within
    tolerance (C already corrected Bob's clock), (b) the probe's delay
    estimate matches the nominal propagation time, and (c) the integrity
    residual stayed below threshold. Failing any leg raises the attack
    flag. When C flagged it made no correction, and the probe's offset is
    not checked.
    """
    c_result = protocol_c(scenario)

    # probe at a random later instant, snapped to the clock grid (parties
    # initiate on their own clock ticks)
    last = max((rec.absolute for rec in scenario.scheduler.log), default=0.0)
    rng = np.random.default_rng(derive_seed(scenario.config.seed, _SEED_PROBE))
    q = scenario.config.clock.quantum
    wait = float(rng.integers(1_000, PROBE_WAIT_QUANTA)) * q
    probe_start = (math.ceil(last / q) + 1) * q + wait

    b_result = protocol_b(scenario, start_absolute=probe_start)

    nominal_tau = scenario.config.channel.tau
    tolerances = scenario.config.protocol
    failures = []
    if c_result.attack_flag:
        failures.append(f"integrity check: {c_result.detail}")
    if b_result.attack_flag:
        failures.append(f"probe: {b_result.detail}")
    else:
        # a flagged C corrected nothing, so the probe sees the configured offset
        if not c_result.attack_flag and abs(b_result.t0_est) > tolerances.t0_tol_quanta * q:
            failures.append(f"offset after correction is {b_result.t0_est:.3e}s, not zero")
        if abs(b_result.tau_est - nominal_tau) > tolerances.tau_tol_quanta * q:
            failures.append(
                f"propagation delay {b_result.tau_est:.6e}s deviates from "
                f"nominal {nominal_tau:.6e}s"
            )

    return SyncResult(
        "Combined",
        b_result.t0_est,
        b_result.tau_est,
        c_result.residual,
        auth_ok=c_result.auth_ok and b_result.auth_ok,
        attack_flag=bool(failures),
        detail="; ".join(failures),
    )
