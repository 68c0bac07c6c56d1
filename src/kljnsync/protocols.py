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

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .auth import AuthTag, encrypt_digest, hash_message, verify
from .bepfile import BepFile, build_bep_file
from .channel import Direction, Envelope, Scheduler, quantize
from .config import ProtocolConfig
from .errors import (
    ConfigError,
    FlatResidualError,
    InsufficientOverlapError,
    ProtocolIncompleteError,
)
from .line import Party, ResistorChoice, simulate_bep
from .noise import derive_seed
from .scenario import Scenario

# spawn-key namespaces for the per-purpose random streams
_SEED_CHOICE_A = 1
_SEED_CHOICE_B = 2
_SEED_BEP = 3
_SEED_EVE = 4
_SEED_PROBE = 5


class MessageKind(enum.Enum):
    TIME_STAMP = "TimeStamp"
    RESPONSE = "Response"
    SHARE = "Share"


MESSAGE_FIELDS = {
    MessageKind.TIME_STAMP: ("t1",),
    MessageKind.RESPONSE: ("t1_star", "t2_star"),
    MessageKind.SHARE: ("t2",),
}


@dataclass(frozen=True)
class SyncMessage:
    kind: MessageKind
    t1: Optional[float] = None
    t1_star: Optional[float] = None
    t2_star: Optional[float] = None
    t2: Optional[float] = None
    tag: Optional[AuthTag] = None
    # made when the message is built, so a message rewritten with
    # dataclasses.replace is encoded afresh
    _encoding: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in MESSAGE_FIELDS[self.kind]:
            if getattr(self, name) is None:
                raise ConfigError(f"{self.kind.value} message requires {name}")
        parts = [self.kind.value.encode("ascii")]
        for i, value in enumerate((self.t1, self.t1_star, self.t2_star, self.t2)):
            if value is not None:
                parts.append(struct.pack(">Bd", i, value))
        object.__setattr__(self, "_encoding", b"|".join(parts))

    def canonical_bytes(self) -> bytes:
        """Deterministic encoding of the content (tag excluded): the kind
        name plus each populated field as a tagged big-endian double."""
        return self._encoding


class ProtocolKind(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    COMBINED = "Combined"


@dataclass(frozen=True)
class SyncResult:
    """Outcome of one synchronization run.

    attack_flag is true whenever authentication failed, the integrity
    residual exceeded its threshold, or the measured propagation delay
    strayed from nominal; estimates from a flagged run are discarded.
    """

    protocol: ProtocolKind
    t0_est: Optional[float]
    tau_est: Optional[float]
    residual: Optional[float]
    auth_ok: bool
    attack_flag: bool
    detail: str = ""

    def __post_init__(self):
        if not self.auth_ok and not self.attack_flag:
            raise ConfigError("result: failed authentication must raise the attack flag")


@dataclass(frozen=True)
class FileTransfer:
    """A measurement file plus its tag, as carried by one envelope."""

    file: BepFile
    tag: AuthTag

    def canonical_bytes(self) -> bytes:
        return b"".join((self.file.payload_bytes(), self.tag.to_bytes()))


# ---------------------------------------------------------------------------
# Protocols A and B: two-way timestamp exchange
# ---------------------------------------------------------------------------


class _TwoWayRun:
    """State machine for one A/B exchange, driven by the scheduler."""

    def __init__(self, scenario: Scenario, authenticated: bool):
        self.scenario = scenario
        self.authenticated = authenticated
        self.alice, self.bob = scenario.clock(Party.ALICE), scenario.clock(Party.BOB)
        self.resolution = scenario.clock_config.quantization
        self.t1: Optional[float] = None
        self.t1_star: Optional[float] = None
        self.t2_star: Optional[float] = None
        self.t2: Optional[float] = None
        self.share_delivered = False
        self.verdicts: list[bool] = []

    def _send(self, msg: SyncMessage, direction: Direction, now: float) -> None:
        if self.authenticated:
            # the tag is not part of the encoding: the sender tags the
            # message it has just built, before the channel sees it
            tag = encrypt_digest(hash_message(msg.canonical_bytes()), self.scenario.ledger)
            object.__setattr__(msg, "tag", tag)
        self.scenario.scheduler.send(msg, direction, now)

    def _check(self, msg: SyncMessage) -> None:
        if self.authenticated:
            tag = msg.tag
            self.verdicts.append(tag is not None and verify(msg.canonical_bytes(), tag, self.scenario.ledger))

    def start(self, start_absolute: float) -> None:
        self.t1 = quantize(self.alice.local_time(start_absolute), self.resolution)
        self._send(SyncMessage(MessageKind.TIME_STAMP, t1=self.t1), Direction.A_TO_B, start_absolute)

    def on_deliver(self, sched: Scheduler, env: Envelope) -> None:
        msg = env.payload
        if not isinstance(msg, SyncMessage):
            return
        now = env.deliver_absolute
        if msg.kind is MessageKind.TIME_STAMP:
            # at Bob: note arrival, think, respond with both of his stamps
            self._check(msg)
            t1_star = quantize(self.bob.local_time(now), self.resolution)
            respond_at = now + self.scenario.channel_config.processing_delay
            t2_star = quantize(self.bob.local_time(respond_at), self.resolution)
            reply = SyncMessage(MessageKind.RESPONSE, t1_star=t1_star, t2_star=t2_star)
            self._send(reply, Direction.B_TO_A, respond_at)
        elif msg.kind is MessageKind.RESPONSE:
            # at Alice: record her arrival time and share it
            self._check(msg)
            self.t1_star = msg.t1_star
            self.t2_star = msg.t2_star
            self.t2 = quantize(self.alice.local_time(now), self.resolution)
            self._send(SyncMessage(MessageKind.SHARE, t2=self.t2), Direction.A_TO_B, now)
        elif msg.kind is MessageKind.SHARE:
            self._check(msg)
            self.share_delivered = True

    @property
    def complete(self) -> bool:
        return None not in (self.t1, self.t1_star, self.t2_star, self.t2) and self.share_delivered

    def estimates(self) -> tuple[float, float]:
        t0 = (self.t1_star - self.t1 - self.t2 + self.t2_star) / 2.0
        tau = (self.t1_star - self.t1 + self.t2 - self.t2_star) / 2.0
        return t0, tau


def protocol_a(scenario: Scenario, start_absolute: float = 0.0) -> SyncResult:
    """Undefended two-way synchronization. Recovers (t0, tau) exactly over an
    honest channel; never raises an attack flag because it has nothing to
    check. Raises ProtocolIncompleteError when a message never arrives."""
    run = _TwoWayRun(scenario, authenticated=False)
    run.start(start_absolute)
    scenario.scheduler.run_until_idle(run.on_deliver)
    if not run.complete:
        raise ProtocolIncompleteError("synchronization exchange never finished")
    t0, tau = run.estimates()
    return SyncResult(ProtocolKind.A, t0, tau, None, auth_ok=True, attack_flag=False)


def protocol_b(scenario: Scenario, start_absolute: float = 0.0) -> SyncResult:
    """Authenticated two-way synchronization. Content substitution is caught
    by the tags; a stalled exchange is reported as a timeout detection. Pure
    delay or line-length games pass unflagged - the combined check exists
    for those."""
    run = _TwoWayRun(scenario, authenticated=True)
    run.start(start_absolute)
    scenario.scheduler.run_until_idle(run.on_deliver)
    if not run.complete:
        return SyncResult(
            ProtocolKind.B, None, None, None,
            auth_ok=False, attack_flag=True, detail="timeout: exchange stalled",
        )
    auth_ok = bool(run.verdicts) and all(run.verdicts)
    if not auth_ok:
        return SyncResult(
            ProtocolKind.B, None, None, None,
            auth_ok=False, attack_flag=True, detail="authentication failed",
        )
    t0, tau = run.estimates()
    return SyncResult(ProtocolKind.B, t0, tau, None, auth_ok=True, attack_flag=False)


# ---------------------------------------------------------------------------
# Protocol C: integrity-check synchronization over measurement files
# ---------------------------------------------------------------------------


@dataclass
class ExchangeOutcome:
    received_by_bob: Optional[BepFile] = None  # Alice's record, as delivered
    received_by_alice: Optional[BepFile] = None  # Bob's record, as delivered
    auth_ok_at_bob: Optional[bool] = None
    auth_ok_at_alice: Optional[bool] = None
    index_ok: bool = True
    config_ok: bool = True

    @property
    def complete(self) -> bool:
        return self.received_by_bob is not None and self.received_by_alice is not None

    @property
    def all_ok(self) -> bool:
        return (
            self.complete
            and bool(self.auth_ok_at_bob)
            and bool(self.auth_ok_at_alice)
            and self.index_ok
            and self.config_ok
        )


def exchange_files(
    scenario: Scenario,
    file_a: BepFile,
    file_b: BepFile,
    send_absolute: float,
) -> ExchangeOutcome:
    """Swap the two measurement files through the authenticated channel.

    Each file crosses with a one-time-pad encrypted hash of its serialized
    payload; the receiver re-hashes what arrived and compares. The BEP index
    and line-config digest sit inside the hashed bytes, so a replayed or
    re-parameterized file is caught even though its tag verifies: each
    received file must carry file_a's BEP index and the local config digest.
    """
    expected = file_a.bep_index
    outcome = ExchangeOutcome()
    local_digest = scenario.line.digest()

    def tagged(file: BepFile) -> FileTransfer:
        tag = encrypt_digest(hash_message(file.payload_bytes()), scenario.ledger)
        return FileTransfer(file, tag)

    def on_deliver(sched: Scheduler, env: Envelope) -> None:
        transfer = env.payload
        if not isinstance(transfer, FileTransfer):
            return
        ok = verify(transfer.file.payload_bytes(), transfer.tag, scenario.ledger)
        if env.direction is Direction.A_TO_B:
            outcome.received_by_bob = transfer.file
            outcome.auth_ok_at_bob = ok
        else:
            outcome.received_by_alice = transfer.file
            outcome.auth_ok_at_alice = ok
        if transfer.file.bep_index != expected:
            outcome.index_ok = False
        if transfer.file.config_digest != local_digest:
            outcome.config_ok = False

    sched = scenario.scheduler
    sched.send(tagged(file_a), Direction.A_TO_B, send_absolute)
    sched.send(tagged(file_b), Direction.B_TO_A, send_absolute)
    sched.run_until_idle(on_deliver)
    return outcome


def residual_curve(
    file_ref: BepFile,
    file_other: BepFile,
    r_wire: float,
    search: ProtocolConfig = ProtocolConfig("C"),
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized mean-square mismatch against the wire model, per shift.

    The candidate shifts lie on the sample lattice. With base the offset,
    in samples, between the two records' start stamps, shift j + frac(base)
    maps reference sample n exactly onto other sample n + m, m = rint(base)
    - j, so no interpolation is needed. Every shift whose overlap keeps at
    least half of the reference record is a candidate: about +-N/2 samples
    for two N-sample records. search.input names the record that drives the
    wire model:

      voltage input: I_sim = (U_alice - U_bob) / r_wire, compared with the
        reference party's measured current;
      current input: the other record's current predicts the terminal
        voltage difference I * r_wire, compared with the measured difference.

    Written as sum((a - b)^2) / sum(d^2) over the overlap, the numerator is
    expanded into sum(a^2) - 2 sum(a b) + sum(b^2): the cross term of every
    shift comes from one FFT cross-correlation, the energies and the
    denominator d^2 from prefix sums. The expansion cancels badly where the
    residual is small, so the minimum and its two neighbours are computed
    again directly. search.dt_window does not limit the search.

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
    v_ref, v_other = file_ref.voltage_samples, file_other.voltage_samples
    if search.input == "voltage":
        a = sign * v_ref / r_wire - file_ref.current_samples
        b = sign * v_other / r_wire
        d2, d_lo, d_hi = file_ref.current_samples**2, lo, hi
    else:
        a = sign * v_ref
        b = sign * v_other + r_wire * file_other.current_samples
        d2, d_lo, d_hi = (r_wire * file_other.current_samples) ** 2, lo + m, hi + m

    size = 1 << (n_ref + n_other - 2).bit_length()  # a power of two >= n_ref + n_other - 1
    spectrum = np.conj(np.fft.rfft(a, size)) * np.fft.rfft(b, size)
    cross = np.fft.irfft(spectrum, size)[m % size]  # sum over n of a[n] b[n + m]

    def prefix(x: np.ndarray) -> np.ndarray:
        sums = np.empty(x.size + 1)
        sums[0] = 0.0
        np.cumsum(x, out=sums[1:])
        return sums

    energy_a, energy_b, energy_d = prefix(a * a), prefix(b * b), prefix(d2)
    num = energy_a[hi] - energy_a[lo] - 2.0 * cross + energy_b[hi + m] - energy_b[lo + m]
    den = energy_d[d_hi] - energy_d[d_lo]
    residuals = np.full(m.size, np.inf)
    # rounding can take the expanded numerator of a near-zero residual below 0
    np.divide(np.maximum(num, 0.0), den, out=residuals, where=den > 0)

    def direct(k: int) -> float:
        n = slice(lo[k], hi[k])
        other = slice(lo[k] + m[k], hi[k] + m[k])
        v_diff = sign * (v_ref[n] - v_other[other])
        if search.input == "voltage":
            i_meas = file_ref.current_samples[n]
            mismatch, norm = np.sum((v_diff / r_wire - i_meas) ** 2), np.sum(i_meas**2)
        else:
            v_pred = file_other.current_samples[other] * r_wire
            mismatch, norm = np.sum((v_diff - v_pred) ** 2), np.sum(v_pred**2)
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


def _refine_vertex(shifts: np.ndarray, residuals: np.ndarray, i: int) -> float:
    if i == 0 or i == shifts.size - 1:
        return float(shifts[i])
    y0, y1, y2 = residuals[i - 1], residuals[i], residuals[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom <= 0.0 or not np.isfinite(denom):
        return float(shifts[i])
    step = shifts[1] - shifts[0]
    delta = 0.5 * (y0 - y2) / denom
    return float(shifts[i] + np.clip(delta, -0.5, 0.5) * step)


def locate_minimum(shifts: np.ndarray, residuals: np.ndarray, threshold: float) -> tuple[float, float]:
    """The verdict on one residual curve.

    Returns (dt_star, residual): the minimizing shift, refined to
    sub-sample by a three-point parabola, and the residual at the grid
    minimum. Raises FlatResidualError when that residual is not below
    threshold - either the line was modified or the model is wrong.
    """
    i = _pick_minimum(shifts, residuals)
    best = float(residuals[i])
    if not best <= threshold:
        raise FlatResidualError(float(shifts[i]), best, threshold)
    return _refine_vertex(shifts, residuals, i), best


def estimate_offset(
    file_ref: BepFile,
    file_other: BepFile,
    r_wire: float,
    search: ProtocolConfig = ProtocolConfig("C"),
) -> tuple[float, float]:
    """Find the shift where the other party's record satisfies the wire
    model against the reference record.

    Returns (dt_star, residual) as locate_minimum does. The reference
    party's clock offset relative to the other is -dt_star; run with Alice
    as reference, that recovers Bob's offset directly.

    Raises FlatResidualError when no candidate gets below the detection
    threshold - either the line was modified or the model is wrong.
    """
    shifts, residuals = residual_curve(file_ref, file_other, r_wire, search)
    return locate_minimum(shifts, residuals, search.residual_threshold)


def bep_start_time(scenario: Scenario, k: int) -> float:
    """Absolute start of BEP k on the shared timeline: records are taken
    back to back with enough slack after each for the file exchange."""
    slack = 2.0 * (scenario.channel.delay_a_to_b + scenario.channel.delay_b_to_a)
    return k * (scenario.line.bep_duration + slack)


def _draw_choices(scenario: Scenario, k: int) -> tuple[ResistorChoice, ResistorChoice]:
    rng_a = np.random.default_rng(derive_seed(scenario.seed, _SEED_CHOICE_A, k))
    rng_b = np.random.default_rng(derive_seed(scenario.seed, _SEED_CHOICE_B, k))
    c_a = ResistorChoice.L if rng_a.integers(2) == 0 else ResistorChoice.H
    c_b = ResistorChoice.L if rng_b.integers(2) == 0 else ResistorChoice.H
    return c_a, c_b


def run_bep(scenario: Scenario, k: int):
    """Simulate BEP k with the parties' current clocks and any installed
    line modification, and log it in the scenario trace."""
    t_k = bep_start_time(scenario, k)
    c_a, c_b = _draw_choices(scenario, k)
    meas_a, meas_b = simulate_bep(
        c_a,
        c_b,
        scenario.line,
        derive_seed(scenario.seed, _SEED_BEP, k),
        bep_index=k,
        start_absolute=t_k,
        offset_B=scenario.clock(Party.BOB).offset_t0,
        r_wire_schedule=scenario.r_wire_schedule or None,
    )
    scenario.scheduler.record(t_k, "bep")
    scenario.diagnostics.setdefault("first_bep_voltage", meas_a.voltage_trace)
    scenario.diagnostics.setdefault("bep_msq", []).append(meas_a.msq_voltage)
    if scenario.passive_log is not None:
        rng = np.random.default_rng(derive_seed(scenario.seed, _SEED_EVE, k))
        scenario.passive_log.append(
            {
                "k": k,
                "msq_voltage": meas_a.msq_voltage,
                "msq_current": meas_a.msq_current,
                "guess_bit": int(rng.integers(2)),
            }
        )
    return meas_a, meas_b


def protocol_c(scenario: Scenario) -> SyncResult:
    """Integrity-check synchronization over one or more BEPs.

    Per BEP: record, exchange files with authentication, and accumulate the
    residual curve; curves from multiple BEPs are averaged before the
    minimum is taken, which sharpens the valley. Alice and Bob run the
    search symmetrically (their shifts are negatives of each other); Bob,
    as the non-master, applies the correction, after which his clock offset
    is zero to within the search resolution. The run is flagged, and no
    correction applied, when any file fails authentication or freshness, or
    when no shift explains the data (line modified mid-record).

    This protocol produces no propagation-delay estimate; only the embedded
    two-way probe of the combined check measures tau.
    """
    search = scenario.protocol_config

    curves_alice: list[tuple[np.ndarray, np.ndarray]] = []
    curves_bob: list[tuple[np.ndarray, np.ndarray]] = []

    for k in search.k_range:
        meas_a, meas_b = run_bep(scenario, k)
        file_a = build_bep_file(meas_a, scenario.line)
        file_b = build_bep_file(meas_b, scenario.line)
        send_at = bep_start_time(scenario, k) + scenario.line.bep_duration
        outcome = exchange_files(scenario, file_a, file_b, send_at)
        if not outcome.complete:
            return SyncResult(
                ProtocolKind.C, None, None, None,
                auth_ok=False, attack_flag=True, detail="timeout: file exchange stalled",
            )
        if not outcome.all_ok:
            reason = "authentication failed" if not (
                outcome.auth_ok_at_bob and outcome.auth_ok_at_alice
            ) else "stale or mismatched file"
            return SyncResult(
                ProtocolKind.C, None, None, None,
                auth_ok=False, attack_flag=True, detail=reason,
            )
        # Alice searches her own record against Bob's received copy; Bob
        # does the mirror image with Alice's received copy, on his own grid.
        curves_alice.append(residual_curve(file_a, outcome.received_by_alice, scenario.line.R_wire, search))
        curves_bob.append(residual_curve(file_b, outcome.received_by_bob, scenario.line.R_wire, search))

    # every BEP's records have the same lengths, so position p of each curve
    # is the same index lag; its shifts differ only by the float rounding of
    # each BEP's start-stamp difference
    shifts_alice, mean_alice = np.mean(curves_alice, axis=0)
    shifts_bob, mean_bob = np.mean(curves_bob, axis=0)
    i = _pick_minimum(shifts_alice, mean_alice)
    width = 2 * search.dt_window + 1
    lo = max(min(i - search.dt_window, mean_alice.size - width), 0)
    scenario.diagnostics["residual_curve"] = (shifts_alice[lo : lo + width], mean_alice[lo : lo + width])

    try:
        dt_alice, best = locate_minimum(shifts_alice, mean_alice, search.residual_threshold)
        dt_bob, _ = locate_minimum(shifts_bob, mean_bob, search.residual_threshold)
    except FlatResidualError as err:
        return SyncResult(
            ProtocolKind.C, None, None, err.residual,
            auth_ok=True, attack_flag=True,
            detail=f"no shift explains the data (residual {err.residual:.3e})",
        )

    t0_est = -dt_alice
    # symmetric searches must agree (their shifts are mutual negatives)
    if abs(dt_alice + dt_bob) > 1.0 / scenario.line.sample_rate:
        return SyncResult(
            ProtocolKind.C, t0_est, None, best,
            auth_ok=True, attack_flag=True, detail="parties' shift estimates disagree",
        )

    # Bob, the non-master, corrects his clock
    scenario.clock(Party.BOB).offset_t0 -= t0_est
    return SyncResult(ProtocolKind.C, t0_est, None, best, auth_ok=True, attack_flag=False)


def combined_check(scenario: Scenario) -> SyncResult:
    """Full verdict: Protocol C plus a random-time authenticated probe.

    Passes only when (a) the probe's offset estimate is zero within
    tolerance (C already corrected Bob's clock), (b) the probe's delay
    estimate matches the nominal propagation time, and (c) the integrity
    residual stayed below threshold. Failing any leg raises the attack
    flag.
    """
    c_result = protocol_c(scenario)

    # probe at a random later instant, snapped to the clock grid (parties
    # initiate on their own clock ticks)
    last = max((rec.absolute for rec in scenario.scheduler.log), default=0.0)
    rng = np.random.default_rng(derive_seed(scenario.seed, _SEED_PROBE))
    quantum = scenario.quantum
    wait = float(rng.integers(1_000, 1_000_000)) * quantum
    probe_start = (np.ceil(last / quantum) + 1) * quantum + wait

    b_result = protocol_b(scenario, start_absolute=probe_start)

    q = scenario.quantum
    nominal_tau = scenario.channel_config.tau
    tolerances = scenario.protocol_config
    failures = []
    if c_result.attack_flag:
        failures.append(f"integrity check: {c_result.detail or 'flagged'}")
    if b_result.attack_flag:
        failures.append(f"probe: {b_result.detail or 'flagged'}")
    else:
        if abs(b_result.t0_est) > tolerances.t0_tol_quanta * q:
            failures.append(f"offset after correction is {b_result.t0_est:.3e}s, not zero")
        if abs(b_result.tau_est - nominal_tau) > tolerances.tau_tol_quanta * q:
            failures.append(
                f"propagation delay {b_result.tau_est:.6e}s deviates from "
                f"nominal {nominal_tau:.6e}s"
            )

    return SyncResult(
        ProtocolKind.COMBINED,
        b_result.t0_est,
        b_result.tau_est,
        c_result.residual,
        auth_ok=c_result.auth_ok and b_result.auth_ok,
        attack_flag=bool(failures),
        detail="; ".join(failures),
    )
