"""Lumped model of the two-party resistor-noise loop.

Alice and Bob each connect one of two agreed resistors (R_L or R_H) to the
ends of a wire for every bit exchange period (BEP). Each connected resistor
brings its own Gaussian noise generator whose one-sided spectral density is
proportional to its resistance, which is exactly the condition that makes
the two mixed arrangements (LH and HL) produce identical cable statistics.
The loop is series: one current flows, each party sees its own terminal
voltage, and with a small wire resistance the two terminal voltages differ
by I * R_wire at every instant. That last identity is what the integrity
check in the synchronization protocol leans on.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import check_fields, derived
from .errors import (
    AmbiguousMeasurementError,
    ConfigError,
    DegenerateInputError,
    InconsistentStateError,
)
from .noise import NoiseSpec, NoiseTrace, Unit, derive_seed, generate_with_guard


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"
    EVE = "eve"


class ResistorChoice(enum.Enum):
    L = "L"
    H = "H"


class BitState(enum.Enum):
    """Channel-level bit situation. MIXED covers both LH and HL, which are
    indistinguishable from cable measurements alone."""

    LL = "LL"
    HH = "HH"
    MIXED = "MIXED"


def timing_defaults(bandwidth_B: float) -> tuple[float, float]:
    """Default flying time and bit exchange period for a given bandwidth.

    Returns (tau_f, bep_duration) = (0.1/B, 100/B). At B = 10 kHz this is
    (10 us, 10 ms). The 10 us figure is also the electromagnetic flying
    time over a cable run of roughly 2 km, so for such ranges the clocks
    only need to agree to the order of 10 microseconds - far looser than
    the picosecond demands of photonic key exchange.
    """
    if bandwidth_B <= 0:
        raise ConfigError("bandwidth_B: must be > 0")
    return 0.1 / bandwidth_B, 100.0 / bandwidth_B


# the most samples one trace of a BEP may be synthesized with: 128 MiB of float64
MAX_RECORD_SAMPLES = 2**24
# how far a squared sample may exceed the power it is drawn at: a peak of
# 1000 standard deviations, which no Gaussian draw reaches
PEAK_HEADROOM = 1e6


@dataclass(frozen=True)
class LineConfig:
    """Channel physics for one scenario.

    noise_scale is the generator density per ohm: a connected resistor R
    contributes one-sided voltage density noise_scale * R over [0, B].

    Validation computes the analytic mean-square voltage of every resistor
    arrangement, and the config keeps what classification needs of them:
    the three BitState levels and the two thresholds between them (see
    analytic_levels and classification_thresholds). They are derived from
    the fields, so they are not init fields and take no part in the
    document or in equality.
    """

    R_L: float
    R_H: float
    bandwidth_B: float
    noise_scale: float
    R_wire: Optional[float] = None  # default R_L / 100
    tau_f: Optional[float] = None  # default 0.1 / B
    bep_duration: Optional[float] = None  # default 100 / B
    sample_rate: Optional[float] = None  # default 20 * B
    measurement_noise_rel: float = 0.0
    _levels: dict[BitState, float] = field(init=False, repr=False, compare=False)
    _thresholds: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self)
        problems = []
        if not 0 < self.R_L:
            problems.append("R_L: must be > 0")
        if not self.R_L < self.R_H:
            problems.append("R_H: must exceed R_L")
        if self.bandwidth_B <= 0:
            problems.append("bandwidth_B: must be > 0")
        if self.noise_scale < 0:
            problems.append("noise_scale: must be >= 0")
        if self.measurement_noise_rel < 0:
            problems.append("measurement_noise_rel: must be >= 0")
        if problems:
            raise ConfigError(problems)

        tau_f, bep = timing_defaults(self.bandwidth_B)
        if self.R_wire is None:
            object.__setattr__(self, "R_wire", self.R_L / 100.0)
        if self.tau_f is None:
            object.__setattr__(self, "tau_f", tau_f)
        if self.bep_duration is None:
            object.__setattr__(self, "bep_duration", bep)
        if self.sample_rate is None:
            object.__setattr__(self, "sample_rate", 20.0 * self.bandwidth_B)

        if self.R_wire < 0:
            problems.append("R_wire: must be >= 0")
        if self.tau_f <= 0:
            problems.append("tau_f: must be > 0")
        if self.bep_duration <= 0:
            problems.append("bep_duration: must be > 0")
        if self.sample_rate < 2.0 * self.bandwidth_B:
            problems.append("sample_rate: must be >= 2 * bandwidth_B")
        # each trace is synthesized with a guard of sample_rate / B samples at either end
        synthesized = self.bep_duration * self.sample_rate + 2.0 * self.sample_rate / self.bandwidth_B
        if synthesized > MAX_RECORD_SAMPLES:
            problems.append(
                f"bep_duration: a record and its noise guard take {synthesized:.3g} samples, "
                f"more than the {MAX_RECORD_SAMPLES} allowed"
            )
        if problems:
            raise ConfigError(problems)
        # every party's level for every arrangement, and the sum the MIXED level halves
        ns_B, resistors = self.noise_scale * self.bandwidth_B, (self.R_L, self.R_H)
        try:
            levels = [_level(ns_B, r_own, r_far, self.R_wire) for r_own in resistors for r_far in resistors]
            levels.append(levels[1] + levels[2])
        except ArithmeticError:  # a square overflowed, or underflowed to a zero divisor
            levels = [math.inf]
        if not all(map(math.isfinite, levels)):
            raise ConfigError("analytic_levels: not finite for these R_L, R_H, R_wire, noise_scale and bandwidth_B")
        # The run squares samples and sums them: record energies, (V/R_wire)^2,
        # the autocorrelation's |rfft|^2 (up to n^2 times the largest square
        # over n samples) and the thresholds' products of two levels. Bound
        # that square: the noisiest generator's power, with the measurement
        # noise on top and PEAK_HEADROOM, over the smallest resistance a
        # voltage is divided by.
        try:
            square = PEAK_HEADROOM * ns_B * self.R_H * (1.0 + self.measurement_noise_rel) ** 2
            square /= min(1.0, self.R_L, self.R_wire or 1.0) ** 2
        except ArithmeticError:  # overflowed, or divided by a resistance squared to 0
            square = math.inf
        if not square * max(square, synthesized * synthesized) <= sys.float_info.max:
            raise ConfigError(
                f"noise_scale: samples that square to {square:.3g} overflow the sums over "
                f"{synthesized:.3g} samples; lower noise_scale, R_H or measurement_noise_rel"
            )
        # kept only now: the thresholds multiply two levels, which the bound above keeps finite
        ll, mixed, hh = levels[0], 0.5 * levels[4], levels[3]
        object.__setattr__(self, "_levels", {BitState.LL: ll, BitState.MIXED: mixed, BitState.HH: hh})
        object.__setattr__(self, "_thresholds", (math.sqrt(ll * mixed), math.sqrt(mixed * hh)))

    def resistance(self, choice: ResistorChoice) -> float:
        return self.R_L if choice is ResistorChoice.L else self.R_H

    def canonical_bytes(self) -> bytes:
        fields = (
            ("R_L", self.R_L),
            ("R_H", self.R_H),
            ("R_wire", self.R_wire),
            ("bandwidth_B", self.bandwidth_B),
            ("noise_scale", self.noise_scale),
            ("tau_f", self.tau_f),
            ("bep_duration", self.bep_duration),
            ("sample_rate", self.sample_rate),
            ("measurement_noise_rel", self.measurement_noise_rel),
        )
        return ";".join(f"{k}={v!r}" for k, v in fields).encode("ascii")

    def digest(self) -> bytes:
        return derived(self, "_digest", lambda config: hashlib.sha256(config.canonical_bytes()).digest())


@dataclass(frozen=True)
class BepMeasurement:
    """One party's record of a single bit exchange period.

    msq_voltage and msq_current are the mean squares of the two traces,
    computed from the samples the first time each is read (0.0 for an empty
    record), so a record cannot carry a level its samples disagree with.
    """

    party: Party
    bep_index: int
    local_start_time: float
    voltage_trace: NoiseTrace
    current_trace: NoiseTrace

    def __post_init__(self):
        if len(self.voltage_trace) != len(self.current_trace):
            raise ConfigError("traces: voltage and current lengths differ")
        if self.voltage_trace.sample_rate != self.current_trace.sample_rate:
            raise ConfigError("traces: sample rates differ")

    @functools.cached_property
    def msq_voltage(self) -> float:
        return self.voltage_trace.mean_square() if len(self.voltage_trace) else 0.0

    @functools.cached_property
    def msq_current(self) -> float:
        return self.current_trace.mean_square() if len(self.current_trace) else 0.0


def _level(ns_B: float, r_own: float, r_far: float, r_wire: float) -> float:
    # <U_c^2> at the terminal of the party holding r_own, for generator
    # densities proportional to resistance.
    r_tot = r_own + r_far + r_wire
    return ns_B * (r_own * (r_far + r_wire) ** 2 + r_far * r_own**2) / r_tot**2


def analytic_msq_voltage(
    config: LineConfig, choice_A: ResistorChoice, choice_B: ResistorChoice, party: Party = Party.ALICE
) -> float:
    """Exact mean-square terminal voltage for a resistor arrangement."""
    ns_B = config.noise_scale * config.bandwidth_B
    r_a = config.resistance(choice_A)
    r_b = config.resistance(choice_B)
    if party is Party.BOB:
        return _level(ns_B, r_b, r_a, config.R_wire)
    return _level(ns_B, r_a, r_b, config.R_wire)


def analytic_msq_current(
    config: LineConfig, choice_A: ResistorChoice, choice_B: ResistorChoice
) -> float:
    """Exact mean-square loop current for a resistor arrangement."""
    ns_B = config.noise_scale * config.bandwidth_B
    r_a = config.resistance(choice_A)
    r_b = config.resistance(choice_B)
    return ns_B * (r_a + r_b) / (r_a + r_b + config.R_wire) ** 2


def analytic_levels(config: LineConfig) -> dict[BitState, float]:
    """The three mean-square voltage levels either party can observe, as
    the config computed them when it was validated.

    LL and HH are analytic_msq_voltage of those arrangements. With nonzero
    wire resistance the LH and HL values differ by a few parts per million;
    the MIXED level is their mean, which is far below anything the per-BEP
    statistics could resolve. One set serves both parties: Bob's LH and HL
    are Alice's HL and LH, and their sum is the same.
    """
    return dict(config._levels)


def classification_thresholds(config: LineConfig) -> tuple[float, float]:
    """(low, high): the geometric midpoints between the three analytic
    levels, kept by the config beside them. The levels are log-spaced in
    resistance, so geometric midpoints balance the error probability on
    both sides. Both parties classify against the same pair, because they
    share the levels."""
    return config._thresholds


def simulate_bep(
    choice_A: ResistorChoice,
    choice_B: ResistorChoice,
    config: LineConfig,
    seed: int,
    *,
    bep_index: int = 0,
    start_absolute: float = 0.0,
    offset_B: float = 0.0,
    r_wire_schedule: Optional[list[tuple[float, float]]] = None,
) -> tuple[BepMeasurement, BepMeasurement]:
    """Simulate one bit exchange period on the loop.

    Draws the two generator noises independently (densities noise_scale*R_A
    and noise_scale*R_B over [0, B]), solves the series loop per sample,

        I(t)    = (U_A(t) - U_B(t)) / (R_A + R_B + R_wire)
        U_cA(t) = U_A(t) - I(t) * R_A
        U_cB(t) = U_B(t) + I(t) * R_B

    with current positive in the Alice-to-Bob direction, and returns both
    parties' measurements stamped with their local clocks: Alice holds the
    master clock, and Bob's runs offset_B ahead of it.

    r_wire_schedule is a list of (absolute_time, new_R_wire) step changes,
    the hook line-modification attacks use; samples at or after a step time
    see the new value. The schedule alters the loop physics only - parties
    keep believing the configured R_wire.
    """
    fs = config.sample_rate
    r_a = config.resistance(choice_A)
    r_b = config.resistance(choice_B)

    spec_a = NoiseSpec(config.bandwidth_B, config.noise_scale * r_a, derive_seed(seed, 0))
    spec_b = NoiseSpec(config.bandwidth_B, config.noise_scale * r_b, derive_seed(seed, 1))
    u_a = generate_with_guard(spec_a, config.bep_duration, fs).samples
    u_b = generate_with_guard(spec_b, config.bep_duration, fs).samples

    n = u_a.size
    r_wire = float(config.R_wire)
    if r_wire_schedule:
        r_wire = np.full(n, r_wire)
        times = start_absolute + np.arange(n) / fs
        for t_act, value in sorted(r_wire_schedule):
            r_wire[times >= t_act] = value

    current = (u_a - u_b) / (r_a + r_b + r_wire)
    v_alice = u_a - current * r_a
    v_bob = u_b + current * r_b

    records = {"vA": v_alice, "iA": current, "vB": v_bob, "iB": current}
    if config.measurement_noise_rel > 0.0:
        for j, key in enumerate(sorted(records)):
            sig = records[key]
            rms = float(np.sqrt(np.mean(sig**2)))
            rng = np.random.default_rng(derive_seed(seed, 2, j))
            records[key] = sig + config.measurement_noise_rel * rms * rng.standard_normal(n)

    def measurement(party: Party, v: np.ndarray, i: np.ndarray, local_start: float) -> BepMeasurement:
        vt = NoiseTrace(v, fs, Unit.VOLT)
        it = NoiseTrace(i, fs, Unit.AMPERE)
        return BepMeasurement(party, bep_index, local_start, vt, it)

    meas_a = measurement(Party.ALICE, records["vA"], records["iA"], start_absolute)
    meas_b = measurement(Party.BOB, records["vB"], records["iB"], start_absolute + offset_B)
    return meas_a, meas_b


# relative distance from a classification threshold inside which a BEP is ambiguous
GUARD_BAND = 0.05


def classify_bep(meas: BepMeasurement, config: LineConfig) -> BitState:
    """Classify a measurement into LL / MIXED / HH by its mean-square voltage.

    Raises AmbiguousMeasurementError when the value falls within the
    relative GUARD_BAND of either threshold - those BEPs are discarded
    rather than guessed at.
    """
    n_needed = 0.5 * config.bep_duration * config.sample_rate
    if len(meas.voltage_trace) < n_needed:
        raise DegenerateInputError(
            f"measurement spans {len(meas.voltage_trace)} samples; "
            f"need at least half a BEP ({n_needed:.0f})"
        )
    low, high = classification_thresholds(config)
    msq = meas.msq_voltage
    for thr in (low, high):
        if abs(msq - thr) <= GUARD_BAND * thr:
            raise AmbiguousMeasurementError(
                f"mean-square voltage {msq:.6g} within {GUARD_BAND:.0%} of threshold {thr:.6g}"
            )
    if msq < low:
        return BitState.LL
    if msq > high:
        return BitState.HH
    return BitState.MIXED


@dataclass(frozen=True)
class PartnerInference:
    partner: ResistorChoice
    key_bit: Optional[int]  # None when the BEP carries no secure bit


def infer_partner_choice(
    own: ResistorChoice, state: BitState, party: Party = Party.ALICE
) -> PartnerInference:
    """Deduce the partner's resistor from one's own choice and the bit state.

    In the MIXED state the partner necessarily holds the other resistor, and
    the secure bit follows the agreed mapping: (Alice, Bob) = (L, H) is bit
    0, (H, L) is bit 1. LL/HH force the partner's choice but carry no secure
    bit. A state that contradicts the own choice signals an attack or a
    misclassification.
    """
    if state is BitState.LL:
        if own is not ResistorChoice.L:
            raise InconsistentStateError("state LL but own resistor is H")
        return PartnerInference(ResistorChoice.L, None)
    if state is BitState.HH:
        if own is not ResistorChoice.H:
            raise InconsistentStateError("state HH but own resistor is L")
        return PartnerInference(ResistorChoice.H, None)
    partner = ResistorChoice.H if own is ResistorChoice.L else ResistorChoice.L
    if party is Party.BOB:
        alice_choice, bob_choice = partner, own
    else:
        alice_choice, bob_choice = own, partner
    bit = 0 if (alice_choice, bob_choice) == (ResistorChoice.L, ResistorChoice.H) else 1
    return PartnerInference(partner, bit)


def true_bit_state(choice_A: ResistorChoice, choice_B: ResistorChoice) -> BitState:
    if choice_A is choice_B:
        return BitState.LL if choice_A is ResistorChoice.L else BitState.HH
    return BitState.MIXED
