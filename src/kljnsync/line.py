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
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Annotated, Optional

import numpy as np

from .config import CANONICAL, Section, ge, gt, init_fields
from .errors import (
    AmbiguousMeasurementError,
    ConfigError,
    DegenerateInputError,
    InconsistentStateError,
)
from .noise import derive_seed, generate_with_guard


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


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


@dataclass(frozen=True, kw_only=True)
class LineConfig(Section):
    """Channel physics for one scenario.

    noise_scale is the generator density per ohm: a connected resistor R
    contributes one-sided voltage density noise_scale * R over [0, B].

    Validation computes the analytic mean-square voltage of every resistor
    arrangement and keeps, in msq_levels and as the report shows them, the
    three levels either party can observe (LL, MIXED, HH) and the geometric
    midpoints between them (threshold_low, threshold_high). LL and HH are
    exact. With nonzero wire resistance the LH and HL values differ by a few
    parts per million; MIXED is their mean, far below anything the per-BEP
    statistics could resolve. One set serves both parties: Bob's LH and HL
    are Alice's HL and LH. The levels are log-spaced in resistance, so
    geometric midpoints balance the error probability on both sides.
    msq_levels is derived from the fields, so it is no init field and takes
    no part in the document or in equality; it is read-only, so
    msq_levels_text, its canonical JSON as every report shows it, cannot go
    stale. That text and digest, the sha256 of every init field written as
    name=repr(value), joined by ';', are computed on first read and kept.
    """

    # the init fields' order is the digest's byte order: a field reordered or
    # added moves every C and Combined record's digest and event log
    R_L: Annotated[float, gt(0)]
    R_H: float
    R_wire: Optional[Annotated[float, ge(0)]] = None  # default R_L / 100
    bandwidth_B: Annotated[float, gt(0)]
    noise_scale: Annotated[float, ge(0)]
    tau_f: Optional[Annotated[float, gt(0)]] = None  # default 0.1 / B
    bep_duration: Optional[Annotated[float, gt(0)]] = None  # default 100 / B
    sample_rate: Optional[float] = None  # default 20 * B
    measurement_noise_rel: Annotated[float, ge(0)] = 0.0
    msq_levels: Mapping[str, float] = field(init=False, repr=False, compare=False)

    def problems(self) -> list[str]:
        problems = [] if self.R_L < self.R_H else ["R_H: must exceed R_L"]
        if self.sample_rate is not None and self.sample_rate < 2.0 * self.bandwidth_B:
            problems.append("sample_rate: must be >= 2 * bandwidth_B")
        return problems

    def __post_init__(self):
        super().__post_init__()
        tau_f, bep = timing_defaults(self.bandwidth_B)
        defaults = dict(R_wire=self.R_L / 100.0, tau_f=tau_f, bep_duration=bep, sample_rate=20.0 * self.bandwidth_B)
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        # the derived values pass their fields' checks, as given ones do:
        # tau_f = 0.1 / B overflows for a B below about 5.6e-310
        super().__post_init__()

        # each trace is synthesized with a guard of sample_rate / B samples at either end
        synthesized = self.bep_duration * self.sample_rate + 2.0 * self.sample_rate / self.bandwidth_B
        if synthesized > MAX_RECORD_SAMPLES:
            raise ConfigError(
                f"bep_duration: a record and its noise guard take {synthesized:.3g} samples, "
                f"more than the {MAX_RECORD_SAMPLES} allowed"
            )
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
        low, high = math.sqrt(ll * mixed), math.sqrt(mixed * hh)
        levels = dict(LL=ll, MIXED=mixed, HH=hh, threshold_low=low, threshold_high=high)
        object.__setattr__(self, "msq_levels", MappingProxyType(levels))

    def resistance(self, choice: ResistorChoice) -> float:
        return self.R_L if choice is ResistorChoice.L else self.R_H

    @functools.cached_property
    def digest(self) -> bytes:
        text = ";".join(f"{name}={getattr(self, name)!r}" for name in init_fields(LineConfig))
        return hashlib.sha256(text.encode("ascii")).digest()

    @functools.cached_property
    def msq_levels_text(self) -> str:
        return CANONICAL.encode(dict(self.msq_levels))


@dataclass(frozen=True)
class BepMeasurement:
    """One party's record of a single bit exchange period.

    voltage and current are float64 arrays sampled at the line's
    sample_rate. msq_voltage and msq_current are their mean squares,
    computed from the arrays the first time each is read (0.0 for an empty
    record), so a record cannot carry a level its samples disagree with.
    """

    party: Party
    bep_index: int
    local_start_time: float
    voltage: np.ndarray
    current: np.ndarray

    @functools.cached_property
    def msq_voltage(self) -> float:
        return float(np.mean(self.voltage**2)) if self.voltage.size else 0.0

    @functools.cached_property
    def msq_current(self) -> float:
        return float(np.mean(self.current**2)) if self.current.size else 0.0


def _level(ns_B: float, r_own: float, r_far: float, r_wire: float) -> float:
    # <U_c^2> at the terminal of the party holding r_own, for generator
    # densities proportional to resistance.
    r_tot = r_own + r_far + r_wire
    return ns_B * (r_own * (r_far + r_wire) ** 2 + r_far * r_own**2) / r_tot**2


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
    master clock, and Bob's runs offset_B ahead of it. offset_B is Bob's
    clock offset (Scenario.bob_clock.offset), a float and not his Clock,
    and his record's stamp is not rounded: perfbench/workloads.py calls
    this function with offset_B by name.

    r_wire_schedule is a list of (absolute_time, new_R_wire) step changes,
    the hook line-modification attacks use; samples at or after a step time
    see the new value. The schedule alters the loop physics only - parties
    keep believing the configured R_wire.
    """
    fs = config.sample_rate
    r_a = config.resistance(choice_A)
    r_b = config.resistance(choice_B)

    B, scale, duration = config.bandwidth_B, config.noise_scale, config.bep_duration
    u_a = generate_with_guard(B, scale * r_a, derive_seed(seed, 0), duration, fs)
    u_b = generate_with_guard(B, scale * r_b, derive_seed(seed, 1), duration, fs)

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

    meas_a = BepMeasurement(Party.ALICE, bep_index, start_absolute, records["vA"], records["iA"])
    meas_b = BepMeasurement(Party.BOB, bep_index, start_absolute + offset_B, records["vB"], records["iB"])
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
    if len(meas.voltage) < n_needed:
        raise DegenerateInputError(
            f"measurement spans {len(meas.voltage)} samples; "
            f"need at least half a BEP ({n_needed:.0f})"
        )
    low, high = config.msq_levels["threshold_low"], config.msq_levels["threshold_high"]
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


def infer_key_bit(own: ResistorChoice, state: BitState, party: Party) -> Optional[int]:
    """The secure bit of a BEP, from one's own resistor and the bit state.

    In the MIXED state the partner necessarily holds the other resistor, and
    the bit follows the agreed mapping: (Alice, Bob) = (L, H) is bit 0,
    (H, L) is bit 1. LL and HH carry no secure bit (None). A state that
    contradicts the own choice signals an attack or a misclassification,
    and raises InconsistentStateError.
    """
    if state is not BitState.MIXED:
        if (own is ResistorChoice.L) != (state is BitState.LL):
            raise InconsistentStateError(f"state {state.value} but own resistor is {own.value}")
        return None
    # Alice's own L, or Bob's own H, is the (L, H) arrangement
    return 0 if (own is ResistorChoice.L) == (party is Party.ALICE) else 1
