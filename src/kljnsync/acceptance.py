"""The acceptance suite: ten quantitative checks the simulator must pass.

Each criterion is a function returning (passed, detail); the CLI `verify`
verb and the pytest acceptance module both run this list, so there is one
source of truth for the gate. The protocol runs of criteria 3, 4, 6 and 9,
5's message and record substitutions and 7's delays are tables of Rows:
each row is built through ScenarioConfig and run through
harness.run_protocol, the dispatch `kljnsync run` uses, so a new check on
a scenario is one row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .adversaries import Attack, AsymDelay, LineMod, Substitute, passive_bit_guess
from .auth import AuthTag, KeyLedger, KeySpan, encrypt_digest, hash_message, verify
from .bepfile import build_bep_file
from .config import ChannelConfig, ClockConfig, ProtocolConfig
from .errors import AmbiguousMeasurementError, ConfigError, InconsistentStateError
from .harness import ScenarioConfig, bundled_scenario_names, load_bundled, run_protocol, run_scenario
from .line import (
    BitState,
    LineConfig,
    Party,
    ResistorChoice,
    classify_bep,
    infer_key_bit,
    simulate_bep,
    timing_defaults,
)
from .noise import (
    autocorrelation_standard_error,
    empirical_autocorrelation,
    generate_with_guard,
    theoretical_autocorrelation,
)
from .protocols import MessageKind, SyncResult, residual_curve

LINE = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
FS = LINE.sample_rate


class Row(NamedTuple):
    """One run a criterion makes on LINE: its label, the scenario's fields,
    and what the result must show. The run must raise the attack flag
    exactly when flag is set, and, where estimates is given, return that
    (t0, tau) to within 1e-12 s."""

    label: str
    kind: str
    seed: int
    t0: float
    tau: float
    attacks: tuple[Attack, ...] = ()
    quantization: float = ClockConfig.quantization
    flag: bool = False
    estimates: tuple[float, float] | None = None

    def scenario(self):
        """The row's scenario, with its attacks installed, built as `kljnsync
        run` builds one: from a validated ScenarioConfig."""
        return ScenarioConfig(
            self.seed, LINE, ProtocolConfig(self.kind), clock=ClockConfig(t0=self.t0, quantization=self.quantization),
            channel=ChannelConfig(tau=self.tau), attacks=self.attacks,
        ).build_scenario()


def _run(row: Row) -> SyncResult:
    """The row's verdict, through the dispatch `kljnsync run` uses."""
    return run_protocol(row.scenario())


def _run_rows(rows: list[Row]) -> tuple[list[SyncResult], str]:
    """Every row's result, and "" or the rows that missed, each named by
    its label: a wrong attack flag, or estimates off by 1e-12 s or more."""
    results = [_run(row) for row in rows]
    missed = []
    for row, res in zip(rows, results):
        got = (res.t0_est, res.tau_est)
        if res.attack_flag != row.flag:
            missed.append(f"{row.label}: attack_flag {res.attack_flag}, expected {row.flag}")
        elif row.estimates and not all(e is not None and abs(e - want) < 1e-12 for e, want in zip(got, row.estimates)):
            missed.append(f"{row.label}: (t0_est, tau_est) = {got!r}, expected {row.estimates!r}")
    return results, "; ".join(missed)


def criterion_1_autocorrelation() -> tuple[bool, str]:
    """Generated noise reproduces the sinc autocorrelation of an ideal
    rectangular spectrum at the reference lags, and its power is S0*B."""
    started = time.perf_counter()
    B, S0, fs, duration = 1e4, 1e-6, 2e5, 10.0
    trace = generate_with_guard(B, S0, 101, duration, fs)
    ac = empirical_autocorrelation(trace, fs, 20)
    se = autocorrelation_standard_error(B, S0, len(trace), fs)

    rows = ac[[0, 5, 10, 20]]  # lags 0, 1/(4B), 1/(2B), 1/B
    devs = [abs(value - theoretical_autocorrelation(B, S0, lag)) for lag, value in rows]
    problems = [f"lag {lag:.2e}s off by {dev / se:.1f} SE" for (lag, _), dev in zip(rows, devs) if dev >= 5.0 * se]
    lag0_rel = abs(ac[0, 1] - S0 * B) / (S0 * B)
    if lag0_rel >= 0.03:
        problems.append(f"lag-0 value off by {lag0_rel:.1%}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s (budget 10s)")
    detail = f"max |dev| {max(devs) / se:.2f} SE, lag-0 within {lag0_rel:.2%}, {elapsed:.1f}s"
    return not problems, detail if not problems else "; ".join(problems)


def criterion_2_timing_helper() -> tuple[bool, str]:
    """The timing helper returns (0.1/B, 100/B) exactly and documents the
    ~10 us resolution adequate for a 2 km range."""
    got = timing_defaults(1e4)
    if got != (1e-5, 1e-2):
        return False, f"timing_defaults(10 kHz) returned {got}"
    doc = timing_defaults.__doc__ or ""
    if "2 km" not in doc or "10 us" not in doc:
        return False, "docstring lacks the 2 km / 10 us resolution cross-reference"
    return True, "(10 us, 10 ms) exact; range note present"


def criterion_3_exactness() -> tuple[bool, str]:
    """Over 1000 random (t0, tau) pairs with quantization off, the two-way
    exchange recovers both to 1e-12 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    pairs = [(float(rng.uniform(-0.05, 0.05)), float(rng.uniform(1e-7, 0.02))) for _ in range(1000)]
    rows = [Row(f"pair {i}", "A", 1, *pair, quantization=0.0, estimates=pair) for i, pair in enumerate(pairs)]
    results, missed = _run_rows(rows)
    worst = max(max(abs(res.t0_est - t0), abs(res.tau_est - tau)) for (t0, tau), res in zip(pairs, results))
    elapsed = time.perf_counter() - started
    return not missed and elapsed < 5.0, missed or f"worst error {worst:.2e}s over 1000 pairs, {elapsed:.1f}s"


def criterion_4_delay_algebra() -> tuple[bool, str]:
    """An added one-way delay d biases the estimates by exactly d/2 (sign
    set by the attacked leg) and raises no flag on protocols A or B."""
    t0, tau = 0.005, 0.002
    rows = [
        Row(f"{kind}/{leg}/{delta:g}", kind, 7, t0, tau, (AsymDelay(leg, delta),),
            estimates=(t0 + sign * delta / 2, tau + delta / 2))
        for delta in (1e-3, 2e-3, 4e-3, 8e-3)
        for leg, sign in (("AtoB", +1.0), ("BtoA", -1.0))
        for kind in ("A", "B")
    ]
    _, missed = _run_rows(rows)
    return not missed, missed or f"{len(rows)} protocol/leg/delta combinations exact, all unflagged"


def criterion_5_substitution_detection() -> tuple[bool, str]:
    """100/100 message substitutions and 100/100 file substitutions are
    flagged; 0/10^4 forged tags verify."""
    rng = np.random.default_rng(505)
    targets = [(kind.value, name) for kind in MessageKind for name in kind.fields]
    rows = []
    for i in range(100):
        target, field_name = targets[i % len(targets)]
        attack = Substitute(target, field_name, delta=float(rng.uniform(1e-5, 1e-2)), fabricate_tag=i % 3 == 0)
        rows.append(Row(f"{target}.{field_name} #{i}", "B", 1000 + i, 0.005, 0.002, (attack,), flag=True))
    n_samples = int(LINE.bep_duration * FS)
    for i in range(100):
        attack = Substitute(
            "file",
            mode="alter_sample",
            sample_index=int(rng.integers(n_samples)),
            delta=float(rng.uniform(1e-4, 1.0)),
            direction="AtoB" if i % 2 else "BtoA",
        )
        rows.append(Row(f"record #{i}", "C", 2000 + i, 0.0, 0.002, (attack,), flag=True))
    _, missed = _run_rows(rows)
    if missed:
        return False, missed

    ledger = KeyLedger.generate(512, seed=9)
    encrypt_digest(hash_message(b"genuine"), ledger)
    forged_ok = 0
    for _ in range(10_000):
        tag = AuthTag(rng.bytes(32), KeySpan(0, 256))
        forged_ok += verify(b"forged payload", tag, ledger)
    if forged_ok:
        return False, f"{forged_ok}/10000 forged tags verified"
    return True, "100/100 message, 100/100 file substitutions flagged; 0/10000 forgeries verified"


def criterion_6_offset_recovery() -> tuple[bool, str]:
    """100 honest integrity-check runs with offsets across +-25 sample
    intervals recover the offset to within one sample, with residuals far
    below the detection threshold. So do 50 runs with offsets a random
    fraction of a sample off that grid and 10 runs with offsets beyond
    100 samples, up to 900, each of which must pass unflagged."""
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    offsets = [int(rng.integers(-25, 26)) for _ in range(100)]
    rng = np.random.default_rng(616)  # the sub-sample and far offsets share this stream
    offsets += [int(rng.integers(-25, 26)) + rng.uniform(0.0, 1.0) for _ in range(50)]
    offsets += [rng.choice([-1.0, 1.0]) * (900.0 - rng.uniform(0.0, 800.0)) for _ in range(10)]
    rows = [Row(f"{samples:.6g} samples", "C", 3000 + i, samples / FS, 0.002) for i, samples in enumerate(offsets)]
    results, _ = _run_rows(rows)

    def tally(lo: int, hi: int):
        """Over rows lo to hi that ran unflagged: how many recovered the
        offset to within one sample, the worst error and the largest residual."""
        runs = zip(rows[lo:hi], results[lo:hi])
        done = [(abs(res.t0_est - row.t0) * FS, res.residual) for row, res in runs if not res.attack_flag]
        good = sum(err <= 1.0 for err, _ in done)
        worst = max((err for err, _ in done), default=0.0)
        return good, worst, max((residual for _, residual in done), default=0.0)

    good, worst_err, max_residual = tally(0, 100)
    good_sub, worst_sub, residual_sub = tally(100, 150)
    good_far, worst_far, residual_far = tally(150, 160)
    elapsed = time.perf_counter() - started
    ok = (
        good >= 99
        and max_residual < 1e-4
        and good_sub == 50
        and good_far == 10
        and max(residual_sub, residual_far) < 1e-4
        and elapsed < 60.0
    )
    return ok, (
        f"{good}/100 within 1 sample (worst {worst_err:.3f}), "
        f"max residual {max_residual:.2e}; sub-sample {good_sub}/50 "
        f"(worst {worst_sub:.3f}), beyond 100 samples {good_far}/10 "
        f"(worst {worst_far:.3f}), max residual {max(residual_sub, residual_far):.2e}; "
        f"{elapsed:.1f}s"
    )


def criterion_7_integrity_detection() -> tuple[bool, str]:
    """A mid-record +50% wire-resistance change always drives the residual
    past threshold, and the combined check catches asymmetric delays of
    four clock quanta and up."""
    def residual_for(factor: float, seed: int) -> float:
        sched = [(LINE.bep_duration / 2, LINE.R_wire * factor)]
        meas_a, meas_b = simulate_bep(
            ResistorChoice.L, ResistorChoice.H, LINE, seed=seed, r_wire_schedule=sched
        )
        fa, fb = build_bep_file(meas_a, LINE), build_bep_file(meas_b, LINE)
        return float(residual_curve(fa, fb, LINE.R_wire)[1].min())

    caught = 0
    min_residual = np.inf
    for i in range(100):
        res = residual_for(1.5, 7000 + i)
        caught += res > 1e-2
        min_residual = min(min_residual, res)
    if caught != 100:
        return False, f"only {caught}/100 line modifications flagged"

    # empirical detection boundary: smallest mid-record change the default
    # threshold still catches (reported, not asserted)
    boundary = "none"
    for pct in (5, 10, 15, 20, 30):
        if residual_for(1.0 + pct / 100.0, 7777) > 1e-2:
            boundary = f"~{pct}%"
            break

    delays = [
        Row(f"{quanta}-quantum delay", "Combined", 42, 7.0 / FS, 0.002, (AsymDelay("BtoA", quanta * 1e-6),), flag=True)
        for quanta in (4, 8, 4000)
    ]
    _, missed = _run_rows(delays)
    if missed:
        return False, missed
    return True, (
        f"100/100 wire changes flagged (min residual {min_residual:.3f}, "
        f">= {min_residual / 1e-4:.0f}x honest bound; detection boundary {boundary} "
        f"at threshold 0.01); delays of 4+ quanta all caught"
    )


def ks_2samp(x, y) -> tuple[float, float]:
    """The two-sample Kolmogorov-Smirnov statistic and its exact two-sided
    p-value, as scipy.stats.ks_2samp(x, y, method="exact") gives them.

    The statistic is the largest ECDF difference, snapped to the lattice of
    multiples of 1/lcm(n, m). The p-value is one minus the probability that
    a uniformly random merge of the two samples keeps its ECDF difference
    below that statistic at every step. That probability is carried along
    the anti-diagonals i + j = s of the (i, j) lattice with the
    hypergeometric step weights, so it never overflows as a path count
    would.
    """
    x, y = np.sort(x), np.sort(y)
    n, m = len(x), len(y)
    pooled = np.concatenate([x, y])
    diff = np.searchsorted(x, pooled, side="right") / n - np.searchsorted(y, pooled, side="right") / m
    g = math.gcd(n, m)
    lcm = n // g * m
    h = round(float(np.abs(diff).max()) * lcm)
    if h == 0:
        return 0.0, 1.0
    # (i, j) is inside while |i/n - j/m| < h/lcm, i.e. |i*(m/g) - j*(n/g)| < h
    i = np.arange(n + 1)
    scaled_i = i * (m // g)
    inside = np.zeros(n + 1)
    inside[0] = 1.0
    for s in range(n + m):
        remaining = n + m - s
        step_i = inside * ((n - i) / remaining)  # (i, s-i) -> (i+1, s-i)
        inside *= (m - (s - i)) / remaining  # (i, s-i) -> (i, s-i+1)
        inside[1:] += step_i[:-1]
        inside[np.abs(scaled_i - (s + 1 - i) * (n // g)) >= h] = 0.0
    return h / lcm, min(max(1.0 - float(inside[n]), 0.0), 1.0)


def criterion_8_security_identity() -> tuple[bool, str]:
    """Over 2000 BEPs the two mixed arrangements are indistinguishable,
    passive guessing is chance, and honest parties agree on every
    unambiguous mixed bit."""
    rng = np.random.default_rng(808)
    msq = {(0, 1): [], (1, 0): []}
    guesses = []
    agreements, mixed_unambiguous = 0, 0
    for k in range(2000):
        c_a = ResistorChoice.L if rng.integers(2) == 0 else ResistorChoice.H
        c_b = ResistorChoice.L if rng.integers(2) == 0 else ResistorChoice.H
        meas_a, meas_b = simulate_bep(c_a, c_b, LINE, seed=50_000 + k)
        pair = (int(c_a is ResistorChoice.H), int(c_b is ResistorChoice.H))
        if pair in msq:
            msq[pair].append(meas_a.msq_voltage)
            true_bit = 0 if pair == (0, 1) else 1
            try:
                guess = passive_bit_guess(meas_a, LINE, seed=k)
                guesses.append(guess == true_bit)
            except (InconsistentStateError, AmbiguousMeasurementError):
                pass
        try:
            st_a = classify_bep(meas_a, LINE)
            st_b = classify_bep(meas_b, LINE)
        except AmbiguousMeasurementError:
            continue
        if st_a is BitState.MIXED and st_b is BitState.MIXED:
            if c_a is c_b:
                continue  # a same-choice BEP misread as mixed; agreement undefined
            mixed_unambiguous += 1
            agreements += infer_key_bit(c_a, st_a, Party.ALICE) == infer_key_bit(c_b, st_b, Party.BOB)

    _, p = ks_2samp(msq[(0, 1)], msq[(1, 0)])
    if p <= 0.01:
        return False, f"mixed populations distinguishable (p = {p:.4f})"
    acc = float(np.mean(guesses))
    band = 3.0 * np.sqrt(0.25 / len(guesses))
    if abs(acc - 0.5) >= band:
        return False, f"passive accuracy {acc:.3f} outside 0.5 +- {band:.3f}"
    if agreements != mixed_unambiguous:
        return False, f"bit agreement {agreements}/{mixed_unambiguous}"
    return True, (
        f"KS p = {p:.3f}; Eve accuracy {acc:.3f} in 0.5 +- {band:.3f} "
        f"(n = {len(guesses)}); agreement {agreements}/{mixed_unambiguous}"
    )


def criterion_9_attack_matrix() -> tuple[bool, str]:
    """The detection table: A catches nothing, B exactly substitution, the
    combined integrity check all three active attacks."""
    delay = AsymDelay("BtoA", 4e-3)
    two_way = [
        ("Substitute", Substitute("Response", "t2_star", delta=1e-3)),
        ("AsymDelay", delay),
        ("LineMod", LineMod(tau=3e-3, at_time=0.004)),
    ]
    combined = [
        ("Substitute", Substitute("file", mode="alter_sample", sample_index=3, delta=0.5)),
        ("AsymDelay", delay),
        ("LineMod(wire)", LineMod(r_wire_factor=1.5, at_bep=0, fraction=0.5)),
        ("LineMod(tau)", LineMod(tau=3e-3, at_time=0.05)),
    ]
    rows = [Row(f"A/{name}", "A", 91, 0.005, 0.002, (attack,)) for name, attack in two_way]
    rows += [Row(f"B/{name}", "B", 92, 0.005, 0.002, (attack,), flag=name == "Substitute") for name, attack in two_way]
    rows += [
        Row(f"C+Combined/{name}", "Combined", 93, 7.0 / FS, 0.002, (attack,), flag=True) for name, attack in combined
    ]
    _, missed = _run_rows(rows)
    return not missed, missed or "A detects {}; B detects {Substitute}; C+Combined detects all three"


def criterion_10_determinism() -> tuple[bool, str]:
    """Every bundled scenario, run twice with its seed, produces
    byte-identical reports."""
    for name in bundled_scenario_names():
        cfg = load_bundled(name)
        first = run_scenario(cfg).canonical_json()
        second = run_scenario(cfg).canonical_json()
        if first != second:
            return False, f"{name}: reports differ between runs"
    return True, f"{len(bundled_scenario_names())} bundled scenarios byte-identical"


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    run: Callable[[], tuple[bool, str]]


CRITERIA = [
    Criterion(1, "noise autocorrelation reproduces the sinc kernel", criterion_1_autocorrelation),
    Criterion(2, "timing defaults and resolution documentation", criterion_2_timing_helper),
    Criterion(3, "two-way exchange recovers offset and delay exactly", criterion_3_exactness),
    Criterion(4, "asymmetric delay biases estimates by half, unflagged", criterion_4_delay_algebra),
    Criterion(5, "substitutions always flagged, forgeries never verify", criterion_5_substitution_detection),
    Criterion(6, "integrity sync recovers offsets to one sample", criterion_6_offset_recovery),
    Criterion(7, "line modification and delay attacks are detected", criterion_7_integrity_detection),
    Criterion(8, "mixed-state security identity holds", criterion_8_security_identity),
    Criterion(9, "attack detection matrix", criterion_9_attack_matrix),
    Criterion(10, "bundled scenarios are deterministic", criterion_10_determinism),
]


def run_all(only: int | None = None) -> bool:
    """Run every criterion (or just the numbered one), print one pass/fail
    line each, return overall success."""
    selected = [c for c in CRITERIA if only is None or c.number == only]
    if not selected:
        raise ConfigError(f"no acceptance criterion numbered {only}")
    all_ok = True
    for crit in selected:
        started = time.perf_counter()
        passed, detail = crit.run()
        elapsed = time.perf_counter() - started
        all_ok &= passed
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] criterion {crit.number}: {crit.name} ({elapsed:.1f}s) - {detail}")
    return all_ok
