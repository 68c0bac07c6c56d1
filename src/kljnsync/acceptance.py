"""The acceptance suite: ten quantitative checks the simulator must pass.

Each criterion is a function returning (passed, detail); the CLI `verify`
verb and the pytest acceptance module both run this list, so there is one
source of truth for the gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

from .adversaries import AsymDelay, LineMod, Substitute, install, passive_bit_guess
from .auth import AuthTag, KeyLedger, KeySpan, encrypt_digest, hash_message, verify
from .bepfile import build_bep_file
from .config import ChannelConfig, ClockConfig, ProtocolConfig
from .errors import (
    AmbiguousMeasurementError,
    ConfigError,
    FlatResidualError,
    InconsistentStateError,
)
from .harness import bundled_scenario_names, load_bundled, run_scenario
from .line import (
    BitState,
    LineConfig,
    Party,
    ResistorChoice,
    classify_bep,
    infer_partner_choice,
    simulate_bep,
    timing_defaults,
    true_bit_state,
)
from .noise import (
    NoiseSpec,
    autocorrelation_standard_error,
    empirical_autocorrelation,
    generate_bandlimited_gaussian,
    theoretical_autocorrelation,
)
from .protocols import combined_check, estimate_offset, exchange_files, protocol_a, protocol_b, protocol_c
from .scenario import make_scenario

LINE = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
FS = LINE.sample_rate


def _scenario(kind: str, seed: int, t0: float, tau: float, quantization=1e-6):
    return make_scenario(
        LINE,
        seed=seed,
        protocol=ProtocolConfig(kind),
        clock=ClockConfig(t0=t0, quantization=quantization),
        channel=ChannelConfig(tau=tau),
    )


def criterion_1_autocorrelation() -> tuple[bool, str]:
    """Generated noise reproduces the sinc autocorrelation of an ideal
    rectangular spectrum at the reference lags, and its power is S0*B."""
    started = time.perf_counter()
    B, S0, fs, duration = 1e4, 1e-6, 2e5, 10.0
    spec = NoiseSpec(B, S0, seed=101)
    trace = generate_bandlimited_gaussian(spec, duration, fs)
    ac = empirical_autocorrelation(trace, 20)
    se = autocorrelation_standard_error(spec, len(trace), fs)

    problems = []
    for lag_samples in (0, 5, 10, 20):  # 0, 1/(4B), 1/(2B), 1/B
        lag = ac[lag_samples, 0]
        dev = abs(ac[lag_samples, 1] - theoretical_autocorrelation(B, S0, lag))
        if dev >= 5.0 * se:
            problems.append(f"lag {lag:.2e}s off by {dev / se:.1f} SE")
    lag0_rel = abs(ac[0, 1] - S0 * B) / (S0 * B)
    if lag0_rel >= 0.03:
        problems.append(f"lag-0 value off by {lag0_rel:.1%}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s (budget 10s)")
    detail = f"max |dev| {max(abs(ac[m,1]-theoretical_autocorrelation(B,S0,ac[m,0]))/se for m in (0,5,10,20)):.2f} SE, lag-0 within {lag0_rel:.2%}, {elapsed:.1f}s"
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
    worst = 0.0
    for _ in range(1000):
        t0 = float(rng.uniform(-0.05, 0.05))
        tau = float(rng.uniform(1e-7, 0.02))
        sc = _scenario("A", seed=1, t0=t0, tau=tau, quantization=None)
        res = protocol_a(sc)
        worst = max(worst, abs(res.t0_est - t0), abs(res.tau_est - tau))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 5.0
    return ok, f"worst error {worst:.2e}s over 1000 pairs, {elapsed:.1f}s"


def criterion_4_delay_algebra() -> tuple[bool, str]:
    """An added one-way delay d biases the estimates by exactly d/2 (sign
    set by the attacked leg) and raises no flag on protocols A or B."""
    t0, tau = 0.005, 0.002
    checks = 0
    for delta in (1e-3, 2e-3, 4e-3, 8e-3):
        for leg, sign in (("AtoB", +1.0), ("BtoA", -1.0)):
            for kind, runner in (("A", protocol_a), ("B", protocol_b)):
                sc = _scenario(kind, seed=7, t0=t0, tau=tau)
                install(AsymDelay(leg, delta), sc)
                res = runner(sc)
                if res.attack_flag:
                    return False, f"{runner.__name__} flagged a pure delay"
                if abs(res.t0_est - (t0 + sign * delta / 2)) > 1e-12:
                    return False, f"t0_est wrong for delta={delta}, leg={leg}"
                if abs(res.tau_est - (tau + delta / 2)) > 1e-12:
                    return False, f"tau_est wrong for delta={delta}, leg={leg}"
                checks += 1
    return True, f"{checks} protocol/leg/delta combinations exact, all unflagged"


def criterion_5_substitution_detection() -> tuple[bool, str]:
    """100/100 message substitutions and 100/100 file substitutions are
    flagged; 0/10^4 forged tags verify."""
    rng = np.random.default_rng(505)
    targets = [
        ("TimeStamp", "t1"),
        ("Response", "t1_star"),
        ("Response", "t2_star"),
        ("Share", "t2"),
    ]
    caught = 0
    for i in range(100):
        target, field_name = targets[i % len(targets)]
        delta = float(rng.uniform(1e-5, 1e-2))
        sc = _scenario("B", seed=1000 + i, t0=0.005, tau=0.002)
        install(Substitute(target, field_name, delta=delta, fabricate_tag=bool(i % 3 == 0)), sc)
        caught += protocol_b(sc).attack_flag
    if caught != 100:
        return False, f"only {caught}/100 message substitutions flagged"

    meas_a, meas_b = simulate_bep(ResistorChoice.L, ResistorChoice.H, LINE, seed=42)
    file_a, file_b = build_bep_file(meas_a, LINE), build_bep_file(meas_b, LINE)
    caught_files = 0
    for i in range(100):
        sc = _scenario("C", seed=2000 + i, t0=0.0, tau=0.002)
        install(
            Substitute(
                "file",
                mode="alter_sample",
                sample_index=int(rng.integers(len(file_a))),
                delta=float(rng.uniform(1e-4, 1.0)),
                direction="AtoB" if i % 2 else "BtoA",
            ),
            sc,
        )
        out = exchange_files(sc, file_a, file_b, 0.0)
        caught_files += not out.all_ok
    if caught_files != 100:
        return False, f"only {caught_files}/100 file substitutions flagged"

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

    def recover(i: int, samples: float):
        """The run's error in samples and its residual; None if flagged."""
        t0 = samples / FS
        res = protocol_c(_scenario("C", seed=3000 + i, t0=t0, tau=0.002))
        if res.attack_flag:
            return None
        return abs(res.t0_est - t0) * FS, res.residual

    rng = np.random.default_rng(606)
    whole = [recover(i, int(rng.integers(-25, 26))) for i in range(100)]
    rng = np.random.default_rng(616)
    sub_sample = [recover(100 + i, int(rng.integers(-25, 26)) + rng.uniform(0.0, 1.0)) for i in range(50)]
    far = [recover(150 + i, rng.choice([-1.0, 1.0]) * (900.0 - rng.uniform(0.0, 800.0))) for i in range(10)]

    def tally(runs):
        done = [run for run in runs if run is not None]
        good = sum(err <= 1.0 for err, _ in done)
        worst = max((err for err, _ in done), default=0.0)
        return good, worst, max((residual for _, residual in done), default=0.0)

    good, worst_err, max_residual = tally(whole)
    good_sub, worst_sub, residual_sub = tally(sub_sample)
    good_far, worst_far, residual_far = tally(far)
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
        try:
            _, res = estimate_offset(fa, fb, LINE.R_wire)
        except FlatResidualError as err:
            res = err.residual
        return res

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

    for quanta in (4, 8, 4000):
        sc = _scenario("Combined", seed=42, t0=7.0 / FS, tau=0.002)
        install(AsymDelay("BtoA", quanta * 1e-6), sc)
        if not combined_check(sc).attack_flag:
            return False, f"combined check missed a {quanta}-quantum delay"
    return True, (
        f"100/100 wire changes flagged (min residual {min_residual:.3f}, "
        f">= {min_residual / 1e-4:.0f}x honest bound; detection boundary {boundary} "
        f"at threshold 0.01); delays of 4+ quanta all caught"
    )


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
                guess = passive_bit_guess(meas_a.voltage_trace, meas_a.current_trace, LINE, seed=k)
                guesses.append(guess == true_bit)
            except (InconsistentStateError, AmbiguousMeasurementError):
                pass
        try:
            st_a = classify_bep(meas_a, LINE)
            st_b = classify_bep(meas_b, LINE)
        except AmbiguousMeasurementError:
            continue
        if st_a is BitState.MIXED and st_b is BitState.MIXED:
            if true_bit_state(c_a, c_b) is not BitState.MIXED:
                continue  # a same-choice BEP misread as mixed; agreement undefined
            mixed_unambiguous += 1
            bit_a = infer_partner_choice(c_a, st_a, Party.ALICE).key_bit
            bit_b = infer_partner_choice(c_b, st_b, Party.BOB).key_bit
            agreements += bit_a == bit_b

    p = stats.ks_2samp(msq[(0, 1)], msq[(1, 0)]).pvalue
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
    flips = []

    def expect(name, got, want):
        if got != want:
            flips.append(f"{name}: detected={got}, expected {want}")

    sub_msg = Substitute("Response", "t2_star", delta=1e-3)
    sub_file = Substitute("file", mode="alter_sample", sample_index=3, delta=0.5)
    delay = AsymDelay("BtoA", 4e-3)
    lm_tau = LineMod(tau=3e-3, at_time=0.004)
    lm_wire = LineMod(r_wire_factor=1.5, at_bep=0, fraction=0.5)
    lm_tau_late = LineMod(tau=3e-3, at_time=0.05)

    for label, attack, want in (
        ("A/Substitute", sub_msg, False),
        ("A/AsymDelay", delay, False),
        ("A/LineMod", lm_tau, False),
    ):
        sc = _scenario("A", seed=91, t0=0.005, tau=0.002)
        install(attack, sc)
        expect(label, protocol_a(sc).attack_flag, want)

    for label, attack, want in (
        ("B/Substitute", sub_msg, True),
        ("B/AsymDelay", delay, False),
        ("B/LineMod", lm_tau, False),
    ):
        sc = _scenario("B", seed=92, t0=0.005, tau=0.002)
        install(attack, sc)
        expect(label, protocol_b(sc).attack_flag, want)

    for label, attack, want in (
        ("C+Combined/Substitute", sub_file, True),
        ("C+Combined/AsymDelay", delay, True),
        ("C+Combined/LineMod(wire)", lm_wire, True),
        ("C+Combined/LineMod(tau)", lm_tau_late, True),
    ):
        sc = _scenario("Combined", seed=93, t0=7.0 / FS, tau=0.002)
        install(attack, sc)
        expect(label, combined_check(sc).attack_flag, want)

    if flips:
        return False, "; ".join(flips)
    return True, "A detects {}; B detects {Substitute}; C+Combined detects all three"


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


def run_all(report=print, only: int | None = None) -> bool:
    """Run every criterion (or just the numbered one), emit one pass/fail
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
        report(f"[{status}] criterion {crit.number}: {crit.name} ({elapsed:.1f}s) - {detail}")
    return all_ok
