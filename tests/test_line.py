import numpy as np
import pytest

from kljnsync.acceptance import ks_2samp
from kljnsync.errors import (
    AmbiguousMeasurementError,
    ConfigError,
    DegenerateInputError,
    InconsistentStateError,
)
from kljnsync.harness import bundled_scenario_names, load_bundled
from kljnsync.line import (
    BepMeasurement,
    BitState,
    LineConfig,
    Party,
    ResistorChoice,
    analytic_levels,
    analytic_msq_current,
    analytic_msq_voltage,
    classification_thresholds,
    classify_bep,
    infer_partner_choice,
    simulate_bep,
    timing_defaults,
    true_bit_state,
)
from kljnsync.noise import NoiseTrace, Unit

L, H = ResistorChoice.L, ResistorChoice.H

# R_L = 1, R_H = 10 with noise_scale * B = 1 gives the handy normalized
# levels 0.5 (LL), 10/11 (MIXED), 5.0 (HH).
CFG = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
CFG_NOWIRE = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4, R_wire=0.0)


def test_timing_defaults():
    assert timing_defaults(1e4) == (1e-5, 1e-2)
    assert timing_defaults(1.0) == (0.1, 100.0)
    with pytest.raises(ConfigError):
        timing_defaults(0.0)


def test_config_defaults():
    assert CFG.R_wire == 0.01  # R_L / 100
    assert CFG.sample_rate == 20.0 * CFG.bandwidth_B
    assert (CFG.tau_f, CFG.bep_duration) == timing_defaults(CFG.bandwidth_B)


def test_config_validation():
    with pytest.raises(ConfigError):
        LineConfig(R_L=10.0, R_H=1.0, bandwidth_B=1e4, noise_scale=1e-4)
    with pytest.raises(ConfigError):
        LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4, sample_rate=1e4)
    with pytest.raises(ConfigError):
        LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=-1.0)


def test_analytic_levels_normalized_case():
    assert analytic_msq_voltage(CFG_NOWIRE, L, H) == pytest.approx(10.0 / 11.0, rel=1e-12)
    assert analytic_msq_voltage(CFG_NOWIRE, L, L) == pytest.approx(0.5, rel=1e-12)
    assert analytic_msq_voltage(CFG_NOWIRE, H, H) == pytest.approx(5.0, rel=1e-12)
    assert analytic_msq_current(CFG_NOWIRE, L, H) == pytest.approx(1.0 / 11.0, rel=1e-12)
    # with no wire resistance both terminals see the same statistics
    assert analytic_msq_voltage(CFG_NOWIRE, L, H, Party.BOB) == pytest.approx(10.0 / 11.0)


def test_level_ordering_holds_for_random_resistor_pairs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r_l = float(rng.uniform(0.1, 50.0))
        r_h = r_l * float(rng.uniform(1.5, 50.0))
        cfg = LineConfig(R_L=r_l, R_H=r_h, bandwidth_B=1e4, noise_scale=1e-4)
        levels = analytic_levels(cfg)
        assert levels[BitState.LL] < levels[BitState.MIXED] < levels[BitState.HH]


def test_simulated_mean_squares_match_divider_oracle():
    # one long record (1 s = 100 BEPs worth) tightens the statistics to ~1%
    cfg = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4, R_wire=0.0, bep_duration=1.0)
    meas_a, meas_b = simulate_bep(L, H, cfg, seed=11)
    assert meas_a.msq_voltage == pytest.approx(10.0 / 11.0, rel=0.03)
    assert meas_a.msq_current == pytest.approx(1.0 / 11.0, rel=0.03)
    assert meas_b.msq_voltage == pytest.approx(10.0 / 11.0, rel=0.03)
    # the reversed arrangement lands on the same level
    meas_hl, _ = simulate_bep(H, L, cfg, seed=12)
    assert meas_hl.msq_voltage == pytest.approx(10.0 / 11.0, rel=0.03)


def test_zero_noise_scale_gives_silent_line():
    cfg = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=0.0)
    meas_a, meas_b = simulate_bep(L, H, cfg, seed=1)
    assert meas_a.msq_voltage == 0.0 and meas_a.msq_current == 0.0
    assert np.all(meas_b.voltage_trace.samples == 0.0)


def test_simulation_is_deterministic():
    a1, b1 = simulate_bep(L, H, CFG, seed=99)
    a2, b2 = simulate_bep(L, H, CFG, seed=99)
    assert np.array_equal(a1.voltage_trace.samples, a2.voltage_trace.samples)
    assert np.array_equal(b1.current_trace.samples, b2.current_trace.samples)


def test_ohm_consistency_links_the_two_terminals():
    meas_a, meas_b = simulate_bep(L, H, CFG, seed=13)
    recon = (meas_a.voltage_trace.samples - meas_b.voltage_trace.samples) / CFG.R_wire
    i = meas_a.current_trace.samples
    scale = np.sqrt(np.mean(i**2))
    assert np.max(np.abs(recon - i)) / scale < 1e-9


def test_both_parties_record_the_same_loop_current():
    meas_a, meas_b = simulate_bep(H, L, CFG, seed=14)
    assert np.array_equal(meas_a.current_trace.samples, meas_b.current_trace.samples)
    assert meas_a.current_trace.unit is Unit.AMPERE


def test_local_clock_stamps():
    meas_a, meas_b = simulate_bep(L, H, CFG, seed=15, start_absolute=2.0, offset_B=0.003)
    assert meas_a.local_start_time == 2.0
    assert meas_b.local_start_time == 2.003


def test_r_wire_step_changes_the_loop_mid_record():
    sched = [(0.005, 0.015)]  # +50% halfway through the 10 ms BEP
    meas_a, meas_b = simulate_bep(L, H, CFG, seed=16, r_wire_schedule=sched)
    recon = (meas_a.voltage_trace.samples - meas_b.voltage_trace.samples) / CFG.R_wire
    i = meas_a.current_trace.samples
    n_half = len(i) // 2
    assert np.allclose(recon[:n_half], i[:n_half], rtol=1e-9)
    assert np.allclose(recon[n_half:], 1.5 * i[n_half:], rtol=1e-9)


def test_measurement_invariants_checked():
    tr = NoiseTrace(np.ones(100), 1e3)
    short = NoiseTrace(np.ones(99), 1e3)
    with pytest.raises(ConfigError):
        BepMeasurement(Party.ALICE, 0, 0.0, tr, short)


def test_record_mean_squares_are_computed_once_on_first_read(monkeypatch):
    original, passes = NoiseTrace.mean_square, []

    def counted(trace):
        passes.append(trace.unit)
        return original(trace)

    monkeypatch.setattr(NoiseTrace, "mean_square", counted)
    meas_a, _ = simulate_bep(L, H, CFG, seed=17)
    assert passes == []
    for _ in range(2):  # the second read finds the value the first one kept
        assert meas_a.msq_voltage == float(np.mean(meas_a.voltage_trace.samples**2))
        assert meas_a.msq_current == float(np.mean(meas_a.current_trace.samples**2))
    assert passes == [Unit.VOLT, Unit.AMPERE]
    empty = NoiseTrace(np.zeros(0), CFG.sample_rate)
    assert BepMeasurement(Party.BOB, 0, 0.0, empty, empty).msq_voltage == 0.0
    assert len(passes) == 2


def _levels_from_msq_voltage(cfg: LineConfig, party: Party) -> tuple[dict, tuple[float, float]]:
    # the levels and thresholds as built per party from the arrangement levels
    mixed = 0.5 * (analytic_msq_voltage(cfg, L, H, party) + analytic_msq_voltage(cfg, H, L, party))
    levels = {
        BitState.LL: analytic_msq_voltage(cfg, L, L, party),
        BitState.MIXED: mixed,
        BitState.HH: analytic_msq_voltage(cfg, H, H, party),
    }
    low = float(np.sqrt(levels[BitState.LL] * levels[BitState.MIXED]))
    high = float(np.sqrt(levels[BitState.MIXED] * levels[BitState.HH]))
    return levels, (low, high)


def _line_configs():
    yield from (load_bundled(name).line for name in bundled_scenario_names())
    yield CFG_NOWIRE
    rng = np.random.default_rng(2022)
    for _ in range(2000):
        r_l = float(10.0 ** rng.uniform(-3, 4))
        yield LineConfig(
            R_L=r_l,
            R_H=r_l * float(10.0 ** rng.uniform(0.01, 3)),
            bandwidth_B=float(10.0 ** rng.uniform(1, 6)),
            noise_scale=float(10.0 ** rng.uniform(-20, -2)),
            R_wire=None if rng.integers(4) == 0 else r_l * float(rng.choice([0.0, 1e-4, 1e-2, 0.3])),
        )


def test_both_parties_share_the_kept_levels_bit_for_bit():
    for cfg in _line_configs():
        levels, thresholds = analytic_levels(cfg), classification_thresholds(cfg)
        for party in (Party.ALICE, Party.BOB):
            assert (levels, thresholds) == _levels_from_msq_voltage(cfg, party), (cfg, party)


def _measurement_with_msq(msq: float, n: int = 2000) -> BepMeasurement:
    tr = NoiseTrace(np.full(n, np.sqrt(msq)), CFG.sample_rate)
    return BepMeasurement(Party.ALICE, 0, 0.0, tr, tr)


def test_classify_on_level_inputs():
    levels = analytic_levels(CFG)
    assert classify_bep(_measurement_with_msq(levels[BitState.LL]), CFG) is BitState.LL
    assert classify_bep(_measurement_with_msq(0.91), CFG) is BitState.MIXED
    assert classify_bep(_measurement_with_msq(levels[BitState.HH]), CFG) is BitState.HH


def test_classify_guard_band_raises():
    low, _ = classification_thresholds(CFG)
    with pytest.raises(AmbiguousMeasurementError):
        classify_bep(_measurement_with_msq(low * 1.01), CFG)
    # just outside the default 5% band is fine
    classify_bep(_measurement_with_msq(low * 1.06), CFG)


def test_classify_needs_half_a_bep_of_samples():
    with pytest.raises(DegenerateInputError):
        classify_bep(_measurement_with_msq(0.5, n=100), CFG)


def test_honest_run_classification_accuracy():
    rng = np.random.default_rng(77)
    correct = 0
    for k in range(100):
        c_a = L if rng.integers(2) == 0 else H
        c_b = L if rng.integers(2) == 0 else H
        meas_a, _ = simulate_bep(c_a, c_b, CFG, seed=1000 + k)
        try:
            if classify_bep(meas_a, CFG) is true_bit_state(c_a, c_b):
                correct += 1
        except AmbiguousMeasurementError:
            pass
    assert correct >= 98


def test_infer_partner_choice_mapping():
    res = infer_partner_choice(L, BitState.MIXED)
    assert res.partner is H and res.key_bit == 0
    res = infer_partner_choice(H, BitState.MIXED)
    assert res.partner is L and res.key_bit == 1
    # Bob's view of the same (L, H) arrangement yields the same bit
    res = infer_partner_choice(H, BitState.MIXED, Party.BOB)
    assert res.partner is L and res.key_bit == 0
    res = infer_partner_choice(L, BitState.LL)
    assert res.partner is L and res.key_bit is None


def test_infer_partner_choice_contradictions():
    with pytest.raises(InconsistentStateError):
        infer_partner_choice(H, BitState.LL)
    with pytest.raises(InconsistentStateError):
        infer_partner_choice(L, BitState.HH)


def test_honest_parties_agree_on_every_unambiguous_mixed_bep():
    rng = np.random.default_rng(42)
    agreements = 0
    for k in range(60):
        c_a = L if rng.integers(2) == 0 else H
        c_b = L if rng.integers(2) == 0 else H
        meas_a, meas_b = simulate_bep(c_a, c_b, CFG, seed=4000 + k)
        try:
            st_a = classify_bep(meas_a, CFG)
            st_b = classify_bep(meas_b, CFG)
        except AmbiguousMeasurementError:
            continue
        if st_a is not BitState.MIXED or st_b is not BitState.MIXED:
            continue
        bit_a = infer_partner_choice(c_a, st_a, Party.ALICE).key_bit
        bit_b = infer_partner_choice(c_b, st_b, Party.BOB).key_bit
        assert bit_a == bit_b
        agreements += 1
    assert agreements > 10  # the loop actually exercised mixed BEPs


def test_mixed_state_frequency_is_one_half():
    rng = np.random.default_rng(8)
    n = 400
    mixed = sum(
        1
        for _ in range(n)
        if true_bit_state(
            L if rng.integers(2) == 0 else H, L if rng.integers(2) == 0 else H
        )
        is BitState.MIXED
    )
    sigma = np.sqrt(n * 0.25)
    assert abs(mixed - 0.5 * n) < 3 * sigma


def test_security_identity_lh_hl_indistinguishable():
    # 200 BEPs per arrangement; the two mean-square populations must be
    # statistically indistinguishable for the mixed state to hide the bit.
    msq_lh = [simulate_bep(L, H, CFG, seed=2000 + k)[0].msq_voltage for k in range(200)]
    msq_hl = [simulate_bep(H, L, CFG, seed=12000 + k)[0].msq_voltage for k in range(200)]
    assert ks_2samp(msq_lh, msq_hl)[1] > 0.01
    i_lh = [simulate_bep(L, H, CFG, seed=2000 + k)[0].msq_current for k in range(200)]
    i_hl = [simulate_bep(H, L, CFG, seed=12000 + k)[0].msq_current for k in range(200)]
    assert ks_2samp(i_lh, i_hl)[1] > 0.01


def test_config_digest_is_stable_and_field_sensitive():
    cfg2 = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
    assert CFG.digest() == cfg2.digest()
    cfg3 = LineConfig(R_L=1.0, R_H=11.0, bandwidth_B=1e4, noise_scale=1e-4)
    assert CFG.digest() != cfg3.digest()
