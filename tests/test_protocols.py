import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kljnsync.adversaries import AsymDelay, LineMod, Substitute, install
from kljnsync.bepfile import build_bep_file
from kljnsync.config import ChannelConfig, ClockConfig, ProtocolConfig
from kljnsync.errors import (
    ConfigError,
    FlatResidualError,
    InsufficientOverlapError,
    KeyExhaustedError,
    ProtocolIncompleteError,
)
from kljnsync import protocols
from kljnsync.line import LineConfig, Party, ResistorChoice, simulate_bep
from kljnsync.protocols import (
    MessageKind,
    ProtocolKind,
    SyncMessage,
    _pick_minimum,
    combined_check,
    estimate_offset,
    exchange_files,
    locate_minimum,
    protocol_a,
    protocol_b,
    protocol_c,
    residual_curve,
)
from kljnsync.scenario import make_scenario

LINE = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
FS = LINE.sample_rate


def scenario(seed=1, t0=0.005, tau=0.002, clock=None, channel=None, k_range=(0,), key_bits=8192):
    return make_scenario(
        LINE,
        seed=seed,
        protocol=ProtocolConfig("Combined", k_range=k_range),
        clock=clock or ClockConfig(t0=t0),
        channel=channel or ChannelConfig(tau=tau),
        key_bits=key_bits,
    )


# --- messages ---------------------------------------------------------------


def test_sync_message_requires_kind_fields():
    with pytest.raises(ConfigError):
        SyncMessage(MessageKind.TIME_STAMP)
    with pytest.raises(ConfigError):
        SyncMessage(MessageKind.RESPONSE, t1_star=1.0)
    msg = SyncMessage(MessageKind.RESPONSE, t1_star=1.0, t2_star=2.0)
    assert msg.canonical_bytes() != SyncMessage(
        MessageKind.RESPONSE, t1_star=1.0, t2_star=2.5
    ).canonical_bytes()


def test_sync_message_is_encoded_once():
    msg = SyncMessage(MessageKind.RESPONSE, t1_star=1.0, t2_star=2.0)
    assert msg.canonical_bytes() is msg.canonical_bytes()
    assert msg.canonical_bytes() == b"Response|" + struct.pack(">Bd", 1, 1.0) + b"|" + struct.pack(">Bd", 2, 2.0)
    # a changed copy is a new message with its own encoding
    other = replace(msg, t2_star=2.5)
    assert other.canonical_bytes() != msg.canonical_bytes()
    assert other.canonical_bytes() == SyncMessage(MessageKind.RESPONSE, t1_star=1.0, t2_star=2.5).canonical_bytes()


# --- protocol A -------------------------------------------------------------


def test_protocol_a_trivial_degenerate_case():
    sc = scenario(
        clock=ClockConfig(t0=0.0, quantization=None),
        channel=ChannelConfig(tau=0.0, processing_delay=0.0),
    )
    res = protocol_a(sc)
    assert res.t0_est == 0.0 and res.tau_est == 0.0


def test_protocol_a_honest_recovery():
    res = protocol_a(scenario())
    assert res.t0_est == pytest.approx(0.005, abs=1e-12)
    assert res.tau_est == pytest.approx(0.002, abs=1e-12)
    assert res.attack_flag is False and res.protocol is ProtocolKind.A


def test_protocol_a_exchange_is_three_deliveries():
    sc = scenario()
    protocol_a(sc)
    assert len(sc.scheduler.deliveries()) == 3


def test_protocol_a_exact_over_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(200):
        t0 = float(rng.uniform(-0.05, 0.05))
        tau = float(rng.uniform(1e-6, 0.02))
        sc = scenario(seed=2, tau=tau, clock=ClockConfig(t0=t0, quantization=None))
        res = protocol_a(sc)
        assert abs(res.t0_est - t0) < 1e-12
        assert abs(res.tau_est - tau) < 1e-12


@pytest.mark.parametrize("delta_ms", [1, 2, 4, 8])
@pytest.mark.parametrize("leg,sign", [("AtoB", +1.0), ("BtoA", -1.0)])
def test_delay_attack_algebra(delta_ms, leg, sign):
    delta = delta_ms * 1e-3
    for proto in (protocol_a, protocol_b):
        sc = scenario(t0=0.005, tau=0.002)
        install(AsymDelay(leg, delta), sc)
        res = proto(sc)
        assert res.t0_est == pytest.approx(0.005 + sign * delta / 2, abs=1e-12)
        assert res.tau_est == pytest.approx(0.002 + delta / 2, abs=1e-12)
        assert res.attack_flag is False


def test_protocol_a_dropped_message_raises():
    sc = scenario()
    install(Substitute("Response", drop=True), sc)
    with pytest.raises(ProtocolIncompleteError):
        protocol_a(sc)


def test_protocol_a_never_flags_substitution():
    sc = scenario()
    install(Substitute("Response", "t2_star", delta=1e-3), sc)
    res = protocol_a(sc)
    assert res.attack_flag is False
    assert res.t0_est != pytest.approx(0.005, abs=1e-6)  # silently biased


# --- protocol B -------------------------------------------------------------


def test_protocol_b_honest_matches_a_and_spends_key():
    sc = scenario(seed=3)
    res = protocol_b(sc)
    assert res.t0_est == pytest.approx(0.005, abs=1e-12)
    assert res.tau_est == pytest.approx(0.002, abs=1e-12)
    assert res.auth_ok is True and res.attack_flag is False
    assert sc.ledger.consumed == 3 * 256  # one tag per message
    assert sc.ledger.audit_one_time()


def test_protocol_b_flags_substitution():
    sc = scenario(seed=3)
    install(Substitute("Response", "t2_star", delta=1e-3), sc)
    res = protocol_b(sc)
    assert res.attack_flag is True and res.auth_ok is False
    assert res.t0_est is None and res.tau_est is None


def _count_encodings(monkeypatch) -> list:
    """Spy on the field packing of SyncMessage.canonical_bytes: one (field
    index, value) entry per field each time a message is encoded."""
    packed = []

    def pack(fmt, i, value):
        packed.append((i, value))
        return struct.pack(fmt, i, value)

    monkeypatch.setattr(protocols, "struct", SimpleNamespace(pack=pack))
    return packed


def test_protocol_b_encodes_each_message_once(monkeypatch):
    packed = _count_encodings(monkeypatch)
    res = protocol_b(scenario(seed=3))
    assert res.auth_ok is True
    # TimeStamp (t1), Response (t1*, t2*) and Share (t2), each packed once
    # although the sender hashes, the scheduler logs and the receiver verifies
    assert [i for i, _ in packed] == [0, 1, 2, 3]


def test_protocol_b_encodes_a_substituted_message_again(monkeypatch):
    packed = _count_encodings(monkeypatch)
    sc = scenario(seed=3)
    install(Substitute("Response", "t2_star", delta=1e-3), sc)
    res = protocol_b(sc)
    assert res.auth_ok is False
    # the rewritten Response carries the genuine encoding's tag, not its bytes
    assert [i for i, _ in packed] == [0, 1, 2, 1, 2, 3]
    assert packed[4][1] == packed[2][1] + 1e-3


def test_protocol_b_flags_fabricated_tag():
    sc = scenario(seed=3)
    install(Substitute("Response", "t2_star", delta=1e-3, fabricate_tag=True), sc)
    res = protocol_b(sc)
    assert res.attack_flag is True


def test_protocol_b_reports_timeout_on_drop():
    sc = scenario(seed=3)
    install(Substitute("Share", drop=True), sc)
    res = protocol_b(sc)
    assert res.attack_flag is True and "timeout" in res.detail


def test_protocol_b_key_exhaustion_propagates():
    sc = scenario(seed=3, key_bits=256)
    with pytest.raises(KeyExhaustedError):
        protocol_b(sc)


# --- file exchange ----------------------------------------------------------


def bep_files(seed=21, t0=0.0, k=0, **kw):
    meas_a, meas_b = simulate_bep(
        ResistorChoice.L, ResistorChoice.H, LINE, seed=seed, bep_index=k, offset_B=t0, **kw
    )
    return build_bep_file(meas_a, LINE), build_bep_file(meas_b, LINE)


def test_exchange_files_honest():
    sc = scenario(seed=4)
    fa, fb = bep_files()
    out = exchange_files(sc, fa, fb, send_absolute=0.0)
    assert out.all_ok
    assert out.received_by_bob == fa and out.received_by_alice == fb


def test_exchange_files_flags_altered_sample():
    sc = scenario(seed=4)
    install(Substitute("file", mode="alter_sample", sample_index=7, delta=0.25), sc)
    fa, fb = bep_files()
    out = exchange_files(sc, fa, fb, send_absolute=0.0)
    assert out.auth_ok_at_bob is False  # Alice's file crossed A->B tampered
    assert out.auth_ok_at_alice is True


def test_exchange_files_detects_replay():
    sc = scenario(seed=4, key_bits=16384)
    install(Substitute("file", mode="replay"), sc)
    fa0, fb0 = bep_files(seed=21, k=0)
    out0 = exchange_files(sc, fa0, fb0, send_absolute=0.0)
    assert out0.all_ok  # first pass is recorded, not altered
    fa1, fb1 = bep_files(seed=22, k=1)
    out1 = exchange_files(sc, fa1, fb1, send_absolute=1.0)
    assert out1.auth_ok_at_bob is True  # stale tag still verifies...
    assert out1.index_ok is False  # ...but the freshness check trips


# --- alignment search -------------------------------------------------------


def test_estimate_offset_zero_offset_noiseless():
    fa, fb = bep_files(t0=0.0)
    dt, residual = estimate_offset(fa, fb, LINE.R_wire)
    assert abs(dt) < 0.5 / FS
    assert residual < 1e-6


def test_estimate_offset_recovers_integer_shift():
    t0 = 3.0 / FS  # Bob's clock ahead by 3 sample intervals
    fa, fb = bep_files(t0=t0)
    dt, residual = estimate_offset(fa, fb, LINE.R_wire)
    assert dt == pytest.approx(-t0, abs=1.0 / FS)
    assert -dt == pytest.approx(t0, abs=1.0 / FS)  # recovered offset
    assert residual < 1e-6


def test_estimate_offset_symmetry():
    t0 = 5.0 / FS
    fa, fb = bep_files(t0=t0)
    dt_alice, _ = estimate_offset(fa, fb, LINE.R_wire)
    dt_bob, _ = estimate_offset(fb, fa, LINE.R_wire)
    assert dt_alice + dt_bob == pytest.approx(0.0, abs=1.0 / FS)


def test_estimate_offset_voltage_and_current_inputs_agree():
    t0 = -4.0 / FS
    fa, fb = bep_files(t0=t0)
    dt_v, _ = estimate_offset(fa, fb, LINE.R_wire, ProtocolConfig("C", input="voltage"))
    dt_c, _ = estimate_offset(fa, fb, LINE.R_wire, ProtocolConfig("C", input="current"))
    assert dt_v == pytest.approx(dt_c, abs=1.0 / FS)


def test_estimate_offset_flags_line_modification():
    # +50% wire resistance halfway through the record
    sched = [(LINE.bep_duration / 2, LINE.R_wire * 1.5)]
    fa, fb = bep_files(t0=0.0, r_wire_schedule=sched)
    with pytest.raises(FlatResidualError) as err:
        estimate_offset(fa, fb, LINE.R_wire)
    assert err.value.residual > 1e-2


def test_estimate_offset_requires_positive_wire():
    fa, fb = bep_files()
    with pytest.raises(ConfigError):
        estimate_offset(fa, fb, 0.0)


def reference_curve(file_ref, file_other, r_wire, search):
    """The per-shift loop the closed form replaced, on the sample lattice:
    for every index lag m whose overlap keeps half of the reference record,
    the wire-model residual summed directly over that overlap."""
    fs = file_ref.sample_rate
    base = (file_ref.local_start - file_other.local_start) * fs
    n_ref, n_other = len(file_ref), len(file_other)
    sign = 1.0 if file_ref.party is Party.ALICE else -1.0
    shifts, residuals = [], []
    for m in range(n_other - 1, -n_ref, -1):
        lo, hi = max(0, -m), min(n_ref, n_other - m)
        if hi - lo < 0.5 * n_ref:
            continue
        v_diff = sign * (file_ref.voltage_samples[lo:hi] - file_other.voltage_samples[lo + m : hi + m])
        if search.input == "voltage":
            i_sim = v_diff / r_wire
            i_meas = file_ref.current_samples[lo:hi]
            num = np.sum((i_sim - i_meas) ** 2)
            den = np.sum(i_meas**2)
        else:
            v_pred = file_other.current_samples[lo + m : hi + m] * r_wire
            num = np.sum((v_diff - v_pred) ** 2)
            den = np.sum(v_pred**2)
        shifts.append((base - m) / fs)
        residuals.append(num / den if den > 0 else np.inf)
    return np.array(shifts), np.array(residuals)


@pytest.mark.parametrize("offset", [0.0, 7.0, 7.3, -12.6, 150.0])
@pytest.mark.parametrize("input_", ["voltage", "current"])
def test_residual_curve_matches_the_per_shift_loop(offset, input_):
    fa, fb = bep_files(t0=offset / FS)
    search = ProtocolConfig("C", input=input_)
    shifts, residuals = residual_curve(fa, fb, LINE.R_wire, search)
    want_shifts, want = reference_curve(fa, fb, LINE.R_wire, search)
    assert shifts.size == want.size == 2 * (len(fa) // 2) + 1  # the full +-N/2 range
    np.testing.assert_allclose(shifts, want_shifts, rtol=0, atol=1e-9 / FS)
    assert np.all(np.abs(residuals - want) <= 1e-9 * np.maximum(1.0, want))
    # the minimum and its two neighbours are recomputed exactly
    i = int(np.argmin(residuals))
    assert i == int(np.argmin(want))
    assert shifts[i] == pytest.approx(-offset / FS, abs=1e-6 / FS)
    np.testing.assert_allclose(residuals[i - 1 : i + 2], want[i - 1 : i + 2], rtol=1e-12, atol=0)
    assert residuals[i] < 1e-15


def test_locate_minimum_ties_go_to_the_smallest_shift():
    shifts = np.arange(-2.0, 3.0) / FS
    # equal minima at -2, 0 and +2 samples: the zero shift wins
    dt, best = locate_minimum(shifts, np.array([0.0, 3.0, 0.0, 3.0, 0.0]), 0.01)
    assert dt == 0.0 and best == 0.0
    # equal minima at -1 and +1 samples: the negative one wins
    dt, best = locate_minimum(shifts, np.array([3.0, 0.0, 3.0, 0.0, 3.0]), 0.01)
    assert dt == -1.0 / FS and best == 0.0
    with pytest.raises(FlatResidualError):
        locate_minimum(shifts, np.array([3.0, 0.5, 3.0, 0.5, 3.0]), 0.01)


def test_pick_minimum_matches_the_lexicographic_order():
    # the order is residual (NaN last), then |shift|, then shift
    rng = np.random.default_rng(428)
    for trial in range(300):
        m = int(rng.integers(1, 40))
        shifts = (np.arange(m) - int(rng.integers(0, m)) + rng.choice([0.0, 0.3])) / FS
        residuals = rng.choice([0.0, 0.5, 1.0, np.inf], size=m) if trial % 2 else rng.random(m)
        if trial % 3 == 0:
            residuals[rng.integers(0, m, size=2)] = np.nan
        if trial % 7 == 0:
            residuals[:] = np.nan
        want = int(np.lexsort((shifts, np.abs(shifts), residuals))[0])
        assert _pick_minimum(shifts, residuals) == want
    # mirrored minima at -k and +k samples: the negative shift wins
    shifts = np.arange(-3.0, 4.0) / FS
    assert _pick_minimum(shifts, np.array([1.0, 0.0, 2.0, np.nan, 2.0, 0.0, 1.0])) == 1


def test_residual_curve_insufficient_overlap():
    fa, fb = bep_files()
    from dataclasses import replace

    short = replace(fb, voltage_samples=fb.voltage_samples[:300], current_samples=fb.current_samples[:300])
    with pytest.raises(InsufficientOverlapError):
        residual_curve(fa, short, LINE.R_wire, ProtocolConfig("C", dt_window=100))


def test_residual_curve_keeps_the_lags_the_overlap_mask_kept():
    # the lags are computed as one run; the mask over all n_ref + n_other - 1
    # lags is the definition they must match for every pair of lengths
    fa, fb = bep_files()
    search = ProtocolConfig("C")
    for n_ref in range(1, 65):
        ref = replace(fa, voltage_samples=fa.voltage_samples[:n_ref], current_samples=fa.current_samples[:n_ref])
        for n_other in range(1, 65):
            m = np.arange(n_other - 1, -n_ref, -1)
            keep = np.minimum(n_ref, n_other - m) - np.maximum(0, -m) >= 0.5 * n_ref
            other = replace(
                fb, voltage_samples=fb.voltage_samples[:n_other], current_samples=fb.current_samples[:n_other]
            )
            if not keep.any():
                with pytest.raises(InsufficientOverlapError):
                    residual_curve(ref, other, LINE.R_wire, search)
                continue
            shifts, residuals = residual_curve(ref, other, LINE.R_wire, search)
            assert np.array_equal(shifts, -m[keep] / FS), (n_ref, n_other)
            assert residuals.shape == shifts.shape


def test_residual_curve_valley_is_at_negative_offset():
    t0 = 6.0 / FS
    fa, fb = bep_files(t0=t0)
    shifts, residuals = residual_curve(fa, fb, LINE.R_wire, ProtocolConfig("C", dt_window=20))
    assert shifts[np.argmin(residuals)] == pytest.approx(-t0, abs=0.5 / FS)


@pytest.mark.parametrize("samples", [7.3, -12.6, 0.5, 150.0, -640.25])
def test_estimate_offset_recovers_sub_sample_and_far_offsets(samples):
    fa, fb = bep_files(t0=samples / FS)
    dt, residual = estimate_offset(fa, fb, LINE.R_wire)
    assert -dt == pytest.approx(samples / FS, abs=1.0 / FS)
    assert residual < 1e-15


# --- protocol C and the combined check --------------------------------------


def test_protocol_c_honest_recovers_and_corrects():
    t0 = 7.0 / FS
    sc = scenario(seed=5, t0=t0)
    res = protocol_c(sc)
    assert res.protocol is ProtocolKind.C
    assert res.attack_flag is False and res.auth_ok is True
    assert res.t0_est == pytest.approx(t0, abs=1.0 / FS)
    assert res.tau_est is None  # this protocol cannot see tau
    assert res.residual < 1e-4
    assert abs(sc.clocks[Party.BOB].offset_t0) < 1.0 / FS


def test_protocol_c_multi_bep_pooling():
    t0 = -9.0 / FS
    sc = scenario(seed=6, t0=t0, k_range=(0, 1, 2))
    res = protocol_c(sc)
    assert res.attack_flag is False
    assert res.t0_est == pytest.approx(t0, abs=1.0 / FS)
    assert sc.ledger.consumed == 3 * 2 * 256  # two tagged files per BEP


def test_protocol_c_multi_bep_pooling_with_a_sub_sample_offset():
    t0 = -9.4 / FS
    sc = scenario(seed=6, t0=t0, k_range=(0, 1, 2))
    res = protocol_c(sc)
    assert res.attack_flag is False, res.detail
    assert res.t0_est == pytest.approx(t0, abs=1.0 / FS)
    assert res.residual < 1e-4
    assert abs(sc.clocks[Party.BOB].offset_t0) < 1.0 / FS


@pytest.mark.parametrize("samples", [7.3, -0.5, 150.0, -901.7])
def test_protocol_c_honest_offsets_anywhere_in_range(samples):
    t0 = samples / FS
    sc = scenario(seed=12, t0=t0)
    res = protocol_c(sc)
    assert res.attack_flag is False, res.detail
    assert res.t0_est == pytest.approx(t0, abs=1.0 / FS)
    assert res.residual < 1e-4
    # the reported curve is 2 * dt_window + 1 points around the minimum
    shifts, residuals = sc.diagnostics["residual_curve"]
    assert shifts.size == 2 * sc.protocol_config.dt_window + 1
    assert shifts[np.argmin(residuals)] == pytest.approx(-t0, abs=0.5 / FS)


def test_protocol_c_flags_tampered_file_and_skips_correction():
    t0 = 7.0 / FS
    sc = scenario(seed=5, t0=t0)
    install(Substitute("file", mode="alter_sample", sample_index=100, delta=0.5), sc)
    res = protocol_c(sc)
    assert res.attack_flag is True and res.auth_ok is False
    assert res.t0_est is None
    assert sc.clocks[Party.BOB].offset_t0 == pytest.approx(t0)  # uncorrected


def test_protocol_c_flags_replayed_file():
    sc = scenario(seed=5, t0=7.0 / FS, k_range=(0, 1))
    install(Substitute("file", mode="replay"), sc)
    res = protocol_c(sc)
    assert res.attack_flag is True
    assert "stale" in res.detail


def test_protocol_c_flags_line_modification():
    sc = scenario(seed=7, t0=7.0 / FS)
    install(LineMod(r_wire_factor=1.5, at_bep=0, fraction=0.5), sc)
    res = protocol_c(sc)
    assert res.attack_flag is True
    assert res.residual is None or res.residual > 1e-2


def test_combined_check_honest_passes():
    sc = scenario(seed=8, t0=7.0 / FS)
    res = combined_check(sc)
    assert res.protocol is ProtocolKind.COMBINED
    assert res.attack_flag is False
    assert abs(res.t0_est) <= 2 * sc.quantum
    assert res.tau_est == pytest.approx(sc.channel_config.tau, abs=1.5 * sc.quantum)
    assert res.residual < 1e-4


def test_combined_check_catches_asymmetric_delay():
    sc = scenario(seed=9, t0=7.0 / FS)
    install(AsymDelay("BtoA", 4e-6), sc)  # four clock quanta
    res = combined_check(sc)
    assert res.attack_flag is True
    assert "deviates" in res.detail or "not zero" in res.detail


def test_combined_check_catches_late_line_change():
    sc = scenario(seed=10, t0=7.0 / FS)
    install(LineMod(tau=3e-3, at_time=0.05), sc)
    res = combined_check(sc)
    assert res.attack_flag is True


def test_combined_check_catches_mid_bep_wire_change():
    sc = scenario(seed=11, t0=7.0 / FS)
    install(LineMod(r_wire_factor=1.5, at_bep=0, fraction=0.5), sc)
    res = combined_check(sc)
    assert res.attack_flag is True
