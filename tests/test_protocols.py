import copy
import hashlib
import pickle
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kljnsync.adversaries import AsymDelay, LineMod, Substitute
from kljnsync.auth import AuthTag, KeySpan
from kljnsync.bepfile import build_bep_file, parse_bep_file, serialize_bep_file
from kljnsync.channel import Direction
from kljnsync.config import ChannelConfig, ClockConfig, ProtocolConfig
from kljnsync.errors import (
    ConfigError,
    InsufficientOverlapError,
    KeyExhaustedError,
)
from kljnsync import bepfile, protocols
from kljnsync.harness import ScenarioConfig, load_bundled, run_scenario
from kljnsync.line import LineConfig, Party, ResistorChoice, simulate_bep
from kljnsync.protocols import (
    MessageKind,
    SyncMessage,
    SyncResult,
    _pick_minimum,
    combined_check,
    exchange_files,
    protocol_a,
    protocol_b,
    protocol_c,
    residual_curve,
)

LINE = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
FS = LINE.sample_rate
COMBINED = ProtocolConfig("Combined")


def scenario(seed=1, t0=0.005, tau=0.002, clock=None, channel=None, protocol=COMBINED, **config):
    """A scenario on LINE built as `kljnsync run` builds one, from a
    validated ScenarioConfig; config holds its other fields (key_bits, attacks)."""
    return ScenarioConfig(
        seed,
        LINE,
        protocol,
        clock=clock or ClockConfig(t0=t0),
        channel=channel or ChannelConfig(tau=tau),
        **config,
    ).build_scenario()


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
    other = msg._replace(t2_star=2.5)
    assert other.canonical_bytes() != msg.canonical_bytes()
    assert other.canonical_bytes() == SyncMessage(MessageKind.RESPONSE, t1_star=1.0, t2_star=2.5).canonical_bytes()


MESSAGES = {
    MessageKind.TIME_STAMP: {"t1": 1.25},
    MessageKind.RESPONSE: {"t1_star": 1.0, "t2_star": 2.0},
    MessageKind.SHARE: {"t2": -0.5},
}
TAG = AuthTag(bytes(range(32)), KeySpan(256, 256))


def _copies(value) -> list:
    """Every way a tuple subclass can be copied: copy, deepcopy, pickle at
    each protocol and _replace with no change."""
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [copy.copy(value), copy.deepcopy(value), *pickled, value._replace()]


def test_sync_message_refuses_what_its_kind_does_not_carry():
    with pytest.raises(ConfigError, match=r"^t2: a TimeStamp message carries only t1 and tag$"):
        SyncMessage(MessageKind.TIME_STAMP, t1=1.0, t2=2.0)
    with pytest.raises(ConfigError, match=r"^encoding: a Share message carries only t2 and tag$"):
        SyncMessage(MessageKind.SHARE, t2=2.0, encoding=b"Share")
    # a value another kind carries may be given as None, as _replace gives it
    assert SyncMessage(MessageKind.SHARE, t1=None, t2=2.0) == SyncMessage(MessageKind.SHARE, t2=2.0)


@pytest.mark.parametrize("kind", MESSAGES, ids=[kind.value for kind in MESSAGES])
def test_every_way_to_a_message_encodes_it_afresh_or_is_refused(kind, monkeypatch):
    fields = MESSAGES[kind]
    fresh = SyncMessage(kind, **fields, tag=TAG)
    assert SyncMessage(kind, **fields).tagged(TAG) == fresh
    # a message whose encoding is not its fields': no copy keeps it
    forged = tuple.__new__(SyncMessage, (*fresh[:6], b"forged"))
    packed = _count_encodings(monkeypatch)
    copies = [*_copies(fresh), *_copies(forged)]
    for other in copies:
        assert type(other) is SyncMessage
        assert other == fresh and other.canonical_bytes() == fresh.canonical_bytes()
    # each copy went through the constructor, which packed every field again
    assert len(packed) == len(copies) * len(fields)
    changed = {name: value + 1.0 for name, value in fields.items()}
    assert fresh._replace(**changed) == SyncMessage(kind, **changed, tag=TAG)
    with pytest.raises(ConfigError, match="^encoding: "):
        fresh._replace(encoding=b"forged")
    with pytest.raises(ConfigError, match=" requires "):
        fresh._replace(**dict.fromkeys(fields))
    with pytest.raises(TypeError, match="SyncMessage._make"):
        SyncMessage._make(fresh)


def test_every_way_to_a_result_keeps_its_rules():
    result = SyncResult("B", 1e-3, 2e-3, None, True, False, "")
    for other in [*_copies(result), SyncResult._make(result)]:
        assert type(other) is SyncResult and other == result
    flag_dropped = ("B", None, None, None, False, False, "authentication failed")
    no_kind = ("D", None, None, None, True, False, "")
    forged = [tuple.__new__(SyncResult, fields) for fields in (flag_dropped, no_kind)]
    builds = [
        lambda: result._replace(auth_ok=False),
        lambda: result._replace(protocol="D"),
        lambda: SyncResult._make(flag_dropped),
        *(lambda path=path, value=value: path(value) for value in forged for path in (copy.copy, copy.deepcopy)),
        *(lambda value=value: pickle.loads(pickle.dumps(value)) for value in forged),
        *(lambda value=value: value._replace() for value in forged),
    ]
    for build in builds:
        with pytest.raises(ConfigError, match=r"^result(\.protocol: 'D' is not one of A, B, C, Combined|: failed)"):
            build()


# --- protocol A -------------------------------------------------------------


def test_protocol_a_trivial_degenerate_case():
    sc = scenario(
        clock=ClockConfig(t0=0.0, quantization=0.0),
        channel=ChannelConfig(tau=0.0, processing_delay=0.0),
    )
    res = protocol_a(sc)
    assert res.t0_est == 0.0 and res.tau_est == 0.0


def test_protocol_a_honest_recovery():
    res = protocol_a(scenario())
    assert res.t0_est == pytest.approx(0.005, abs=1e-12)
    assert res.tau_est == pytest.approx(0.002, abs=1e-12)
    assert res.attack_flag is False and res.protocol == "A"


def test_protocol_a_exchange_is_three_deliveries():
    sc = scenario()
    protocol_a(sc)
    assert [rec.kind for rec in sc.scheduler.log].count("deliver") == 3


def test_protocol_a_exact_over_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(200):
        t0 = float(rng.uniform(-0.05, 0.05))
        tau = float(rng.uniform(1e-6, 0.02))
        sc = scenario(seed=2, tau=tau, clock=ClockConfig(t0=t0, quantization=0.0))
        res = protocol_a(sc)
        assert abs(res.t0_est - t0) < 1e-12
        assert abs(res.tau_est - tau) < 1e-12


@pytest.mark.parametrize("delta_ms", [1, 2, 4, 8])
@pytest.mark.parametrize("leg,sign", [("AtoB", +1.0), ("BtoA", -1.0)])
def test_delay_attack_algebra(delta_ms, leg, sign):
    delta = delta_ms * 1e-3
    for proto in (protocol_a, protocol_b):
        sc = scenario(t0=0.005, tau=0.002, attacks=(AsymDelay(leg, delta),))
        res = proto(sc)
        assert res.t0_est == pytest.approx(0.005 + sign * delta / 2, abs=1e-12)
        assert res.tau_est == pytest.approx(0.002 + delta / 2, abs=1e-12)
        assert res.attack_flag is False


# each message of the two-way exchange, and the lines the log holds once
# Eve drops it: every earlier message's send and deliver, its send and the drop
DROPS = {"TimeStamp": 2, "Response": 4, "Share": 6}


def assert_dropped_last(sc, lines=None):
    """The exchange ended at the drop: nothing was sent after it."""
    log = sc.scheduler.log
    assert log[-1].kind == "attack-drop"
    if lines is not None:
        assert len(log) == lines


@pytest.mark.parametrize("target", DROPS)
def test_protocol_a_dropped_message_is_reported_incomplete_and_unflagged(target):
    sc = scenario(attacks=(Substitute(target, drop=True),))
    detail = "incomplete: synchronization exchange never finished"
    assert protocol_a(sc) == SyncResult("A", None, None, None, True, False, detail)
    assert_dropped_last(sc, DROPS[target])


def test_protocol_a_never_flags_substitution():
    sc = scenario(attacks=(Substitute("Response", "t2_star", delta=1e-3),))
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


def test_protocol_b_flags_substitution():
    sc = scenario(seed=3, attacks=(Substitute("Response", "t2_star", delta=1e-3),))
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
    sc = scenario(seed=3, attacks=(Substitute("Response", "t2_star", delta=1e-3),))
    res = protocol_b(sc)
    assert res.auth_ok is False
    # the rewritten Response carries the genuine encoding's tag, not its bytes
    assert [i for i, _ in packed] == [0, 1, 2, 1, 2, 3]
    assert packed[4][1] == packed[2][1] + 1e-3


def test_protocol_b_flags_fabricated_tag():
    sc = scenario(seed=3, attacks=(Substitute("Response", "t2_star", delta=1e-3, fabricate_tag=True),))
    res = protocol_b(sc)
    assert res.attack_flag is True


@pytest.mark.parametrize("target", DROPS)
def test_protocol_b_reports_timeout_on_drop(target):
    sc = scenario(seed=3, attacks=(Substitute(target, drop=True),))
    assert protocol_b(sc) == SyncResult("B", None, None, None, False, True, "timeout: exchange stalled")
    assert_dropped_last(sc, DROPS[target])


def test_protocol_b_key_exhaustion_propagates():
    # a config whose key_bits cannot cover its run fails validation, so the
    # ledger of a valid scenario is spent before the exchange starts
    sc = scenario(seed=3)
    sc.ledger.take(sc.ledger.remaining_bits)
    with pytest.raises(KeyExhaustedError):
        protocol_b(sc)


# --- file exchange ----------------------------------------------------------


def bep_files(seed=21, t0=0.0, k=0, line=LINE, **kw):
    meas_a, meas_b = simulate_bep(
        ResistorChoice.L, ResistorChoice.H, line, seed=seed, bep_index=k, offset_B=t0, **kw
    )
    return build_bep_file(meas_a, line), build_bep_file(meas_b, line)


def test_exchange_files_honest():
    sc = scenario(seed=4)
    fa, fb = bep_files()
    received, problem = exchange_files(sc, fa, fb, send_absolute=0.0)
    assert problem == ""
    assert received == {Direction.A_TO_B: fa, Direction.B_TO_A: fb}


def test_exchange_files_flags_altered_sample():
    sc = scenario(seed=4, attacks=(Substitute("file", mode="alter_sample", sample_index=7, delta=0.25),))
    fa, fb = bep_files()
    received, problem = exchange_files(sc, fa, fb, send_absolute=0.0)
    assert problem == "authentication failed"
    assert received[Direction.A_TO_B] != fa  # Alice's file crossed A->B tampered
    assert received[Direction.B_TO_A] == fb
    # the forged record's hash, which the receiver checked, is of its own
    # bytes, though Alice's record was hashed for its tag before Eve saw it
    forged = received[Direction.A_TO_B]
    assert forged.sha256().digest() == hashlib.sha256(forged.payload_bytes()).digest() != fa.sha256().digest()


@pytest.mark.parametrize(
    "dropped, arrived", [("AtoB", Direction.B_TO_A), ("BtoA", Direction.A_TO_B)], ids=["AtoB", "BtoA"]
)
def test_exchange_files_reports_a_dropped_record_as_a_stall(dropped, arrived):
    sc = scenario(seed=4, attacks=(Substitute("file", drop=True, direction=dropped),))
    fa, fb = bep_files()
    received, problem = exchange_files(sc, fa, fb, send_absolute=0.0)
    assert problem == "timeout: file exchange stalled"
    sent = {Direction.A_TO_B: fa, Direction.B_TO_A: fb}
    assert received == {arrived: sent[arrived]}


def test_exchange_files_ranks_a_drop_above_an_altered_record():
    attacks = (
        Substitute("file", drop=True, direction="AtoB"),
        Substitute("file", mode="alter_sample", sample_index=7, delta=0.25, direction="BtoA"),
    )
    sc = scenario(seed=4, attacks=attacks)
    fa, fb = bep_files()
    received, problem = exchange_files(sc, fa, fb, send_absolute=0.0)
    assert problem == "timeout: file exchange stalled"
    assert list(received) == [Direction.B_TO_A] and received[Direction.B_TO_A] != fb  # the altered record arrived


def test_exchange_files_detects_replay():
    sc = scenario(seed=4, key_bits=16384, attacks=(Substitute("file", mode="replay"),))
    fa0, fb0 = bep_files(seed=21, k=0)
    received0, problem0 = exchange_files(sc, fa0, fb0, send_absolute=0.0)
    assert problem0 == "" and received0[Direction.A_TO_B] == fa0  # first pass is recorded, not altered
    fa1, fb1 = bep_files(seed=22, k=1)
    received1, problem1 = exchange_files(sc, fa1, fb1, send_absolute=1.0)
    assert received1[Direction.A_TO_B] == fa0  # the stale record arrives, its tag verifies...
    assert problem1 == "stale or mismatched file"  # ...but the freshness check trips


# --- alignment search -------------------------------------------------------


def located(shifts, residuals):
    """What protocol_c takes from one curve: the lattice shift at the
    picked minimum, and the residual there."""
    i = _pick_minimum(shifts, residuals)
    return float(shifts[i]), residuals[i]


def test_estimate_offset_zero_offset_noiseless():
    fa, fb = bep_files(t0=0.0)
    dt, residual = located(*residual_curve(fa, fb, LINE.R_wire))
    assert abs(dt) < 0.5 / FS
    assert residual < 1e-6


def test_estimate_offset_recovers_integer_shift():
    t0 = 3.0 / FS  # Bob's clock ahead by 3 sample intervals
    fa, fb = bep_files(t0=t0)
    dt, residual = located(*residual_curve(fa, fb, LINE.R_wire))
    assert dt == pytest.approx(-t0, abs=1.0 / FS)
    assert -dt == pytest.approx(t0, abs=1.0 / FS)  # recovered offset
    assert residual < 1e-6


def test_estimate_offset_symmetry():
    t0 = 5.0 / FS
    fa, fb = bep_files(t0=t0)
    dt_alice, _ = located(*residual_curve(fa, fb, LINE.R_wire))
    dt_bob, _ = located(*residual_curve(fb, fa, LINE.R_wire))
    assert dt_alice + dt_bob == pytest.approx(0.0, abs=1.0 / FS)


def test_estimate_offset_flags_line_modification():
    # +50% wire resistance halfway through the record
    sched = [(LINE.bep_duration / 2, LINE.R_wire * 1.5)]
    fa, fb = bep_files(t0=0.0, r_wire_schedule=sched)
    _, residual = located(*residual_curve(fa, fb, LINE.R_wire))
    assert residual > 1e-2  # above the default residual_threshold


def test_estimate_offset_requires_positive_wire():
    fa, fb = bep_files()
    with pytest.raises(ConfigError):
        residual_curve(fa, fb, 0.0)


def reference_curve(file_ref, file_other, r_wire):
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
        i_sim = v_diff / r_wire
        i_meas = file_ref.current_samples[lo:hi]
        num = np.sum((i_sim - i_meas) ** 2)
        den = np.sum(i_meas**2)
        shifts.append((base - m) / fs)
        residuals.append(num / den if den > 0 else np.inf)
    return np.array(shifts), np.array(residuals)


# the ids name the input that drives the wire model, as protocol.input does
@pytest.mark.parametrize("offset", [0.0, 7.0, 7.3, -12.6, 150.0], ids="voltage-{}".format)
def test_residual_curve_matches_the_per_shift_loop(offset):
    fa, fb = bep_files(t0=offset / FS)
    shifts, residuals = residual_curve(fa, fb, LINE.R_wire)
    want_shifts, want = reference_curve(fa, fb, LINE.R_wire)
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
    dt, best = located(shifts, np.array([0.0, 3.0, 0.0, 3.0, 0.0]))
    assert dt == 0.0 and best == 0.0
    # equal minima at -1 and +1 samples: the negative one wins
    dt, best = located(shifts, np.array([3.0, 0.0, 3.0, 0.0, 3.0]))
    assert dt == -1.0 / FS and best == 0.0
    _, best = located(shifts, np.array([3.0, 0.5, 3.0, 0.5, 3.0]))
    assert best > 0.01  # above the default residual_threshold


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
        residual_curve(fa, short, LINE.R_wire)


def test_residual_curve_keeps_the_lags_the_overlap_mask_kept():
    # the lags are computed as one run; the mask over all n_ref + n_other - 1
    # lags is the definition they must match for every pair of lengths
    fa, fb = bep_files()
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
                    residual_curve(ref, other, LINE.R_wire)
                continue
            shifts, residuals = residual_curve(ref, other, LINE.R_wire)
            assert np.array_equal(shifts, -m[keep] / FS), (n_ref, n_other)
            assert residuals.shape == shifts.shape


@pytest.mark.parametrize("offset", [7.0, 7.3], ids="voltage-{}".format)
def test_residual_curve_over_received_records_is_bit_identical(offset):
    # the records as a party receives them: parsed from the wire bytes
    built = bep_files(t0=offset / FS)
    parsed = [parse_bep_file(serialize_bep_file(f))[0] for f in built]
    for ref, other in ((0, 1), (1, 0)):
        want = residual_curve(built[ref], built[other], LINE.R_wire)
        got = residual_curve(parsed[ref], parsed[other], LINE.R_wire)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# seeded record pairs, Bob's record cut to its first n_bob samples, and the
# sha256 of each party's whole curve (shifts, then residuals, as float64
# bytes), Alice's then Bob's, as numpy 2.4.6 gave them. A report keeps only
# the 201 points around Alice's minimum, but every point of both curves
# takes part in the verdict.
CURVES = {
    "whole-sample": (
        dict(seed=31, t0=7.0 / FS),
        2000,
        "9ebb592cbcda686c382ed0667b988ba16aae4ff9e27ce28a63003640b80b21ca",
        "5c9a0128a5ee20b77161ad33fff37d473b06659f7563c9c06d43758ef24d527b",
    ),
    "sub-sample": (
        dict(seed=32, t0=-12.6 / FS),
        2000,
        "c161bb385c564c1db1d26794de54bb6d2f60b5e258ae18be622f3788fa049b25",
        "807e6d2802a2ba04a949bc31a0dd39e9930df1c66c1faa6771f197c2b029e6b2",
    ),
    "measurement-noise": (
        dict(seed=33, t0=7.3 / FS, line=replace(LINE, measurement_noise_rel=1e-3)),
        2000,
        "a70243c172b56522adf38834004188657772558bf2e6722ff85ed1864b2d1d6a",
        "dcca5f90ac333155a4812169ec1726ab82c80f7b7cdbe1c7f7709af97352cc60",
    ),
    "r-wire-step": (
        dict(seed=34, t0=3.0 / FS, r_wire_schedule=[(LINE.bep_duration / 2, 1.5 * LINE.R_wire)]),
        2000,
        "b7e9650bb9ada709a40739273b1fa06b476356eac065aa193ba77f0a631582c5",
        "fee683d239f9742a8b86e9f62f5dffb089c8565c63dfbdb0f6d367d0933a5855",
    ),
    "unequal-lengths": (
        dict(seed=35, t0=5.4 / FS),
        1500,
        "06961c58a92c37dc8e820e95b9b397755a53393aa6828f4c10ce4c7b3b637efb",
        "ebc9bcfae1a31f6dfc7ef32c4a9b4853a8c173d97f87d870e4f8866d9ec582fa",
    ),
}


@pytest.mark.parametrize("records,n_bob,alice,bob", CURVES.values(), ids=CURVES)
def test_residual_curves_keep_their_bits(records, n_bob, alice, bob):
    fa, fb = bep_files(**records)
    fb = replace(fb, voltage_samples=fb.voltage_samples[:n_bob], current_samples=fb.current_samples[:n_bob])
    got = [
        hashlib.sha256(b"".join(x.tobytes() for x in residual_curve(ref, other, LINE.R_wire))).hexdigest()
        for ref, other in ((fa, fb), (fb, fa))
    ]
    assert got == [alice, bob]


def test_residual_curve_valley_is_at_negative_offset():
    t0 = 6.0 / FS
    fa, fb = bep_files(t0=t0)
    shifts, residuals = residual_curve(fa, fb, LINE.R_wire)
    assert shifts[np.argmin(residuals)] == pytest.approx(-t0, abs=0.5 / FS)


@pytest.mark.parametrize("samples", [7.3, -12.6, 0.5, 150.0, -640.25])
def test_estimate_offset_recovers_sub_sample_and_far_offsets(samples):
    fa, fb = bep_files(t0=samples / FS)
    dt, residual = located(*residual_curve(fa, fb, LINE.R_wire))
    assert -dt == samples / FS  # Bob samples on Alice's instants: the lattice shift is the offset
    assert residual < 1e-15


# --- protocol C and the combined check --------------------------------------


def test_protocol_c_honest_recovers_and_corrects():
    t0 = 7.0 / FS
    sc = scenario(seed=5, t0=t0)
    res = protocol_c(sc)
    assert res.protocol == "C"
    assert res.attack_flag is False and res.auth_ok is True
    assert res.t0_est == pytest.approx(t0, abs=1.0 / FS)
    assert res.tau_est is None  # this protocol cannot see tau
    assert res.residual < 1e-4
    assert abs(sc.bob_clock.offset) < 1.0 / FS


def test_protocol_c_multi_bep_pooling():
    t0 = -9.0 / FS
    sc = scenario(seed=6, t0=t0, protocol=replace(COMBINED, k_range=(0, 1, 2)))
    res = protocol_c(sc)
    assert res.attack_flag is False
    assert res.t0_est == pytest.approx(t0, abs=1.0 / FS)
    assert sc.ledger.consumed == 3 * 2 * 256  # two tagged files per BEP


def test_protocol_c_multi_bep_pooling_with_a_sub_sample_offset():
    t0 = -9.4 / FS
    sc = scenario(seed=6, t0=t0, protocol=replace(COMBINED, k_range=(0, 1, 2)))
    res = protocol_c(sc)
    assert res.attack_flag is False, res.detail
    assert res.t0_est == pytest.approx(t0, abs=1.0 / FS)
    assert res.residual < 1e-4
    assert abs(sc.bob_clock.offset) < 1.0 / FS


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
    assert shifts.size == 2 * sc.config.protocol.dt_window + 1
    assert shifts[np.argmin(residuals)] == pytest.approx(-t0, abs=0.5 / FS)


def test_protocol_c_estimate_is_the_offset_on_aligned_records():
    # Bob samples on Alice's instants, so the lattice shift at the minimum
    # is the offset itself, to the last bit, wherever in range it lies
    rng = np.random.default_rng(31)
    for seed, samples in enumerate(rng.uniform(-900.0, 900.0, 200)):
        t0 = float(samples) / FS
        sc = scenario(seed=seed, t0=t0, protocol=ProtocolConfig("C"))
        res = protocol_c(sc)
        assert res.attack_flag is False, res.detail
        assert res.t0_est == t0 and sc.bob_clock.offset == 0.0


def test_protocol_c_pooled_estimate_is_the_offset_to_round_off():
    # the averaged curve's shifts carry each BEP's start-stamp rounding
    rng = np.random.default_rng(32)
    for seed, samples in enumerate(rng.uniform(-900.0, 900.0, 20)):
        t0 = float(samples) / FS
        res = protocol_c(scenario(seed=seed, t0=t0, protocol=ProtocolConfig("C", k_range=(0, 1, 2, 3))))
        assert res.attack_flag is False, res.detail
        assert abs(res.t0_est - t0) <= 1e-17


def test_protocol_c_estimate_survives_an_undetected_wire_change():
    # an R_wire step of x over the last part of the record stays under
    # residual_threshold for x <= 10%; it skews the residuals beside the
    # minimum, but the estimate is the minimum's shift alone
    t0 = 7.0 / FS
    steps = [(x, f) for x in np.geomspace(1e-4, 1e-1, 10) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for seed, (x, fraction) in enumerate(steps):
        change = LineMod(r_wire_factor=1.0 + float(x), at_bep=0, fraction=fraction)
        sc = scenario(seed=seed, t0=t0, protocol=ProtocolConfig("C"), attacks=(change,))
        res = protocol_c(sc)
        assert res.attack_flag is False, res.detail
        assert res.t0_est == t0 and sc.bob_clock.offset == 0.0


def test_protocol_c_flags_tampered_file_and_skips_correction():
    t0 = 7.0 / FS
    sc = scenario(seed=5, t0=t0, attacks=(Substitute("file", mode="alter_sample", sample_index=100, delta=0.5),))
    res = protocol_c(sc)
    assert res.attack_flag is True and res.auth_ok is False
    assert res.t0_est is None
    assert sc.bob_clock.offset == pytest.approx(t0)  # uncorrected


def test_protocol_c_flags_replayed_file():
    replay = Substitute("file", mode="replay")
    sc = scenario(seed=5, t0=7.0 / FS, protocol=replace(COMBINED, k_range=(0, 1)), attacks=(replay,))
    res = protocol_c(sc)
    assert res.attack_flag is True
    assert "stale" in res.detail


@pytest.mark.parametrize(
    "name, k_range, passes",
    [("honest_protocol_c", (0,), 2), ("honest_protocol_c", (0, 1, 2, 3), 8), ("file_tamper_c", (0,), 3)],
)
def test_protocol_c_hashes_each_record_once(name, k_range, passes, monkeypatch):
    # the sender's tag, the event log's digest and the receiver's check share
    # one SHA-256 pass over each record; a forged record is hashed once more
    cfg = load_bundled(name)
    cfg = replace(cfg, protocol=replace(cfg.protocol, k_range=k_range))
    meas = simulate_bep(ResistorChoice.L, ResistorChoice.H, cfg.line, seed=0)[0]
    record_size = len(build_bep_file(meas, cfg.line).payload_bytes())
    sha256, serialize = hashlib.sha256, serialize_bep_file
    sizes, serialized = [], []

    def counted_sha256(data=b"", **kwargs):
        sizes.append(memoryview(data).nbytes)
        return sha256(data, **kwargs)

    def counted_serialize(*args, **kwargs):
        serialized.append(args)
        return serialize(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted_sha256)
    monkeypatch.setattr(bepfile, "serialize_bep_file", counted_serialize)
    monkeypatch.setattr(protocols, "serialize_bep_file", counted_serialize, raising=False)
    report = run_scenario(cfg)
    assert report.result["attack_flag"] is (name == "file_tamper_c")
    assert sum(size >= record_size for size in sizes) == passes
    assert serialized == []


def test_protocol_c_flags_disagreeing_shift_estimates(monkeypatch):
    t0 = 7.0 / FS
    alice_estimate = protocol_c(scenario(seed=5, t0=t0)).t0_est
    curve = protocols.residual_curve

    def skewed(file_ref, file_other, r_wire):
        # Bob's valley moves 3 lags away from the mirror image of Alice's
        shifts, residuals = curve(file_ref, file_other, r_wire)
        return shifts, np.roll(residuals, 3) if file_ref.party is Party.BOB else residuals

    monkeypatch.setattr(protocols, "residual_curve", skewed)
    sc = scenario(seed=5, t0=t0)
    res = protocol_c(sc)
    assert res.attack_flag is True and res.detail == "parties' shift estimates disagree"
    assert res.t0_est == alice_estimate
    assert sc.bob_clock.offset == t0  # uncorrected


def test_protocol_c_flags_line_modification():
    sc = scenario(seed=7, t0=7.0 / FS, attacks=(LineMod(r_wire_factor=1.5, at_bep=0, fraction=0.5),))
    res = protocol_c(sc)
    assert res.attack_flag is True
    assert res.residual is None or res.residual > 1e-2
    assert res.detail.startswith("no shift explains the data")


@pytest.mark.parametrize("flat", [Party.ALICE, Party.BOB])
def test_protocol_c_flags_either_partys_flat_curve(monkeypatch, flat):
    # one party's curve is lifted past residual_threshold everywhere; the
    # verdict carries that party's residual, and no correction is applied
    t0 = 7.0 / FS
    curve = protocols.residual_curve

    def lifted(file_ref, file_other, r_wire):
        shifts, residuals = curve(file_ref, file_other, r_wire)
        return shifts, residuals + 0.5 if file_ref.party is flat else residuals

    monkeypatch.setattr(protocols, "residual_curve", lifted)
    sc = scenario(seed=5, t0=t0)
    res = protocol_c(sc)
    assert res.attack_flag is True and res.auth_ok is True
    assert res.t0_est is None
    assert 0.5 <= res.residual < 0.5 + 1e-4
    assert res.detail == f"no shift explains the data (residual {res.residual:.3e})"
    assert sc.bob_clock.offset == t0  # uncorrected


def test_combined_check_honest_passes():
    sc = scenario(seed=8, t0=7.0 / FS)
    res = combined_check(sc)
    assert res.protocol == "Combined"
    assert res.attack_flag is False
    assert abs(res.t0_est) <= 2 * sc.config.clock.quantum
    assert res.tau_est == pytest.approx(sc.config.channel.tau, abs=1.5 * sc.config.clock.quantum)
    assert res.residual < 1e-4


@pytest.mark.parametrize("q", [1e-12, 1e-9, 1e-6])
def test_honest_combined_runs_stay_clean_at_fine_clocks(q):
    # C leaves Bob's clock exact, so the probe finds it within
    # t0_tol_quanta however fine the clock quantum
    doc = load_bundled("honest_combined").raw
    doc = {**doc, "clock": {**doc["clock"], "quantization": q}}
    flagged = {}
    for seed in range(200):
        res = combined_check(ScenarioConfig.from_dict({**doc, "seed": seed}).build_scenario())
        if res.attack_flag:
            flagged[seed] = res.detail
    assert flagged == {}


@pytest.mark.parametrize("target", DROPS)
def test_combined_check_reports_a_dropped_probe_message_as_a_stall(target):
    sc = scenario(seed=8, t0=7.0 / FS, attacks=(Substitute(target, drop=True),))
    res = combined_check(sc)
    assert res.attack_flag is True and res.auth_ok is False
    assert res.detail == "probe: timeout: exchange stalled"
    assert_dropped_last(sc)


def test_combined_check_catches_asymmetric_delay():
    sc = scenario(seed=9, t0=7.0 / FS, attacks=(AsymDelay("BtoA", 4e-6),))  # four clock quanta
    res = combined_check(sc)
    assert res.attack_flag is True
    assert "deviates" in res.detail or "not zero" in res.detail


def test_combined_check_catches_late_line_change():
    sc = scenario(seed=10, t0=7.0 / FS, attacks=(LineMod(tau=3e-3, at_time=0.05),))
    res = combined_check(sc)
    assert res.attack_flag is True


def test_combined_check_catches_mid_bep_wire_change():
    sc = scenario(seed=11, t0=7.0 / FS, attacks=(LineMod(r_wire_factor=1.5, at_bep=0, fraction=0.5),))
    res = combined_check(sc)
    assert res.attack_flag is True
