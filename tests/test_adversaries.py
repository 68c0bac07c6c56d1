import numpy as np
import pytest

from kljnsync.adversaries import AsymDelay, LineMod, Substitute, passive_bit_guess
from kljnsync.config import ChannelConfig, ClockConfig, ProtocolConfig
from kljnsync.errors import AmbiguousMeasurementError, ConfigError, InconsistentStateError
from kljnsync.harness import ScenarioConfig, load_bundled, run_scenario
from kljnsync.line import LineConfig, ResistorChoice, simulate_bep
from kljnsync.protocols import combined_check, protocol_a, protocol_b, protocol_c

LINE = LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4)
FS = LINE.sample_rate


def config(*attacks, seed=1, t0=7.0 / FS, k_range=(0,)):
    """A validated ScenarioConfig on LINE that lists attacks."""
    return ScenarioConfig(
        seed, LINE, ProtocolConfig("Combined", k_range=k_range), clock=ClockConfig(t0=t0), channel=ChannelConfig(tau=0.002),
        attacks=attacks,
    )


def scenario(*attacks, seed=1, t0=7.0 / FS, k_range=(0,)):
    """A scenario on LINE with its attacks installed, built as `kljnsync
    run` builds one."""
    return config(*attacks, seed=seed, t0=t0, k_range=k_range).build_scenario()


def test_spec_constructors_validate():
    with pytest.raises(ConfigError):
        AsymDelay("BtoA", -1.0)
    with pytest.raises(ConfigError):
        AsymDelay("sideways", 1e-3)
    with pytest.raises(ConfigError):
        Substitute("Response")  # no field, not dropping
    with pytest.raises(ConfigError):
        Substitute("file", mode="scramble")
    with pytest.raises(ConfigError):
        LineMod()  # nothing selected
    with pytest.raises(ConfigError):
        LineMod(r_wire_factor=2.0, tau=1e-3, at_time=0.0)  # two selected
    with pytest.raises(ConfigError):
        LineMod(r_wire_factor=2.0)  # no activation instant


@pytest.mark.parametrize(
    "spec,problems",
    [
        (
            dict(target="file", drop=True, mode="replay", sample_index=7, delta=3.0, fabricate_tag=True),
            [
                "delta: not used with drop",
                "fabricate_tag: not used with drop",
                "mode: not used with drop",
                "sample_index: not used with drop",
            ],
        ),
        (
            dict(target="Response", drop=True, field="t2_star", delta=1.0, fabricate_tag=True),
            ["field: not used with drop", "delta: not used with drop", "fabricate_tag: not used with drop"],
        ),
        (
            dict(target="file", mode="replay", delta=2.0, sample_index=5, fabricate_tag=True),
            [
                "delta: not used with mode 'replay'",
                "sample_index: not used with mode 'replay'",
                "fabricate_tag: not used with mode 'replay'",
            ],
        ),
        (dict(target="Share", drop=True, direction="BtoA"), ["direction: not used with target 'Share'"]),
    ],
    ids=["file-drop", "message-drop", "replay", "message-direction"],
)
def test_a_substitute_key_its_spelling_ignores_fails_closed(spec, problems):
    with pytest.raises(ConfigError) as err:
        Substitute(**spec)
    assert err.value.problems == problems


def test_a_replayed_file_may_name_its_direction():
    assert Substitute("file", mode="replay", direction="BtoA").direction == "BtoA"


def test_conflicting_line_modifications():
    # two changes of one quantity at one instant fail validation; two of
    # different quantities, or at different instants, build
    mid_bep_0 = 0.5 * LINE.bep_duration  # where LineMod(at_bep=0) starts
    with pytest.raises(ConfigError) as err:
        config(
            LineMod(r_wire_factor=2.0, at_time=mid_bep_0), AsymDelay("BtoA", 1e-3), LineMod(r_wire_factor=3.0, at_bep=0)
        )
    assert err.value.problems == [f"attacks.2: changes R_wire at t = {mid_bep_0!r} s, as attacks.0 does"]
    with pytest.raises(ConfigError) as err:
        config(LineMod(tau=1e-3, at_time=0.05), LineMod(tau=1e-3, at_time=0.05))
    assert err.value.problems == ["attacks.1: changes tau at t = 0.05 s, as attacks.0 does"]
    config(LineMod(r_wire_factor=2.0, at_time=0.005), LineMod(tau=1e-3, at_time=0.005))
    config(LineMod(r_wire_factor=2.0, at_time=0.005), LineMod(r_wire_factor=3.0, at_time=0.006))


def test_attack_composition_applies_in_order():
    sc = scenario(AsymDelay("BtoA", 2e-3), AsymDelay("BtoA", 2e-3), t0=0.005)
    res = protocol_a(sc)
    # two 2 ms hooks compose to a single 4 ms asymmetric delay
    assert res.tau_est == pytest.approx(0.002 + 0.002, abs=1e-12)


@pytest.mark.parametrize(
    "name, attacks, outcome",
    [
        # a delay of 4 ms on the way back, on top of the changed line delay,
        # biases the estimate of t0 = 5 ms by -2 ms
        (
            "honest_protocol_b",
            [{"kind": "AsymDelay", "leg": "BtoA", "delta": 4e-3}, {"kind": "LineMod", "tau": 3e-3, "at_time": 0.0}],
            {"t0_est": 0.003, "tau_est": 0.005, "attack_flag": False},
        ),
        # the change at 50 ms holds after it, whichever is listed first
        (
            "taumod_attack_combined",
            [{"kind": "LineMod", "tau": 3e-3, "at_time": 0.05}, {"kind": "LineMod", "tau": 2e-3, "at_time": 0.01}],
            {"attack_flag": True, "detail": "propagation delay 3.000000e-03s deviates from nominal 2.000000e-03s"},
        ),
    ],
    ids=["delay_and_tau", "two_taus"],
)
def test_the_order_attacks_are_listed_in_changes_no_run(name, attacks, outcome):
    doc = load_bundled(name).raw
    first, second = (run_scenario(ScenarioConfig.from_dict(dict(doc, attacks=a))) for a in (attacks, attacks[::-1]))
    assert (first.result, first.event_log) == (second.result, second.event_log)
    assert {key: first.result[key] for key in outcome} == outcome


def test_hook_actions_are_audited_in_the_log():
    sc = scenario(AsymDelay("BtoA", 1e-3))
    protocol_a(sc)
    kinds = {rec.kind for rec in sc.scheduler.log}
    assert "attack-delay" in kinds

    sc = scenario(Substitute("Response", "t2_star", delta=1e-3))
    protocol_b(sc)
    kinds = {rec.kind for rec in sc.scheduler.log}
    assert "attack-substitute" in kinds

    sc = scenario(LineMod(r_wire_factor=1.5, at_bep=0))
    protocol_c(sc)
    kinds = {rec.kind for rec in sc.scheduler.log}
    assert "attack-linemod-rwire" in kinds


def test_passive_guess_requires_mixed_bep():
    meas, _ = simulate_bep(ResistorChoice.L, ResistorChoice.L, LINE, seed=50)
    with pytest.raises(InconsistentStateError):
        passive_bit_guess(meas, LINE, seed=0)


def test_passive_guess_is_deterministic():
    meas, _ = simulate_bep(ResistorChoice.L, ResistorChoice.H, LINE, seed=51)
    g1 = passive_bit_guess(meas, LINE, seed=7)
    g2 = passive_bit_guess(meas, LINE, seed=7)
    assert g1 == g2 and g1 in (0, 1)


def test_passive_guess_accuracy_is_chance():
    # Eve's channel view is identical for LH and HL, so her hit rate over
    # many mixed BEPs must sit inside the binomial chance band.
    hits = 0
    n = 0
    for k in range(200):
        if k % 2 == 0:
            c_a, c_b, true_bit = ResistorChoice.L, ResistorChoice.H, 0
        else:
            c_a, c_b, true_bit = ResistorChoice.H, ResistorChoice.L, 1
        meas, _ = simulate_bep(c_a, c_b, LINE, seed=60_000 + k)
        try:
            guess = passive_bit_guess(meas, LINE, seed=k)
        except (InconsistentStateError, AmbiguousMeasurementError):
            continue  # unclassifiable BEP, Eve skips it too
        hits += guess == true_bit
        n += 1
    accuracy = hits / n
    band = 3.0 * np.sqrt(0.25 / n)
    assert abs(accuracy - 0.5) < band


def test_attack_matrix():
    """Detection table: A sees nothing, B sees substitution only, the
    combined integrity check sees all three active attacks."""
    delta = 4e-3
    sub = Substitute("Response", "t2_star", delta=1e-3)
    filesub = Substitute("file", mode="alter_sample", sample_index=3, delta=0.5)
    delay = AsymDelay("BtoA", delta)
    lm_tau = LineMod(tau=3e-3, at_time=0.004)
    lm_wire = LineMod(r_wire_factor=1.5, at_bep=0, fraction=0.5)

    # protocol A: everything sails through unflagged
    for attack in (sub, delay, lm_tau):
        assert protocol_a(scenario(attack, seed=20)).attack_flag is False

    # protocol B: substitution only
    assert protocol_b(scenario(sub, seed=21)).attack_flag is True
    for attack in (delay, lm_tau):
        assert protocol_b(scenario(attack, seed=21)).attack_flag is False

    # combined check: all three
    for attack in (filesub, delay, lm_wire):
        assert combined_check(scenario(attack, seed=22)).attack_flag is True


def test_only_a_fabricated_tag_seeds_a_generator(monkeypatch):
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args))
    attacks = (
        AsymDelay("BtoA", 1e-3),
        LineMod(r_wire_factor=1.5, at_bep=0),
        Substitute("Response", "t2_star", delta=1e-3),
        Substitute("file", mode="replay"),
    )
    # two BEPs: a replay needs a record before the one it replaces
    scenario(*attacks, k_range=(0, 1))
    assert made == []
    scenario(*attacks, Substitute("Response", "t2_star", delta=1e-3, fabricate_tag=True), k_range=(0, 1))
    assert len(made) == 1
