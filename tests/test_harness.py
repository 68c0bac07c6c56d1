import json

import numpy as np
import pytest
from pinned import indented_report_digest

from kljnsync.adversaries import AsymDelay, Substitute
from kljnsync.config import ClockConfig, ProtocolConfig
from kljnsync.errors import ConfigError, UnknownParameterError, UnknownSeriesError
from kljnsync.harness import (
    RunReport,
    ScenarioConfig,
    bundled_scenario_names,
    emit_plot_data,
    load_bundled,
    run_scenario,
    sweep,
)
from kljnsync.line import LineConfig
from kljnsync.noise import theoretical_autocorrelation

MINIMAL = {
    "seed": 5,
    "line": {"R_L": 1.0, "R_H": 10.0, "bandwidth_B": 1e4, "noise_scale": 1e-4},
    "protocol": {"kind": "A"},
}


def test_minimal_config_gets_defaults():
    cfg = ScenarioConfig.from_dict(MINIMAL)
    doc = cfg.canonical_dict()
    assert doc["clock"] == {"t0": 0.0, "quantization": 1e-6}
    assert doc["channel"] == {"tau": 2e-3, "processing_delay": 1e-3}
    assert doc["line"]["R_wire"] == 0.01
    assert doc["protocol"]["k_range"] == [0]
    assert doc["key_bits"] == 8192


def test_unknown_keys_fail_closed():
    bad = dict(MINIMAL, typo=1)
    with pytest.raises(ConfigError, match="typo"):
        ScenarioConfig.from_dict(bad)
    bad = dict(MINIMAL, line=dict(MINIMAL["line"], R_wier=0.1))
    with pytest.raises(ConfigError, match="line.R_wier"):
        ScenarioConfig.from_dict(bad)
    bad = dict(MINIMAL, attacks=[{"kind": "AsymDelay", "leg": "BtoA", "del": 1}])
    with pytest.raises(ConfigError, match="attacks.0.del"):
        ScenarioConfig.from_dict(bad)


def test_validation_collects_multiple_problems():
    bad = {"seed": "x", "line": {}, "protocol": {"kind": "Z"}}
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(bad)
    assert len(err.value.problems) >= 3


def test_value_level_problems_surface():
    bad = dict(MINIMAL, line={"R_L": 10.0, "R_H": 1.0, "bandwidth_B": 1e4, "noise_scale": 1e-4})
    with pytest.raises(ConfigError, match="R_H"):
        ScenarioConfig.from_dict(bad)


def test_invalid_json_reported():
    with pytest.raises(ConfigError, match="JSON"):
        ScenarioConfig.from_json("{not json")


def test_bundled_scenarios_enumerate_and_load():
    names = bundled_scenario_names()
    assert "honest_protocol_a" in names and "linemod_attack_c" in names
    for name in names:
        load_bundled(name)  # validates every shipped file
    with pytest.raises(ConfigError, match="no bundled scenario"):
        load_bundled("nonexistent")


def test_run_honest_protocol_a_recovers_configured_offset():
    report = run_scenario(load_bundled("honest_protocol_a"))
    cfg = report.config
    assert report.result["t0_est"] == pytest.approx(cfg["clock"]["t0"], abs=1e-9)
    assert report.result["tau_est"] == pytest.approx(cfg["channel"]["tau"], abs=1e-9)
    assert report.result["attack_flag"] is False
    assert report.config["protocol"]["kind"] == "A"


def test_run_delay_attack_b_documents_the_weakness():
    report = run_scenario(load_bundled("delay_attack_b"))
    cfg = report.config
    delta = cfg["attacks"][0]["delta"]
    assert report.result["attack_flag"] is False  # B cannot see pure delay
    assert report.result["tau_est"] == pytest.approx(cfg["channel"]["tau"] + delta / 2, abs=1e-9)


def test_report_is_self_describing_and_round_trips():
    report = run_scenario(load_bundled("honest_protocol_c"))
    text = report.canonical_json()
    back = RunReport.from_json(text)
    assert back.canonical_json() == text
    rebuilt = ScenarioConfig.from_dict(back.config)  # embedded config is valid
    assert rebuilt.seed == report.config["seed"]


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_canonical_json_is_the_compact_sorted_form(name):
    text = run_scenario(load_bundled(name)).canonical_json()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (b"\xff\xfe{", r"^report: invalid JSON \("),
        ("[1, 2]", r"^report: not a JSON object$"),
        ('{"config": {}}', "^report: missing key 'result'; report: missing key 'event_log_digest'; "
                           "report: missing key 'msq_levels'; report: missing key 'key_bits_consumed'$"),
    ],
    ids=["not_utf8", "not_an_object", "missing_keys"],
)
def test_a_malformed_report_fails_closed(text, message):
    with pytest.raises(ConfigError, match=message):
        RunReport.from_json(text)


def test_repeated_runs_are_byte_identical():
    cfg = load_bundled("honest_combined")
    assert run_scenario(cfg).canonical_json() == run_scenario(cfg).canonical_json()


def test_sweep_delay_column():
    cfg = load_bundled("delay_attack_a")
    values = [0.0, 1e-3, 2e-3, 4e-3]
    reports = sweep(cfg, "attacks.0.delta", values)
    t0 = cfg.canonical_dict()["clock"]["t0"]
    for value, report in zip(values, reports):
        assert report.result["t0_est"] == pytest.approx(t0 - value / 2, abs=1e-9)


def test_sweep_empty_values_and_seed_policy():
    cfg = load_bundled("honest_protocol_a")
    assert sweep(cfg, "channel.tau", []) == []
    reports = sweep(cfg, "channel.tau", [1e-3, 1e-3], seed_policy="per-value")
    assert reports[0].config["seed"] != reports[1].config["seed"]


def test_sweep_unknown_or_non_numeric_parameter():
    cfg = load_bundled("honest_protocol_a")
    with pytest.raises(UnknownParameterError):
        sweep(cfg, "channel.bogus", [1.0])
    with pytest.raises(UnknownParameterError):
        sweep(cfg, "protocol.kind", [1.0])
    with pytest.raises(UnknownParameterError):
        sweep(cfg, "attacks.5.delta", [1.0])


def test_emit_plot_data_formats_and_unknown_series():
    report = run_scenario(load_bundled("honest_protocol_c"))
    text = emit_plot_data(report, "residual_curve")
    rows = [line.split() for line in text.splitlines()]
    assert all(len(r) == 2 for r in rows)
    floats = [(float(a), float(b)) for a, b in rows]
    assert len(floats) == 201
    with pytest.raises(UnknownSeriesError):
        emit_plot_data(report, "spectrogram")
    # protocol A runs have no residual curve
    report_a = run_scenario(load_bundled("honest_protocol_a"))
    with pytest.raises(UnknownSeriesError):
        emit_plot_data(report_a, "residual_curve")


def test_residual_series_minimum_sits_at_negative_offset():
    report = run_scenario(load_bundled("honest_protocol_c"))
    curve = np.asarray(report.series["residual_curve"])
    t0 = report.config["clock"]["t0"]
    fs = report.config["line"]["sample_rate"]
    assert curve[np.argmin(curve[:, 1]), 0] == pytest.approx(-t0, abs=0.5 / fs)


def test_autocorrelation_series_tracks_the_sinc_kernel():
    report = run_scenario(load_bundled("honest_protocol_c"))
    ac = np.asarray(report.series["autocorrelation"])
    B = report.config["line"]["bandwidth_B"]
    level = ac[0, 1]
    # one BEP is only 100/B long, so the statistical band is level/10 per lag
    band = 5.0 * level / 10.0
    theory = theoretical_autocorrelation(B, level / B, ac[:, 0])
    assert np.max(np.abs(ac[:, 1] - theory)) < band


def test_msq_histogram_series_counts_beps():
    report = run_scenario(load_bundled("replay_attack_c"))
    hist = np.asarray(report.series["msq_histogram"])
    assert int(hist[:, 1].sum()) == len(report.config["protocol"]["k_range"])


def test_sweep_offset_across_sample_grid_recovers_everywhere():
    cfg = load_bundled("honest_protocol_c")
    fs = cfg.canonical_dict()["line"]["sample_rate"]
    values = [m / fs for m in (-20, -7, 0, 13, 20)]
    for value, report in zip(values, sweep(cfg, "clock.t0", values)):
        assert report.result["attack_flag"] is False
        assert abs(report.result["t0_est"] - value) <= 1.0 / fs


def test_config_value_bounds_checked():
    bad = dict(MINIMAL, channel={"tau": -1.0})
    with pytest.raises(ConfigError, match="channel.tau"):
        ScenarioConfig.from_dict(bad)
    bad = dict(MINIMAL, clock={"quantization": -2.0})
    with pytest.raises(ConfigError, match="quantization"):
        ScenarioConfig.from_dict(bad)


def test_sweep_of_an_integer_field_takes_whole_floats_only():
    cfg = load_bundled("honest_protocol_c")
    (report,) = sweep(cfg, "protocol.dt_window", [50.0])
    assert report.config["protocol"]["dt_window"] == 50
    assert type(report.config["protocol"]["dt_window"]) is int
    assert len(report.series["residual_curve"]) == 101
    with pytest.raises(ConfigError, match="protocol.dt_window"):
        sweep(cfg, "protocol.dt_window", [2.5])


def test_a_report_computes_the_msq_levels_once(monkeypatch):
    from kljnsync import harness, line, protocols

    original, calls = line.analytic_levels, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "analytic_levels", counted)
    monkeypatch.setattr(line, "analytic_levels", counted)
    run_scenario(load_bundled("honest_protocol_a"))
    assert len(calls) == 1
    # with an msq histogram: one more call than the protocol's own BEP
    # classification makes
    cfg = load_bundled("replay_attack_c")
    calls.clear()
    protocols.protocol_c(cfg.build_scenario())
    by_protocol = len(calls)
    calls.clear()
    run_scenario(cfg)
    assert len(calls) == by_protocol + 1


VERDICTS = {
    "delay_attack_a": (False, True, ""),
    "delay_attack_b": (False, True, ""),
    "delay_attack_combined": (
        True, True,
        "offset after correction is -2.000e-06s, not zero; "
        "propagation delay 2.002000e-03s deviates from nominal 2.000000e-03s",
    ),
    "file_tamper_c": (True, False, "authentication failed"),
    "honest_combined": (False, True, ""),
    "honest_protocol_a": (False, True, ""),
    "honest_protocol_b": (False, True, ""),
    "honest_protocol_c": (False, True, ""),
    "linemod_attack_c": (True, True, "no shift explains the data (residual 1.456e-01)"),
    "replay_attack_c": (True, False, "stale or mismatched file"),
    "substitution_attack_b": (True, False, "authentication failed"),
    "taumod_attack_combined": (
        True, True, "propagation delay 3.000000e-03s deviates from nominal 2.000000e-03s"
    ),
}


def test_verdict_table_covers_every_bundled_scenario():
    assert sorted(VERDICTS) == bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_bundled_scenario_verdicts(name):
    result = run_scenario(load_bundled(name)).result
    assert (result["attack_flag"], result["auth_ok"], result["detail"]) == VERDICTS[name]


def test_a_config_built_in_code_runs_and_sweeps_like_its_document():
    cfg = ScenarioConfig(
        seed=3,
        line=LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4),
        protocol=ProtocolConfig(kind="B"),
        clock=ClockConfig(t0=2e-3),
        attacks=(AsymDelay("BtoA", 1e-3), Substitute("Response", "t2_star", delta=0.0)),
    )
    assert cfg.raw is None
    expected = run_scenario(ScenarioConfig.from_dict(cfg.canonical_dict())).canonical_json()
    assert run_scenario(cfg).canonical_json() == expected
    (swept,) = sweep(cfg, "attacks.0.delta", [1e-3])
    assert swept.canonical_json() == expected


def test_a_written_attack_default_leaves_the_report_alone():
    written = load_bundled("substitution_attack_b").raw
    attack = written["attacks"][0]
    spelled_out = dict(written, attacks=[dict(attack, value=None, fabricate_tag=False, drop=False)])
    report = run_scenario(ScenarioConfig.from_dict(spelled_out))
    assert report.canonical_json() == run_scenario(ScenarioConfig.from_dict(written)).canonical_json()
    assert report.config["attacks"] == [attack]


def test_a_fabricated_tag_run_keeps_its_bytes():
    doc = load_bundled("substitution_attack_b").raw
    doc = dict(doc, attacks=[dict(doc["attacks"][0], fabricate_tag=True)])
    text = run_scenario(ScenarioConfig.from_dict(doc)).canonical_json()
    assert indented_report_digest(text) == (
        "7a25a933fed52518288208af815ff349cda3ce7be2a0421b5d60fedee1cb11e0"
    )


def test_sweep_takes_list_items_by_their_position_only():
    # "-1" is no position: the edited attack would run beside the base one
    with pytest.raises(UnknownParameterError):
        sweep(load_bundled("delay_attack_a"), "attacks.-1.delta", [1e-3])
