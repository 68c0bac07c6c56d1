import hashlib
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


# sha256 of each bundled run's canonical_json() and of its event log, taken
# with numpy 2.4.6; byte identity is promised within one numpy major
BUNDLED_BYTES = {
    "delay_attack_a": (
        "cfc8fcc8aeaa7debc8dd2ef0ad5b17c222e550adcfcb11e6c360a6f360fc59d4",
        "fdcb9059fd49f35d0af634d92c77b7567b0e675f5b5b28958b14f33f0910a74a",
    ),
    "delay_attack_b": (
        "00a70d51c0fea733dbb5f7a7cfd4ca4f5afb9b06224ee8260b6e59343e07893b",
        "fdcb9059fd49f35d0af634d92c77b7567b0e675f5b5b28958b14f33f0910a74a",
    ),
    "delay_attack_combined": (
        "0736a065072dc47cafedb54aeb3d99dedf4b9724005e4a83fbd969e49f7d6df4",
        "6db3cece81113f5672873477e1913cf415bfda8ee8f200628ba7ad692199e48a",
    ),
    "file_tamper_c": (
        "9fcd9fadc67a42f89e70e4e365c012f43397da3eee3b69958636880907c35cef",
        "da7fac09fbac1a9a82a4f5b7ae61e75fd10bc66d641c9e2b24ee103ce2a9811e",
    ),
    "honest_combined": (
        "33377a9c3a73e778b07b24c70ecf6a4cf33dc9ae204d1c3c51c692f7a66df357",
        "0fe951996062b48889c775f876c5a60c877a5510a6d6ca5af1763d37d87b1c3a",
    ),
    "honest_protocol_a": (
        "ffc7336602d18655997dfe2d1df51287daf47fe76c40adf906ae406f408494cc",
        "034f4d223d44ec5bde3991e924365d0133760e4083584b894386461dce968a0b",
    ),
    "honest_protocol_b": (
        "8dc0c2bd83f87fa4db29e942f52c82ee7c457d6ac6ee6c2e03d131c99b0a3df2",
        "034f4d223d44ec5bde3991e924365d0133760e4083584b894386461dce968a0b",
    ),
    "honest_protocol_c": (
        "d2aad6c9db8424d6b7c20f554b5b28ebbab54967fbed5a684f8c4e8df220b87f",
        "c38af88940d67095b508a8cfb6fb7b7eb919e62b6485fc73a43ff220c5bea768",
    ),
    "linemod_attack_c": (
        "3343822ef9e4b847b568d1b5c7f5fb7a0a9139806cfb89098ef9f66c293778a6",
        "b1d7d040775b57767ecd91d4c48c4757ad6e8f96719e58857f9b1d89a00649d5",
    ),
    "replay_attack_c": (
        "58b976d77f007616e631a73ba2ed33a19f355b7fed8902f27dba1f19a3faf001",
        "acad86195f8c9cbd75a62d30e1c21cde121667fe612e7e7ecf246fccadddcd50",
    ),
    "substitution_attack_b": (
        "ed966d8a02029d61c32c9b70e054a9310522d88359ab415a8bbbc1eb58b61d54",
        "2000a0617778cd915546953a37d458b2c6154e270e9aee0789efd5415c2087f3",
    ),
    "taumod_attack_combined": (
        "daa4d36d3c0f6f950486a09f74a123bff2b92566d77aae4eb455c32614e328b6",
        "1217652aa8bf92b16e0c344d92f01d1fbea4257532dd6a0e3fedc358518c1457",
    ),
}


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_runs_keep_their_bytes(name):
    report = run_scenario(load_bundled(name))
    texts = (report.canonical_json(), report.event_log)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert digests == BUNDLED_BYTES[name]
    assert report.event_log_digest == digests[1]


def test_reports_share_no_dict_or_list():
    # config documents and msq levels are kept on the frozen config sections;
    # each report must still get containers of its own
    cfg = load_bundled("substitution_attack_b")
    reports = sweep(cfg, "clock.t0", [0.0, 1e-3]) + [run_scenario(cfg), run_scenario(cfg)]

    def containers(node):
        if isinstance(node, (dict, list)):
            yield id(node)
            for child in node.values() if isinstance(node, dict) else node:
                yield from containers(child)

    ids = [{i for part in (r.config, r.msq_levels) for i in containers(part)} for r in reports]
    assert sum(map(len, ids)) == len(set().union(*ids))
    expected = reports[3].canonical_json()
    reports[2].config["line"]["R_L"] = -1.0
    reports[2].config["protocol"]["k_range"].append(7)
    reports[2].config["attacks"][0]["delta"] = -1.0
    reports[2].msq_levels["LL"] = -1.0
    assert cfg.canonical_dict() == reports[3].config
    assert run_scenario(cfg).canonical_json() == expected


@pytest.mark.parametrize("rel", [0.0, 1e-3])
def test_the_noisiest_line_a_config_accepts_runs_without_overflow(rel):
    # RuntimeWarnings are errors in tier 1, so an overflow anywhere fails this
    base = load_bundled("honest_combined").canonical_dict()

    def line(exponent: float) -> dict:
        return dict(base["line"], noise_scale=10.0**exponent, measurement_noise_rel=rel)

    accepted, rejected = -4.0, 300.0
    for _ in range(40):
        mid = (accepted + rejected) / 2
        try:
            LineConfig(**line(mid))
            accepted = mid
        except ConfigError:
            rejected = mid
    assert accepted > 100
    report = run_scenario(ScenarioConfig.from_dict(dict(base, line=line(accepted))))
    assert "Infinity" not in report.canonical_json() and "NaN" not in report.canonical_json()


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
