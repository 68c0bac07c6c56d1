import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from pinned import indented_report_digest

from kljnsync import protocols
from kljnsync.adversaries import AsymDelay, Substitute
from kljnsync.auth import AuthTag, KeyLedger, KeySpan
from kljnsync.channel import Clock, EventRecord
from kljnsync.config import ClockConfig, ProtocolConfig, init_fields
from kljnsync.errors import ConfigError, UnknownParameterError, UnknownSeriesError
from kljnsync.harness import (
    ReportDocument,
    RunReport,
    ScenarioConfig,
    _series_from,
    bundled_scenario_names,
    emit_plot_data,
    load_bundled,
    run_scenario,
    sweep,
)
from kljnsync.line import LineConfig
from kljnsync.noise import theoretical_autocorrelation
from kljnsync.protocols import SyncMessage, SyncResult

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


@pytest.mark.parametrize(
    "name, error",
    [
        ("honest_protocol_c", 0.0),  # C corrected Bob's clock
        ("honest_combined", 0.0),
        ("file_tamper_c", 3.5e-05),  # flagged: C corrected nothing, so t0 is left
        ("delay_attack_b", 0.002),  # unflagged: d/2 of the 4 ms delay, as criterion 4 states
    ],
)
def test_a_run_states_the_clock_error_it_leaves(name, error):
    report = run_scenario(load_bundled(name))
    assert report.clock_error == error
    assert f"  clock error = {error!r} s\n" in report.summary()
    # informational: the canonical form does not carry it, and a report read
    # back from it does not know it
    assert "clock_error" not in report.canonical_json()
    assert RunReport.from_json(report.canonical_json()).clock_error is None


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
    assert RunReport.from_json(text).canonical_json() == text


REPORT_A = json.loads(run_scenario(load_bundled("honest_protocol_a")).canonical_json())
CONFIG_A, RESULT_A = REPORT_A["config"], REPORT_A["result"]


def _report_text(**changes) -> str:
    """honest_protocol_a's report with the given keys changed."""
    return json.dumps(dict(REPORT_A, **changes))


@pytest.mark.parametrize(
    "text, message",
    [
        (b"\xff\xfe{", r"^report: invalid JSON \("),
        ("[1, 2]", r"^report: not a JSON object$"),
        ('{"config": {}}', r"^report: config\.seed: required; report: config\.line: required; "
                           r"report: config\.protocol: required; report: result: required; "
                           r"report: event_log_digest: required; report: key_bits_consumed: required; "
                           r"report: msq_levels: required$"),
        (_report_text(oops=1), r"^report: oops: unknown key$"),
        (_report_text(config=dict(CONFIG_A, oops=1)), r"^report: config\.oops: unknown key$"),
        (_report_text(config=dict(CONFIG_A, line=dict(CONFIG_A["line"], R_L=-1))),
         r"^report: config\.line\.R_L: must be > 0"),
        (_report_text(config=[]), r"^report: config: expected an object$"),
        (_report_text(result=[]), r"^report: result: expected an object$"),
        (_report_text(event_log_digest=0), r"^report: event_log_digest: must be str$"),
        (_report_text(key_bits_consumed=1.0), r"^report: key_bits_consumed: must be an integer$"),
        (_report_text(key_bits_consumed=-5), r"^report: key_bits_consumed: must be >= 0$"),
        (_report_text(series=[]), r"^report: series: must be dict$"),
        # its config runs protocol A and grants 8192 bits of key
        (_report_text(result=dict(RESULT_A, protocol="Combined", residual=5.0), key_bits_consumed=10**9),
         r"^report: result\.protocol: must be config\.protocol\.kind \(A\); "
         r"report: key_bits_consumed: must be <= config\.key_bits \(8192\)$"),
        (_report_text(result=dict(RESULT_A, protocol="B")), r"^report: result\.protocol: must be config\.protocol\.kind \(A\)$"),
        (_report_text(key_bits_consumed=8193), r"^report: key_bits_consumed: must be <= config\.key_bits \(8192\)$"),
    ],
    ids=[
        "not_utf8", "not_an_object", "missing_keys", "unknown_key",
        "config_unknown_key", "config_negative_R_L", "config_not_an_object",
        "result_not_an_object", "digest_not_a_string", "key_bits_not_an_integer", "key_bits_negative",
        "series_not_an_object", "other_protocol_and_overspent", "other_protocol", "overspent",
    ],
)
def test_a_malformed_report_fails_closed(text, message):
    with pytest.raises(ConfigError, match=message):
        RunReport.from_json(text)


def test_a_report_builds_its_config_document_only_when_read(monkeypatch):
    canonical_dict = ScenarioConfig.canonical_dict
    calls = []

    def counted(config):
        calls.append(config)
        return canonical_dict(config)

    monkeypatch.setattr(ScenarioConfig, "canonical_dict", counted)
    reports = sweep(load_bundled("honest_protocol_b"), "clock.t0", [0, 1e-3], "per-value")
    for report in reports:
        report.canonical_json()
    assert calls == []
    first = reports[1].config
    assert reports[1].config is first
    assert calls == [reports[1].scenario_config]
    assert first == canonical_dict(reports[1].scenario_config)


def test_a_report_whose_levels_are_not_its_lines_fails_closed():
    body = json.loads(run_scenario(load_bundled("honest_protocol_c")).canonical_json())
    assert RunReport.from_json(json.dumps(body)).scenario_config.line.msq_levels == body["msq_levels"]
    levels = body["msq_levels"]
    not_the_lines = r"^report: msq_levels: must be the levels of config\.line$"
    for wrong in ({**levels, "LL": levels["LL"] * 2}, {**levels, "extra": 0.0}, dict(list(levels.items())[1:])):
        with pytest.raises(ConfigError, match=not_the_lines):
            RunReport.from_json(json.dumps(dict(body, msq_levels=wrong)))
    with pytest.raises(ConfigError, match=r"^report: msq_levels: must be dict$"):
        RunReport.from_json(json.dumps(dict(body, msq_levels=None)))
    # the levels of another line are as wrong as made-up ones
    other = LineConfig(**dict(body["config"]["line"], noise_scale=2e-4)).msq_levels
    assert other.keys() == levels.keys()
    with pytest.raises(ConfigError, match=not_the_lines):
        RunReport.from_json(json.dumps(dict(body, msq_levels=dict(other))))


@pytest.mark.parametrize(
    "result, message",
    [
        ({}, r"^report: result\.protocol: required; (report: result\.\w+: required; ){5}"
             r"report: result\.detail: required$"),
        ({k: v for k, v in RESULT_A.items() if k != "tau_est"}, r"^report: result\.tau_est: required$"),
        (dict(RESULT_A, extra=0), r"^report: result\.extra: unknown key$"),
        (dict(RESULT_A, t0_est="x"), r"^report: result\.t0_est: must be a number$"),
        (dict(RESULT_A, residual=True), r"^report: result\.residual: must be a number$"),
        (dict(RESULT_A, attack_flag=0), r"^report: result\.attack_flag: must be bool$"),
        (dict(RESULT_A, protocol=None), r"^report: result\.protocol: must be one of A, B, C, Combined$"),
        (dict(RESULT_A, detail=[]), r"^report: result\.detail: must be str$"),
        (dict(RESULT_A, protocol="D"), r"^report: result\.protocol: must be one of A, B, C, Combined$"),
        (dict(RESULT_A, auth_ok=False), r"^report: result\.attack_flag: must be true when auth_ok is false$"),
    ],
    ids=[
        "empty", "missing_key", "unknown_key", "estimate_not_a_number", "residual_a_bool",
        "flag_not_a_bool", "protocol_not_a_string", "detail_not_a_string", "unknown_protocol",
        "failed_auth_unflagged",
    ],
)
def test_a_malformed_result_fails_closed(result, message):
    # a report's result reads back only as a SyncResult's fields: each of
    # these would otherwise read, and summary() raise or report a clean run
    with pytest.raises(ConfigError, match=message):
        RunReport.from_json(json.dumps(dict(REPORT_A, result=result)))


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_a_report_writes_the_keys_its_reader_reads(name):
    body = json.loads(run_scenario(load_bundled(name)).canonical_json())
    assert sorted(body) == sorted(init_fields(ReportDocument))
    assert sorted(body["result"]) == sorted(SyncResult._fields)


def test_a_result_reads_back_as_the_run_wrote_it():
    report = RunReport.from_json(json.dumps(REPORT_A))
    assert report.result == RESULT_A and report.result is not RESULT_A
    assert "protocol A: clean" in report.summary()
    # a whole number of seconds reads as JSON gives it
    assert RunReport.from_json(json.dumps(dict(REPORT_A, result=dict(RESULT_A, t0_est=0)))).result["t0_est"] == 0


def test_changing_a_reports_dicts_leaves_its_canonical_form_alone():
    (report,) = sweep(load_bundled("substitution_attack_b"), "clock.t0", [1e-3])
    text = report.canonical_json()
    report.config["line"]["R_L"] = -1.0
    report.config["attacks"].clear()
    report.config["seed"] = None
    assert report.canonical_json() == text
    assert report.scenario_config.canonical_dict() != report.config
    # the levels the report's text is kept from cannot be changed
    with pytest.raises(TypeError):
        report.scenario_config.line.msq_levels["LL"] = -1.0


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


def test_msq_histogram_is_np_histogram_bit_for_bit():
    # the series counts as np.histogram does, beyond the bundled inputs:
    # every edge, top and just past it, and values outside [0, top]
    rng = np.random.default_rng(2022)
    for hh in (0.1, 1.0 / 3.0, 4.2e-3, 7.0, 5.000001248750936e-296, 1e300):
        top = hh * 1.5
        edges = np.linspace(0.0, top, 25)
        special = np.concatenate((edges, [np.nextafter(top, np.inf), 2.0 * top, -top, np.nextafter(0.0, -1.0)]))
        for _ in range(40):
            n = int(rng.integers(1, 65))
            values = np.where(rng.random(n) < 0.5, rng.choice(special, n), rng.uniform(-0.1, 1.2, n) * top)
            fake = SimpleNamespace(
                diagnostics={"bep_msq": list(values)},
                config=SimpleNamespace(line=SimpleNamespace(msq_levels={"HH": hh})),
            )
            counts, bins = np.histogram(values, bins=24, range=(0.0, top))
            centers = 0.5 * (bins[:-1] + bins[1:])
            got = _series_from(fake)["msq_histogram"]
            assert [(c.hex(), k) for c, k in got] == [(float(c).hex(), int(k)) for c, k in zip(centers, counts)]


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
    # the line computes its levels when it is built; a report only shows them
    from kljnsync import line

    calls, level = [], line._level
    monkeypatch.setattr(line, "_level", lambda *args: calls.append(args) or level(*args))
    configs = [load_bundled(name) for name in ("honest_protocol_a", "replay_attack_c")]
    built = len(calls)
    assert built > 0
    for cfg in configs:
        reports = [run_scenario(cfg), run_scenario(cfg)]
        for report in reports:
            assert json.loads(report.canonical_json())["msq_levels"] == cfg.line.msq_levels
    assert len(calls) == built


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
        "5ca765bf5a699163df8309cde3cb6ddd37625550bdba4f214ccc0aaf21a53637",
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


def test_every_result_value_is_a_plain_json_scalar():
    # a report's result is its SyncResult's fields as they are, so the
    # protocols must hand over Python scalars, never numpy ones
    reports = [run_scenario(load_bundled(name)) for name in bundled_scenario_names()]
    reports += sweep(load_bundled("honest_combined"), "clock.t0", [0.0, 2e-5, 3.5e-5])
    # with no clock rounding, a clock hands back its offset time as it is
    reports += sweep(load_bundled("honest_combined"), "clock.quantization", [0.0])
    assert len(reports) == 16
    types = {(key, type(value)) for r in reports for key, value in r.result.items()}
    assert {t for _, t in types} <= {float, bool, str, type(None)}
    assert {k for k, _ in types} == {"protocol", "t0_est", "tau_est", "residual", "auth_ok", "attack_flag", "detail"}


def test_reports_share_no_dict_or_list():
    # config documents are kept on the frozen config sections; each report
    # must still get containers of its own
    cfg = load_bundled("substitution_attack_b")
    reports = sweep(cfg, "clock.t0", [0.0, 1e-3]) + [run_scenario(cfg), run_scenario(cfg)]

    def containers(node):
        if isinstance(node, (dict, list)):
            yield id(node)
            for child in node.values() if isinstance(node, dict) else node:
                yield from containers(child)

    ids = [set(containers(r.config)) for r in reports]
    assert sum(map(len, ids)) == len(set().union(*ids))
    expected = reports[3].canonical_json()
    reports[2].config["line"]["R_L"] = -1.0
    reports[2].config["protocol"]["k_range"].append(7)
    reports[2].config["attacks"][0]["delta"] = -1.0
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
        attacks=(AsymDelay("BtoA", 1e-3), Substitute("Response", "t2_star", delta=0.0, fabricate_tag=True)),
    )
    assert cfg.raw is None
    expected = run_scenario(ScenarioConfig.from_dict(cfg.canonical_dict())).canonical_json()
    assert run_scenario(cfg).canonical_json() == expected
    (swept,) = sweep(cfg, "attacks.0.delta", [1e-3])
    assert swept.canonical_json() == expected


def test_a_written_attack_default_leaves_the_report_alone():
    written = load_bundled("substitution_attack_b").raw
    attack = written["attacks"][0]
    spelled_out = dict(written, attacks=[dict(attack, fabricate_tag=False, drop=False, mode="alter_sample")])
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


def test_a_stalled_protocol_a_run_is_reported_unflagged():
    drop = {"kind": "Substitute", "target": "Response", "drop": True}
    doc = dict(load_bundled("honest_protocol_a").raw, attacks=[drop])
    report = run_scenario(ScenarioConfig.from_dict(doc))
    nothing = dict.fromkeys(("t0_est", "tau_est", "residual"))
    detail = "incomplete: synchronization exchange never finished"
    assert report.result == dict(protocol="A", **nothing, auth_ok=True, attack_flag=False, detail=detail)
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == "417e0df44c615dbe83893881bb393d92aa134f3da6364f787e814d57b7e22c16"


# record attacks no bundled scenario runs, and the detail each gives
RECORD_ATTACKS = [
    ({"drop": True}, "timeout: file exchange stalled"),
    ({"drop": True, "direction": "BtoA"}, "timeout: file exchange stalled"),
    ({"fabricate_tag": True}, "authentication failed"),
    ({}, "authentication failed"),  # alter_sample with delta unset
]


@pytest.mark.parametrize("name", ["honest_protocol_c", "honest_combined"])
@pytest.mark.parametrize("attack, detail", RECORD_ATTACKS)
def test_record_attacks_are_flagged(name, attack, detail):
    doc = dict(load_bundled(name).raw, attacks=[dict(kind="Substitute", target="file", **attack)])
    result = run_scenario(ScenarioConfig.from_dict(doc)).result
    if name == "honest_combined":
        # C corrected nothing, so the probe's uncorrected offset is not a failure
        detail = f"integrity check: {detail}"
    assert (result["attack_flag"], result["auth_ok"], result["detail"]) == (True, False, detail)


def test_sweep_takes_list_items_by_their_position_only():
    # "-1" is no position: the edited attack would run beside the base one
    with pytest.raises(UnknownParameterError):
        sweep(load_bundled("delay_attack_a"), "attacks.-1.delta", [1e-3])


# bundled runs, and how many EventRecord, KeySpan, AuthTag, Clock,
# SyncMessage and SyncResult values each builds
BUILT = {
    "honest_protocol_a": 13,
    "honest_protocol_b": 22,
    "delay_attack_b": 23,
    "substitution_attack_b": 23,
    "honest_combined": 33,
}


def _ordinary(cls, value):
    """value built again by cls's ordinary constructor: a message from its
    fields but the encoding, any other named tuple from all its fields."""
    if cls is SyncMessage:
        kind, t1, t1_star, t2_star, t2, tag, _ = value
        return SyncMessage(kind, t1=t1, t1_star=t1_star, t2_star=t2_star, t2=t2, tag=tag)
    return cls(*value)


@pytest.mark.parametrize("name", sorted(BUILT))
def test_the_run_path_builds_its_named_tuples_in_one_call(name, monkeypatch):
    # each is made with tuple.__new__(Type, fields), never through the
    # generated __new__ that Type(*fields) calls, and is the value that
    # gives; a message or result is made by its own constructor, or, for a
    # tagged message, by tagged, and never by its fields' generated __new__
    calls, built, scenarios = [], [], []

    def kept(method, cls, pick=lambda value: value):
        def spy(*args, **kwargs):
            value = method(*args, **kwargs)
            built.append((cls, pick(value)))
            return value

        return spy

    def build_scenario(config, build=ScenarioConfig.build_scenario):
        scenario = build(config)
        scenarios.append(scenario)
        built.extend([(Clock, scenario.alice_clock), (Clock, scenario.bob_clock)])
        return scenario

    with monkeypatch.context() as patch:
        generated = {cls: cls for cls in (EventRecord, KeySpan, AuthTag, Clock)}
        generated.update({SyncMessage: SyncMessage.__base__, SyncResult: SyncResult.__base__})
        for cls, fields in generated.items():

            def counted(cls, *args, generated=fields.__new__, **kwargs):
                calls.append(cls.__name__)
                return generated(cls, *args, **kwargs)

            patch.setattr(fields, "__new__", counted)
        for cls in (SyncMessage, SyncResult):
            patch.setattr(cls, "__new__", kept(cls.__new__, cls))
        patch.setattr(SyncMessage, "tagged", kept(SyncMessage.tagged, SyncMessage))
        patch.setattr(ScenarioConfig, "build_scenario", build_scenario)
        patch.setattr(Clock, "corrected", kept(Clock.corrected, Clock))
        patch.setattr(KeyLedger, "take", kept(KeyLedger.take, KeySpan, lambda taken: taken[0]))
        patch.setattr(protocols, "encrypt_digest", kept(protocols.encrypt_digest, AuthTag))
        run_scenario(load_bundled(name))
    assert calls == []

    (scenario,) = scenarios
    built += [(EventRecord, rec) for rec in scenario.scheduler.log]
    assert len(built) == BUILT[name]
    for cls, value in built:
        ordinary = _ordinary(cls, value)
        assert type(value) is cls
        assert (value, repr(value), hash(value)) == (ordinary, repr(ordinary), hash(ordinary))
