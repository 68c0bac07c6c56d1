import hashlib
import json

import pytest

from kljnsync import cli
from kljnsync.cli import main
from kljnsync.harness import load_bundled, sweep


def test_run_bundled_scenario(tmp_path, capsys):
    rc = main(["run", "honest_protocol_a", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "protocol A: clean" in out
    report_path = tmp_path / "honest_protocol_a.report.json"
    body = json.loads(report_path.read_text())
    assert body["result"]["attack_flag"] is False


def test_run_config_file(tmp_path, capsys):
    cfg = {
        "seed": 9,
        "line": {"R_L": 1.0, "R_H": 10.0, "bandwidth_B": 1e4, "noise_scale": 1e-4},
        "clock": {"t0": 0.001},
        "protocol": {"kind": "B"},
    }
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(cfg))
    rc = main(["run", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "mine.report.json").exists()


def test_run_unknown_config_errors(tmp_path, capsys):
    rc = main(["run", "no_such_scenario", "--out", str(tmp_path)])
    assert rc == 2
    assert "no config file or bundled scenario" in capsys.readouterr().err


def test_run_invalid_config_reports_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "line": {}, "protocol": {"kind": "A"}, "oops": 1}))
    rc = main(["run", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "oops" in capsys.readouterr().err


def test_sweep_and_plot(tmp_path, capsys):
    rc = main(
        [
            "sweep", "delay_attack_a",
            "--param", "attacks.0.delta",
            "--values", "0.001,0.002",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 reports written" in out

    rc = main(["run", "honest_protocol_c", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    report = tmp_path / "honest_protocol_c.report.json"
    rc = main(["plot", str(report), "--series", "residual_curve"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 201 and len(lines[0].split()) == 2

    rc = main(["plot", str(report), "--series", "nope"])
    assert rc == 2


def test_sweep_of_offsets_between_and_beyond_the_reported_window(tmp_path, capsys):
    # 99 samples, 150 samples (beyond dt_window) and 7.3 samples
    rc = main(
        [
            "sweep", "honest_protocol_c",
            "--param", "clock.t0",
            "--values", "0.000495,0.00075,0.0000365",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    reports = sorted(tmp_path.glob("honest_protocol_c.clock_t0=*.report.json"))
    assert len(reports) == 3
    for path in reports:
        result = json.loads(path.read_text())["result"]
        assert result["attack_flag"] is False, (path.name, result["detail"])


def test_every_sweep_run_gets_its_own_report_file(tmp_path, capsys):
    # a repeated value, and two values that agree to six digits
    values = [0.001, 0.001, 0.0012345671, 0.0012345674]
    rc = main(
        [
            "sweep", "honest_protocol_a",
            "--param", "clock.t0",
            "--values", ",".join(map(repr, values)),
            "--seed-policy", "per-value",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert "4 reports written" in capsys.readouterr().out
    written = [p.read_text() for p in tmp_path.glob("honest_protocol_a.clock_t0=*.report.json")]
    reports = sweep(load_bundled("honest_protocol_a"), "clock.t0", values, seed_policy="per-value")
    expected = [r.canonical_json() for r in reports]
    assert len(set(expected)) == 4
    assert sorted(written) == sorted(expected)


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


REPORT_BODY = {
    "config": load_bundled("honest_protocol_a").canonical_dict(),
    "result": {
        "protocol": "A", "t0_est": 0.005, "tau_est": 0.002, "residual": None,
        "auth_ok": True, "attack_flag": False, "detail": "",
    },
    "event_log_digest": "",
    # a report's levels must be those of its config's line
    "msq_levels": dict(load_bundled("honest_protocol_a").line.msq_levels),
    "key_bits_consumed": 0,
}
CONFIG = REPORT_BODY["config"]


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "report: cannot read"),
        ("residual_curve 1 2\n", "report: invalid JSON"),
        ('{"config": {}}', "report: result: required"),
        (json.dumps({**REPORT_BODY, "result": {}}), "report: result.protocol: required"),
        (json.dumps({**REPORT_BODY, "config": {**CONFIG, "oops": 1}}), "report: config.oops: unknown key"),
        (
            json.dumps({**REPORT_BODY, "config": {**CONFIG, "line": {**CONFIG["line"], "R_L": -1}}}),
            "report: config.line.R_L: must be > 0",
        ),
        (
            json.dumps({**REPORT_BODY, "msq_levels": {**REPORT_BODY["msq_levels"], "LL": 1.0}}),
            "report: msq_levels: must be the levels of config.line",
        ),
        (
            json.dumps({**REPORT_BODY, "result": {**REPORT_BODY["result"], "protocol": "B"}}),
            "report: result.protocol: must be config.protocol.kind (A)",
        ),
    ],
    ids=[
        "missing", "not_json", "no_result", "empty_result", "config_unknown_key", "config_negative_R_L",
        "levels_not_the_lines", "other_protocol",
    ],
)
def test_plot_of_a_bad_report_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "bad.report.json"
    if content is not None:
        path.write_text(content)
    rc = main(["plot", str(path), "--series", "residual_curve"])
    assert rc == 2
    assert message in _one_error_line(capsys)


def test_sweep_value_that_is_not_a_number_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sweep", "honest_protocol_a", "--param", "clock.t0", "--values", "0.001,abc", "--out", str(out)])
    assert rc == 2
    assert _one_error_line(capsys) == "error: --values: 'abc' is not a number"
    assert not out.exists()


@pytest.mark.parametrize(
    "values, runs",
    [(["--values", "-0.001,0.001"], 2), (["--values", "-1e-3"], 1), (["--values=-0.001,0.001"], 2)],
)
def test_sweep_values_may_start_with_a_negative_number(tmp_path, capsys, values, runs):
    args = ["sweep", "honest_protocol_b", "--param", "clock.t0", *values, "--out", str(tmp_path)]
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    names = [f"honest_protocol_b.clock_t0={v!r}.run{i}.report.json" for i, v in enumerate((-0.001, 0.001))]
    assert sorted(p.name for p in tmp_path.glob("*.report.json")) == names[:runs]


def test_sweep_to_a_record_with_no_samples_exits_2(tmp_path, capsys):
    args = ["sweep", "honest_protocol_c", "--param", "line.bep_duration", "--values"]
    assert main(args + ["1e-6", "--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys).startswith("error: line.bep_duration: must span at least one sample")
    assert not list(tmp_path.glob("*.report.json"))
    # one sample, 1 / 200 kHz, is enough
    assert main(args + ["5e-6", "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.report.json"))) == 1


def test_run_and_sweep_write_the_event_log_each_report_digests(tmp_path, capsys):
    assert main(["run", "honest_protocol_c", "--out", str(tmp_path)]) == 0
    args = ["sweep", "honest_protocol_b", "--param", "clock.t0", "--values", "0.001,0.002"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    reports = sorted(tmp_path.glob("*.report.json"))
    assert len(reports) == 3
    for path in reports:
        log = path.with_name(path.name.replace(".report.json", ".events.log")).read_bytes()
        assert log and hashlib.sha256(log).hexdigest() == json.loads(path.read_text())["event_log_digest"]


def test_run_of_a_directory_exits_2(tmp_path, capsys):
    rc = main(["run", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    line = _one_error_line(capsys)
    assert line.startswith(f"error: config: cannot read {str(tmp_path)!r} (")


def test_run_of_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"seed": 1, "note": "café"}'.encode("latin-1"))
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config: {str(path)!r} is not UTF-8" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "series, message",
    [
        ({"x": [1, 2]}, "series 'x': row 0 is 1, not an [x, y] pair of numbers"),
        ({"x": [[1, 2], [3]]}, "series 'x': row 1 is [3], not an [x, y] pair"),
        ({"x": [[1, 2, 3]]}, "series 'x': row 0 is [1, 2, 3], not an [x, y] pair"),
        ({"x": [[1, "2"]]}, "series 'x': row 0 is [1, '2'], not an [x, y] pair"),
        ({"x": [[None, 2]]}, "series 'x': row 0 is [None, 2], not an [x, y] pair"),
        ({"x": [[True, 2]]}, "series 'x': row 0 is [True, 2], not an [x, y] pair"),
        ({"x": 5}, "series 'x': not a list of [x, y] rows"),
        ([["x", 1]], "report: series: must be dict"),
    ],
    ids=["not_a_list", "short", "long", "string", "null", "bool", "rows_not_a_list", "series_not_a_dict"],
)
def test_plot_of_a_series_that_is_not_xy_pairs_exits_2(tmp_path, capsys, series, message):
    path = tmp_path / "odd.report.json"
    path.write_text(json.dumps({**REPORT_BODY, "series": series}))
    rc = main(["plot", str(path), "--series", "x"])
    assert rc == 2
    assert message in _one_error_line(capsys)


def test_plot_of_integer_rows_prints_them(tmp_path, capsys):
    path = tmp_path / "ints.report.json"
    path.write_text(json.dumps({**REPORT_BODY, "series": {"x": [[1, 2], [3.5, -4]]}}))
    assert main(["plot", str(path), "--series", "x"]) == 0
    assert capsys.readouterr().out == "1 2\n3.5 -4\n"


@pytest.mark.parametrize(
    "name, edits, message",
    [
        ("honest_protocol_a", {"line.R_H": 1e300}, "error: line.analytic_levels: not finite"),
        ("honest_protocol_a", {"line.R_L": 1e-300, "line.R_wire": 1e-302}, "error: line.analytic_levels: not finite"),
        ("honest_protocol_b", {"key_bits": 2**62}, "error: key_bits: must be <= 1073741824"),
        (
            "honest_protocol_c",
            {"line.bep_duration": 1e6},
            "error: line.bep_duration: a record and its noise guard take 2e+11 samples, more than the 16777216",
        ),
        # finite levels, but the run's sums of squared samples overflow
        ("honest_combined", {"line.noise_scale": 1e300}, "error: line.noise_scale: samples that square to inf"),
    ],
    ids=["levels_overflow", "levels_underflow", "key_bits", "record_samples", "sample_squares"],
)
def test_run_of_a_config_too_large_to_simulate_exits_2(tmp_path, capsys, name, edits, message):
    doc = load_bundled(name).canonical_dict()
    for path, value in edits.items():
        *sections, key = path.split(".")
        target = doc
        for section in sections:
            target = target[section]
        target[key] = value
    config = tmp_path / "big.json"
    config.write_text(json.dumps(doc))
    rc = main(["run", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _one_error_line(capsys).startswith(message)
    assert not (tmp_path / "out").exists()


def _forbid_work(monkeypatch):
    """Make running a scenario or a sweep fail the test: an unusable --out
    must be reported before any work is done."""

    def never(*_args, **_kwargs):
        raise AssertionError("the work ran before the report directory was made")

    monkeypatch.setattr(cli, "run_scenario", never)
    monkeypatch.setattr(cli, "sweep", never)


@pytest.mark.parametrize("where", ["file", "under_a_file", "env_file"])
def test_run_into_an_out_path_that_is_not_a_directory_exits_2(tmp_path, capsys, monkeypatch, where):
    _forbid_work(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    out = taken / "sub" if where == "under_a_file" else taken
    args = ["run", "honest_protocol_b"]
    if where == "env_file":
        monkeypatch.setenv("KLJNSYNC_OUT", str(out))
    else:
        args += ["--out", str(out)]
    assert main(args) == 2
    assert _one_error_line(capsys).startswith(f"error: report directory: cannot create {str(out)!r} (")
    assert taken.read_text() == "not a directory"


def test_sweep_into_an_out_path_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    _forbid_work(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    args = ["sweep", "honest_protocol_b", "--param", "clock.t0", "--values", "0.001", "--out", str(taken)]
    assert main(args) == 2
    assert _one_error_line(capsys).startswith(f"error: report directory: cannot create {str(taken)!r} (")


def test_run_whose_report_cannot_be_written_exits_2(tmp_path, capsys):
    blocked = tmp_path / "honest_protocol_b.report.json"
    blocked.mkdir()  # a directory where the report file goes
    assert main(["run", "honest_protocol_b", "--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys).startswith(f"error: report: cannot write {str(blocked)!r} (")
