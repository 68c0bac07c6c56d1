import json

from kljnsync.cli import main


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
