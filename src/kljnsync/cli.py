"""Command-line interface.

Verbs:
  run <config>       execute a scenario (path to a JSON config, or the name
                     of a bundled one) and write its report and event log
  sweep <config>     repeat a scenario across values of one numeric field
  plot <report>      emit a two-column series from a report for plotting
  verify             run the full acceptance suite

Reports land in $KLJNSYNC_OUT (default ./out), each <name>.report.json
beside its <name>.events.log. Exit status is 0 only when everything
executed passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .acceptance import run_all
from .errors import ConfigError, KljnError
from .harness import (
    RunReport,
    ScenarioConfig,
    bundled_scenario_names,
    emit_plot_data,
    load_bundled,
    run_scenario,
    sweep,
)


def _load_config(ref: str) -> tuple[str, ScenarioConfig]:
    path = Path(ref)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise KljnError(f"config: cannot read {ref!r} ({exc.strerror})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config: {ref!r} is not UTF-8 ({exc.reason} at byte {exc.start})") from None
        return path.stem, ScenarioConfig.from_json(text)
    if ref in bundled_scenario_names():
        return ref, load_bundled(ref)
    raise KljnError(
        f"no config file or bundled scenario named {ref!r} "
        f"(bundled: {', '.join(bundled_scenario_names())})"
    )


def _out_dir(override: str | None) -> Path:
    out = Path(override or os.environ.get("KLJNSYNC_OUT", "./out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise KljnError(f"report directory: cannot create {str(out)!r} ({exc.strerror})") from None
    return out


def _write(out: Path, stem: str, report: RunReport) -> Path:
    """Write <stem>.report.json and, beside it, <stem>.events.log, the log
    whose sha256 the report carries."""
    path = out / f"{stem}.report.json"
    try:
        path.write_text(report.canonical_json())
        (out / f"{stem}.events.log").write_bytes(report.event_log.encode())
    except OSError as exc:
        raise KljnError(f"report: cannot write {exc.filename!r} ({exc.strerror})") from None
    return path


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise KljnError(f"--values: {text!r} is not a number") from None


def _cmd_run(args) -> int:
    name, config = _load_config(args.config)
    out = _out_dir(args.out)
    report = run_scenario(config)
    path = _write(out, name, report)
    print(report.summary())
    print(f"report written to {path}, event log beside it")
    return 0


def _cmd_sweep(args) -> int:
    name, config = _load_config(args.config)
    values = [_number(v) for v in args.values.split(",")]
    out = _out_dir(args.out)
    reports = sweep(config, args.param, values, seed_policy=args.seed_policy)
    header = f"{args.param:>24}  {'t0_est':>14}  {'tau_est':>14}  {'residual':>12}  flag"
    print(header)
    for i, (value, report) in enumerate(zip(values, reports)):
        # the exact value and the run's position: repeated values get their own files
        _write(out, f"{name}.{args.param.replace('.', '_')}={value!r}.run{i}", report)
        res = report.result
        fmt = lambda x: "-" if x is None else f"{x:.6e}"
        print(
            f"{value!r:>24}  {fmt(res['t0_est']):>14}  {fmt(res['tau_est']):>14}  "
            f"{fmt(res['residual']):>12}  {res['attack_flag']}"
        )
    print(f"{len(reports)} reports written to {out}, each with its event log")
    return 0


def _cmd_plot(args) -> int:
    try:
        data = Path(args.report).read_bytes()
    except OSError as exc:
        raise KljnError(f"report: cannot read {args.report!r} ({exc.strerror})") from None
    report = RunReport.from_json(data)
    sys.stdout.write(emit_plot_data(report, args.series))
    return 0


def _cmd_verify(args) -> int:
    ok = run_all(only=args.criterion)
    print("acceptance suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kljnsync", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("config", help="config file path or bundled scenario name")
    p_run.add_argument("--out", help="report directory (default $KLJNSYNC_OUT or ./out)")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted config path, e.g. channel.tau")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers, such as -0.01,0.01")
    p_sweep.add_argument("--seed-policy", choices=("fixed", "per-value"), default="fixed")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="emit a report series as two-column text")
    p_plot.add_argument("report")
    p_plot.add_argument("--series", required=True)
    p_plot.set_defaults(fn=_cmd_plot)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--criterion", type=int, help="run a single numbered criterion")
    p_verify.set_defaults(fn=_cmd_verify)

    argv = list(sys.argv[1:] if argv is None else argv)
    if "--values" in argv[:-1]:
        # argparse reads a value such as -0.01,0.01 or -1e-3 as an option
        # unless it is glued on with '='
        i = argv.index("--values")
        argv[i : i + 2] = [f"--values={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KljnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
