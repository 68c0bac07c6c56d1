"""Scenario configuration files, batch execution, and reporting.

A scenario config is a JSON document that, together with its seed, fully
determines a run. Validation fails closed: unknown keys anywhere are
errors, because a silently ignored key in an attack scenario would test
the wrong thing. Reports embed the config that produced them, carry the
plot-ready series, and serialize canonically so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from importlib import resources

import numpy as np

from .adversaries import Attack, LineMod, install
from .auth import MAX_KEY_BITS
from .channel import format_event_log
from .config import ChannelConfig, ClockConfig, ProtocolConfig, check_fields, derived, read, to_doc
from .errors import ConfigError, ProtocolIncompleteError, UnknownParameterError, UnknownSeriesError
from .line import LineConfig, analytic_levels, classification_thresholds
from .noise import NoiseTrace, empirical_autocorrelation
from .protocols import (
    ProtocolKind,
    SyncResult,
    combined_check,
    protocol_a,
    protocol_b,
    protocol_c,
)
from .scenario import Scenario, make_scenario


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario config document (see the config module)."""

    seed: int
    line: LineConfig
    protocol: ProtocolConfig
    clock: ClockConfig = ClockConfig()
    channel: ChannelConfig = ChannelConfig()
    attacks: tuple[Attack, ...] = ()
    key_bits: int = 8192
    # the document from_dict read, kept for callers that edit a copy of it
    # and read that again; None for a config built in code. Reports and
    # sweeps never read it: they work from the fields alone.
    raw: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self)
        problems = [f"{name}: must be >= 0" for name in ("seed", "key_bits") if getattr(self, name) < 0]
        if self.key_bits > MAX_KEY_BITS:
            problems.append(f"key_bits: must be <= {MAX_KEY_BITS}")
        # a line change scheduled for a BEP the protocol never records would
        # never fire, and the run would report clean
        problems += [
            f"attacks.{n}.at_bep: must be one of protocol.k_range {list(self.protocol.k_range)}"
            for n, attack in enumerate(self.attacks)
            if isinstance(attack, LineMod) and attack.at_bep is not None
            and attack.at_bep not in self.protocol.k_range
        ]
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        cfg = read(cls, doc)
        object.__setattr__(cfg, "raw", doc)
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from None

    def line_config(self) -> LineConfig:
        return self.line

    def canonical_dict(self) -> dict:
        """The config with every default made explicit, attacks given by
        their kind and the fields that differ from their defaults; reading
        it back gives an equal config."""
        return to_doc(self)

    def build_scenario(self) -> Scenario:
        scenario = make_scenario(
            self.line,
            seed=self.seed,
            protocol=self.protocol,
            clock=self.clock,
            channel=self.channel,
            key_bits=self.key_bits,
        )
        if self.attacks:
            install(self.attacks, scenario)
        return scenario


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


# one encoder for every report; without indent json uses its C encoder
# no circular check: run_scenario builds each report body as a fresh tree
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


@dataclass
class RunReport:
    config: dict
    result: dict
    event_log_digest: str
    msq_levels: dict
    key_bits_consumed: int
    series: dict = field(default_factory=dict)
    # informational, and not part of the canonical form: the run's time and
    # the scheduler log that event_log_digest is the sha256 of
    wall_seconds: float = 0.0
    event_log: str = field(default="", repr=False)

    def canonical_json(self) -> str:
        """The report as one line of JSON with sorted keys and no spaces,
        plus a newline: identical runs give identical bytes. Pretty-print
        one with ``python -m json.tool``."""
        body = {
            "config": self.config,
            "result": self.result,
            "event_log_digest": self.event_log_digest,
            "msq_levels": self.msq_levels,
            "key_bits_consumed": self.key_bits_consumed,
            "series": self.series,
        }
        return _CANONICAL.encode(body) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunReport":
        try:
            body = json.loads(text)
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise ConfigError(f"report: invalid JSON ({exc})") from None
        if not isinstance(body, dict):
            raise ConfigError("report: not a JSON object")
        required = ("config", "result", "event_log_digest", "msq_levels", "key_bits_consumed")
        missing = [f"report: missing key {key!r}" for key in required if key not in body]
        if missing:
            raise ConfigError(missing)
        if not isinstance(body.get("series", {}), dict):
            raise ConfigError("report: 'series' is not an object")
        return cls(
            config=body["config"],
            result=body["result"],
            event_log_digest=body["event_log_digest"],
            msq_levels=body["msq_levels"],
            key_bits_consumed=body["key_bits_consumed"],
            series=body.get("series", {}),
        )

    def summary(self) -> str:
        res = self.result
        lines = [
            f"protocol {res['protocol']}: "
            + ("ATTACK FLAGGED" if res["attack_flag"] else "clean"),
        ]
        if res.get("detail"):
            lines.append(f"  detail: {res['detail']}")
        for key in ("t0_est", "tau_est", "residual"):
            if res.get(key) is not None:
                lines.append(f"  {key} = {res[key]:.9g}")
        lines.append(f"  auth_ok = {res['auth_ok']}")
        lines.append(f"  key bits consumed = {self.key_bits_consumed}")
        lines.append(f"  wall time = {self.wall_seconds:.3f} s")
        return "\n".join(lines)


def _result_dict(result: SyncResult) -> dict:
    return {
        "protocol": result.protocol.value,
        "t0_est": None if result.t0_est is None else float(result.t0_est),
        "tau_est": None if result.tau_est is None else float(result.tau_est),
        "residual": None if result.residual is None else float(result.residual),
        "auth_ok": bool(result.auth_ok),
        "attack_flag": bool(result.attack_flag),
        "detail": result.detail,
    }


def _series_from(scenario: Scenario, msq_levels: dict) -> dict:
    series = {}
    diag = scenario.diagnostics
    if "residual_curve" in diag:
        shifts, residuals = diag["residual_curve"]
        series["residual_curve"] = np.column_stack((shifts, residuals)).tolist()
    if "first_bep_voltage" in diag:
        trace: NoiseTrace = diag["first_bep_voltage"]
        fs = trace.sample_rate
        max_lag = min(len(trace) - 1, int(round(2.0 * fs / scenario.line.bandwidth_B)))
        ac = empirical_autocorrelation(trace, max_lag)
        series["autocorrelation"] = ac.tolist()
    if "bep_msq" in diag and diag["bep_msq"]:
        values = np.asarray(diag["bep_msq"])
        top = msq_levels["HH"] * 1.5
        counts, edges = np.histogram(values, bins=24, range=(0.0, top))
        centers = 0.5 * (edges[:-1] + edges[1:])
        series["msq_histogram"] = [[float(c), int(n)] for c, n in zip(centers, counts)]
    return series


def _msq_levels(line: LineConfig) -> dict:
    levels = analytic_levels(line)
    low, high = classification_thresholds(line)
    named = {state.value: float(level) for state, level in levels.items()}
    return dict(named, threshold_low=low, threshold_high=high)


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one configured run and package the deterministic report."""
    start = time.perf_counter()
    scenario = config.build_scenario()
    runners = {"A": protocol_a, "B": protocol_b, "C": protocol_c, "Combined": combined_check}
    try:
        result = runners[config.protocol.kind](scenario)
    except ProtocolIncompleteError as exc:
        # protocol A has no detection: a stalled run is a failure, not a flag
        result = SyncResult(
            ProtocolKind(config.protocol.kind), None, None, None,
            auth_ok=True, attack_flag=False, detail=f"incomplete: {exc}",
        )

    msq_levels = dict(derived(scenario.line, "_msq_levels", _msq_levels))
    event_log = format_event_log(scenario.scheduler.log)
    report = RunReport(
        config=config.canonical_dict(),
        result=_result_dict(result),
        event_log_digest=hashlib.sha256(event_log.encode()).hexdigest(),
        msq_levels=msq_levels,
        key_bits_consumed=int(scenario.ledger.consumed),
        series=_series_from(scenario, msq_levels),
        wall_seconds=time.perf_counter() - start,
        event_log=event_log,
    )
    return report


# ---------------------------------------------------------------------------
# sweeps and plot emission
# ---------------------------------------------------------------------------


def _lookup(config: ScenarioConfig, parameter: str):
    """The value at a dotted path of init fields and tuple items."""
    node = config
    for part in parameter.split("."):
        if isinstance(node, tuple) and part.isdecimal() and int(part) < len(node):
            node = node[int(part)]
        elif is_dataclass(node) and part in {f.name for f in fields(node) if f.init}:
            node = getattr(node, part)
        else:
            raise UnknownParameterError(f"{parameter}: no field {part!r}")
    return node


def _derive(obj, parts: list[str], value, changes: dict):
    """obj with the field at the dotted path parts set to value and its own
    fields in changes set (they win over the path), rebuilt with
    dataclasses.replace at every level so each section on the path is
    validated again; a problem is reported under its full path."""
    if not parts:
        return value
    head, rest = parts[0], parts[1:]
    try:
        child = _derive(obj[int(head)] if isinstance(obj, tuple) else getattr(obj, head), rest, value, {})
    except ConfigError as exc:
        raise ConfigError([f"{head}.{p}" for p in exc.problems]) from None
    if isinstance(obj, tuple):
        n = int(head)
        return obj[:n] + (child,) + obj[n + 1 :]
    return replace(obj, **{head: child, **changes})


def sweep(
    config: ScenarioConfig,
    parameter: str,
    values: list,
    seed_policy: str = "fixed",
) -> list[RunReport]:
    """One run per value of a numeric config field (dotted path).

    The sweep edits the config the report shows: each value's config is the
    base config with that one field replaced, and the sections on the path
    are rebuilt and validated again, so a bad value raises the ConfigError
    reading the edited report config would raise. Fields a section derived
    from others when it was built keep their base values: sweeping line.R_L
    or line.bandwidth_B leaves R_wire, tau_f, bep_duration and sample_rate
    as they were. seed_policy 'fixed' reuses the config seed; 'per-value'
    offsets it by the value's position so runs draw independent noise.
    """
    if seed_policy not in ("fixed", "per-value"):
        raise ConfigError("seed_policy: must be 'fixed' or 'per-value'")
    current = _lookup(config, parameter)
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise UnknownParameterError(f"{parameter}: not a numeric field")
    parts = parameter.split(".")

    reports = []
    for i, value in enumerate(values):
        # the CLI parses every value as a float; an integer field keeps integers
        if type(current) is int and float(value).is_integer():
            value = int(value)
        changes = {}
        if seed_policy == "per-value":  # the swept seed or the config's, plus i
            changes["seed"] = (value if parameter == "seed" else config.seed) + i
        reports.append(run_scenario(_derive(config, parts, value, changes)))
    return reports


def emit_plot_data(report: RunReport, series: str) -> str:
    """Two-column decimal text for external plotting. Raises ConfigError
    unless every row of the series is an [x, y] pair of numbers."""
    if series not in report.series:
        raise UnknownSeriesError(
            f"series {series!r} not in report (have: {sorted(report.series) or 'none'})"
        )
    rows = report.series[series]
    if not isinstance(rows, list):
        raise ConfigError(f"series {series!r}: not a list of [x, y] rows")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 2 and all(map(_is_number, row))):
            raise ConfigError(
                f"series {series!r}: row {i} is {reprlib.repr(row)}, not an [x, y] pair of numbers"
            )
    return "\n".join(f"{x:.12g} {y:.12g}" for x, y in rows) + "\n"


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------


def bundled_scenario_names() -> list[str]:
    root = resources.files("kljnsync") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> ScenarioConfig:
    root = resources.files("kljnsync") / "scenarios"
    path = root / f"{name}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"config: no bundled scenario {name!r} (have: {', '.join(bundled_scenario_names())})"
        ) from None
    return ScenarioConfig.from_json(text)
