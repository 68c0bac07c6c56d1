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
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .adversaries import Attack, LineMod, install
from .channel import format_event_log
from .config import ChannelConfig, ClockConfig, ProtocolConfig, check_fields, read, to_doc
from .errors import ConfigError, ProtocolIncompleteError, UnknownParameterError, UnknownSeriesError
from .line import BitState, LineConfig, analytic_levels, classification_thresholds
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
    # the document this was read from; from_dict sets it
    raw: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self)
        problems = [f"{name}: must be >= 0" for name in ("seed", "key_bits") if getattr(self, name) < 0]
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
        """The config with every default made explicit; attacks stay as
        written."""
        doc = to_doc(self)
        doc["attacks"] = self.raw.get("attacks", [])
        return doc

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


@dataclass
class RunReport:
    config: dict
    result: dict
    event_log_digest: str
    msq_levels: dict
    key_bits_consumed: int
    series: dict = field(default_factory=dict)
    wall_seconds: float = 0.0  # informational; not part of the canonical form

    def canonical_json(self) -> str:
        body = {
            "config": self.config,
            "result": self.result,
            "event_log_digest": self.event_log_digest,
            "msq_levels": self.msq_levels,
            "key_bits_consumed": self.key_bits_consumed,
            "series": self.series,
        }
        return json.dumps(body, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        body = json.loads(text)
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


def _series_from(scenario: Scenario) -> dict:
    series = {}
    diag = scenario.diagnostics
    if "residual_curve" in diag:
        shifts, residuals = diag["residual_curve"]
        series["residual_curve"] = [[float(s), float(r)] for s, r in zip(shifts, residuals)]
    if "first_bep_voltage" in diag:
        trace: NoiseTrace = diag["first_bep_voltage"]
        fs = trace.sample_rate
        max_lag = min(len(trace) - 1, int(round(2.0 * fs / scenario.line.bandwidth_B)))
        ac = empirical_autocorrelation(trace, max_lag)
        series["autocorrelation"] = [[float(l), float(v)] for l, v in ac]
    if "bep_msq" in diag and diag["bep_msq"]:
        values = np.asarray(diag["bep_msq"])
        top = float(analytic_levels(scenario.line)[BitState.HH]) * 1.5
        counts, edges = np.histogram(values, bins=24, range=(0.0, top))
        centers = 0.5 * (edges[:-1] + edges[1:])
        series["msq_histogram"] = [[float(c), int(n)] for c, n in zip(centers, counts)]
    return series


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one configured run and package the deterministic report."""
    start = time.perf_counter()
    scenario = config.build_scenario()
    runner = {
        ProtocolKind.A: protocol_a,
        ProtocolKind.B: protocol_b,
        ProtocolKind.C: protocol_c,
        ProtocolKind.COMBINED: combined_check,
    }[ProtocolKind(config.protocol.kind)]
    try:
        result = runner(scenario)
    except ProtocolIncompleteError as exc:
        # protocol A has no detection: a stalled run is a failure, not a flag
        result = SyncResult(
            ProtocolKind(config.protocol.kind), None, None, None,
            auth_ok=True, attack_flag=False, detail=f"incomplete: {exc}",
        )

    levels = analytic_levels(scenario.line)
    low, high = classification_thresholds(scenario.line)
    report = RunReport(
        config=config.canonical_dict(),
        result=_result_dict(result),
        event_log_digest=hashlib.sha256(
            format_event_log(scenario.scheduler.log).encode()
        ).hexdigest(),
        msq_levels={
            "LL": float(levels[BitState.LL]),
            "MIXED": float(levels[BitState.MIXED]),
            "HH": float(levels[BitState.HH]),
            "threshold_low": float(low),
            "threshold_high": float(high),
        },
        key_bits_consumed=int(scenario.ledger.consumed),
        series=_series_from(scenario),
        wall_seconds=time.perf_counter() - start,
    )
    return report


# ---------------------------------------------------------------------------
# sweeps and plot emission
# ---------------------------------------------------------------------------


def _resolve_path(doc: dict, path: str):
    """Walk a dotted path through dicts and lists; returns (container, key)."""
    parts = path.split(".")
    node = doc
    for part in parts[:-1]:
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                raise UnknownParameterError(f"{path}: no element {part!r}") from None
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise UnknownParameterError(f"{path}: no section {part!r}")
    last = parts[-1]
    if isinstance(node, list):
        try:
            idx = int(last)
            _ = node[idx]
        except (ValueError, IndexError):
            raise UnknownParameterError(f"{path}: no element {last!r}") from None
        return node, idx
    if not isinstance(node, dict) or last not in node:
        raise UnknownParameterError(f"{path}: no field {last!r}")
    return node, last


def sweep(
    config: ScenarioConfig,
    parameter: str,
    values: list,
    seed_policy: str = "fixed",
) -> list[RunReport]:
    """One run per value of a numeric config field (dotted path).

    seed_policy 'fixed' reuses the config seed; 'per-value' offsets it by
    the value's position so runs draw independent noise.
    """
    if seed_policy not in ("fixed", "per-value"):
        raise ConfigError("seed_policy: must be 'fixed' or 'per-value'")
    base = config.canonical_dict()
    container, key = _resolve_path(base, parameter)
    if not isinstance(container[key], (int, float)) or isinstance(container[key], bool):
        raise UnknownParameterError(f"{parameter}: not a numeric field")

    reports = []
    for i, value in enumerate(values):
        doc = json.loads(json.dumps(base))  # deep copy via the same codec
        node, k = _resolve_path(doc, parameter)
        # the CLI parses every value as a float; an integer field keeps integers
        node[k] = int(value) if type(node[k]) is int and float(value).is_integer() else value
        if seed_policy == "per-value":
            doc["seed"] = doc["seed"] + i
        reports.append(run_scenario(ScenarioConfig.from_dict(doc)))
    return reports


def emit_plot_data(report: RunReport, series: str) -> str:
    """Two-column decimal text for external plotting."""
    if series not in report.series:
        raise UnknownSeriesError(
            f"series {series!r} not in report (have: {sorted(report.series) or 'none'})"
        )
    rows = report.series[series]
    return "\n".join(f"{x:.12g} {y:.12g}" for x, y in rows) + "\n"


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
