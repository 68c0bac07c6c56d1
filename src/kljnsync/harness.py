"""Scenario configuration files, batch execution, and reporting.

A scenario config is a JSON document that, together with its seed, fully
determines a run. Validation fails closed: unknown keys anywhere are
errors, because a silently ignored key in an attack scenario would test
the wrong thing. Reports keep the validated config that produced them and
embed its document, carry the plot-ready series, and serialize canonically
so identical runs produce byte-identical files. A report's ``config`` dict
is built on first read, and a report read back from JSON must carry a
config that validates.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import reprlib
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Annotated

import numpy as np

from .adversaries import Attack, LineMod, Substitute, install
from .auth import MAX_KEY_BITS, TAG_BITS
from .channel import format_event_log
from .config import CANONICAL, CLOCK_ULP_QUANTA, MAX_SECONDS, ChannelConfig, ClockConfig, ProtocolConfig, Section
from .config import ge, init_fields, le, read
from .errors import ConfigError, UnknownParameterError, UnknownSeriesError
from .line import LineConfig
from .noise import empirical_autocorrelation
from .protocols import PROBE_WAIT_QUANTA, SyncResult, bep_start_time, combined_check, protocol_a, protocol_b, protocol_c
from .scenario import Scenario, make_scenario


@dataclass(frozen=True)
class ScenarioConfig(Section):
    """A validated scenario config document (see the config module)."""

    seed: Annotated[int, ge(0)]
    line: LineConfig
    protocol: ProtocolConfig
    clock: ClockConfig = ClockConfig()
    channel: ChannelConfig = ChannelConfig()
    attacks: tuple[Attack, ...] = ()
    key_bits: Annotated[int, ge(0), le(MAX_KEY_BITS)] = 8192
    # the document from_dict read, kept for callers that edit a copy of it
    # and read that again; None for a config built in code. Reports and
    # sweeps never read it: they work from the fields alone.
    raw: dict = field(default=None, init=False, repr=False, compare=False)

    def problems(self) -> list[str]:
        problems = []
        # the line changes, as (n, quantity, instant); a wire change where
        # no BEP is recorded, or one scheduled for a BEP the protocol never
        # records, would never fire, and the run would report clean
        changes = []
        kind = self.protocol.kind
        for n, attack in enumerate(self.attacks):
            if not isinstance(attack, LineMod):
                continue
            if attack.tau is None and kind not in ("C", "Combined"):
                problems.append(
                    f"attacks.{n}: a wire change needs protocol C or Combined; protocol {kind} records none"
                )
            if attack.at_bep is None or attack.at_bep in self.protocol.k_range:
                changes.append((n, "R_wire" if attack.tau is None else "tau", attack.instant(self)))
            else:
                problems.append(f"attacks.{n}.at_bep: must be one of protocol.k_range {list(self.protocol.k_range)}")
        # two changes of one quantity at one instant leave no one value after it
        first = {}  # (quantity, instant) -> the first change of it
        for n, quantity, at in changes:
            if (m := first.setdefault((quantity, at), n)) != n:
                problems.append(f"attacks.{n}: changes {quantity} at t = {at!r} s, as attacks.{m} does")
        # a substitution the protocol never gives a chance to act would run
        # as the honest run does, byte for byte, and report clean
        for n, attack in enumerate(self.attacks):
            if not isinstance(attack, Substitute):
                continue
            if attack.target == "file" and kind not in ("C", "Combined"):
                problems.append(f"attacks.{n}: a record needs protocol C or Combined; protocol {kind} sends none")
            elif attack.target != "file" and kind == "C":
                problems.append(f"attacks.{n}: a message needs protocol A, B or Combined; protocol C sends none")
            elif attack.fabricate_tag and not attack.delta and kind == "A":
                problems.append(
                    f"attacks.{n}: fabricate_tag with no delta needs protocol B or Combined; "
                    "protocol A's messages carry no tag"
                )
        if self.protocol.kind in ("C", "Combined"):
            # the alignment search needs a loop current and divides by the
            # wire resistance: without either an honest run could not pass
            problems += [
                f"line.{name}: must be > 0 for protocol {self.protocol.kind}"
                for name in ("noise_scale", "R_wire")
                if getattr(self.line, name) == 0
            ]
            # each record holds floor(bep_duration * sample_rate) samples
            if self.line.bep_duration * self.line.sample_rate < 1:
                problems.append(
                    f"line.bep_duration: must span at least one sample (1 / line.sample_rate = "
                    f"{1 / self.line.sample_rate!r} s) for protocol {self.protocol.kind}"
                )
            # a wire change lands on the samples at or after its instant, so
            # one after the last sample of the last record would never be seen
            n = math.floor(self.line.bep_duration * self.line.sample_rate)
            last = bep_start_time(self, max(self.protocol.k_range)) + (n - 1) / self.line.sample_rate
            problems += [
                f"attacks.{i}: the wire changes at t = {at!r} s, after the last recorded sample "
                f"(t = {last!r} s), so no record would see it"
                for i, quantity, at in changes
                if quantity == "R_wire" and at > last
            ]
            # the search divides the terminal voltages' difference by R_wire,
            # so their round-off leaves an honest residual of up to
            # (eps * R_H / R_wire)^2, R_H being the larger terminal
            # resistance; keep it 100x under the threshold
            r_wire_min = math.ulp(1.0) * self.line.R_H / math.sqrt(self.protocol.residual_threshold / 100)
            if 0 < self.line.R_wire < r_wire_min:
                problems.append(
                    f"line.R_wire: must be >= {r_wire_min!r} for protocol {self.protocol.kind}, "
                    "where round-off in the terminal voltages stays under protocol.residual_threshold / 100"
                )
            # a run's float timeline must resolve its clock quanta: its last
            # BEP ends, file exchange included, where the next one would
            # start, and the combined check's probe starts up to
            # PROBE_WAIT_QUANTA + 2 quanta later
            latest = bep_start_time(self, max(self.protocol.k_range) + 1)
            if self.protocol.kind == "Combined":
                latest += (PROBE_WAIT_QUANTA + 2) * self.clock.quantum
            if not latest <= MAX_SECONDS:
                problems.append(
                    f"protocol.k_range: the run would reach t = {latest:.3g} s, past {MAX_SECONDS:g} s; "
                    "lower the BEP indices, line.bep_duration, channel.tau or (for Combined) clock.quantization"
                )
        if kind != "C":
            # the two-way exchange (for Combined, the probe after the last
            # BEP and after every line change) reads the clocks up to
            # |t0| + 2 tau + processing_delay after it starts; where floats
            # step by more than a fraction of the clock quantum, an honest
            # run's estimates drift by quanta
            start = max([latest, *(at for _, _, at in changes)]) if kind == "Combined" else 0.0
            reading = start + abs(self.clock.t0)
            reading += 2 * self.channel.tau + self.channel.processing_delay
            if (step := math.ulp(reading)) > CLOCK_ULP_QUANTA * self.clock.quantum:
                problems.append(
                    f"clock.quantization: the clocks read up to t = {reading:.3g} s, where floats are {step:.3g} s "
                    f"apart, more than {CLOCK_ULP_QUANTA:g} of the {self.clock.quantum:g} s quantum; raise it, or "
                    "lower clock.t0, the channel's delays or (for Combined) the BEP indices or a line change's instant"
                )
        # each tag spends TAG_BITS of key: B tags its three messages, C the
        # two records of each BEP, Combined both (an attack adds no tag, as
        # Eve holds no key); a ledger they would overrun would end the run
        # part way with KeyExhaustedError
        records = kind in ("C", "Combined")
        tags = (3 if kind in ("B", "Combined") else 0) + (2 * len(self.protocol.k_range) if records else 0)
        if (spend := tags * TAG_BITS) > self.key_bits:
            fewer = " or list fewer BEPs in protocol.k_range" if records else ""
            problems.append(
                f"key_bits: protocol {kind} spends up to {spend} bits ({TAG_BITS} per tag), "
                f"{self.key_bits} given; raise key_bits{fewer}"
            )
        return problems

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
        their kind and the fields that differ from their defaults, keys in
        sorted order; reading it back gives an equal config. It is parsed
        afresh from the kept text (see Section.canonical_text) on every
        call, so a caller may change it."""
        return json.loads(self.canonical_text())

    def build_scenario(self) -> Scenario:
        scenario = make_scenario(self)
        if self.attacks:
            install(self.attacks, scenario)
        return scenario


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """One run's outcome and the validated config it ran.

    ``config`` is that config's document, as ``canonical_dict`` gives it,
    and ``msq_levels`` the levels of its line. Each is built on first read
    and then kept: a run or sweep that never reads them never builds them,
    and a caller may change either dict without touching another report or
    the canonical form, which splices in the text the config and its line
    keep. ``from_json`` validates the config a report carries and holds
    the report's levels to those of the config's line, so a report that
    would not read as a config file, or disagrees with its own line, fails
    with ConfigError (``kljnsync plot`` exits 2).
    """

    scenario_config: ScenarioConfig
    result: dict
    event_log_digest: str
    key_bits_consumed: int
    series: dict = field(default_factory=dict)
    # informational, and not part of the canonical form: the run's time,
    # Bob's remaining clock error (None for a report read back from JSON)
    # and the scheduler log that event_log_digest is the sha256 of
    wall_seconds: float = 0.0
    clock_error: float | None = None
    event_log: str = field(default="", repr=False)

    @functools.cached_property
    def config(self) -> dict:
        return self.scenario_config.canonical_dict()

    @functools.cached_property
    def msq_levels(self) -> dict:
        return dict(self.scenario_config.line.msq_levels)

    def canonical_json(self) -> str:
        """The report as one line of JSON with sorted keys and no spaces,
        plus a newline: identical runs give identical bytes. Pretty-print
        one with ``python -m json.tool``.

        The config and the levels are the texts the config keeps; only the
        run's own values are encoded here. Their text is cut where "result"
        starts, to put the levels in their sorted place: before it come a
        string and an integer, in which that key cannot appear."""
        own = CANONICAL.encode(
            {
                "event_log_digest": self.event_log_digest,
                "key_bits_consumed": self.key_bits_consumed,
                "result": self.result,
                "series": self.series,
            }
        )
        cut = own.index(',"result":')
        config = self.scenario_config
        return "".join(
            (
                '{"config":', config.canonical_text(), ",", own[1:cut],
                ',"msq_levels":', config.line.msq_levels_text, own[cut:], "\n",
            )
        )

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
        if not isinstance(body["event_log_digest"], str):
            raise ConfigError("report: 'event_log_digest' is not a string")
        if type(body["key_bits_consumed"]) is not int:
            raise ConfigError("report: 'key_bits_consumed' is not an integer")
        if not isinstance(body["config"], dict):
            raise ConfigError("report: 'config' is not an object")
        try:
            config = ScenarioConfig.from_dict(body["config"])
        except ConfigError as exc:
            raise ConfigError([f"report: config.{p}" for p in exc.problems]) from None
        if body["msq_levels"] != config.line.msq_levels:
            raise ConfigError("report: 'msq_levels' are not the levels of its config's line")
        return cls(
            scenario_config=config,
            result=body["result"],
            event_log_digest=body["event_log_digest"],
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
        if self.clock_error is not None:
            lines.append(f"  clock error = {self.clock_error!r} s")
        lines.append(f"  wall time = {self.wall_seconds:.3f} s")
        return "\n".join(lines)


def _series_from(scenario: Scenario) -> dict:
    series = {}
    diag = scenario.diagnostics
    if "residual_curve" in diag:
        shifts, residuals = diag["residual_curve"]
        series["residual_curve"] = np.column_stack((shifts, residuals)).tolist()
    if "first_bep_voltage" in diag:
        trace, line = diag["first_bep_voltage"], scenario.config.line
        max_lag = min(len(trace) - 1, int(round(2.0 * line.sample_rate / line.bandwidth_B)))
        ac = empirical_autocorrelation(trace, line.sample_rate, max_lag)
        series["autocorrelation"] = ac.tolist()
    if "bep_msq" in diag and diag["bep_msq"]:
        values = np.asarray(diag["bep_msq"])
        top = scenario.config.line.msq_levels["HH"] * 1.5
        # np.histogram(values, bins=24, range=(0.0, top)) bin for bin: bins
        # open on the right but the last, values outside [0, top] dropped,
        # without its set-up cost for a handful of values
        edges = np.linspace(0.0, top, 25)
        bins = np.searchsorted(edges, values, side="right") - 1
        bins[values == top] = 23
        counts = np.bincount(bins[(bins >= 0) & (bins < 24)], minlength=24)
        centers = 0.5 * (edges[:-1] + edges[1:])
        series["msq_histogram"] = [[float(c), int(n)] for c, n in zip(centers, counts)]
    return series


def run_protocol(scenario: Scenario) -> SyncResult:
    """The scenario's configured protocol, run to its verdict. `kljnsync
    run` and the acceptance suite both dispatch a protocol kind here."""
    # looked up on each call: a module-level dict would keep the runners it
    # was built with, and perfbench's tracer, which replaces them in this
    # module by name, would time no protocols.twoway or protocols.verdict
    runners = {"A": protocol_a, "B": protocol_b, "C": protocol_c, "Combined": combined_check}
    return runners[scenario.config.protocol.kind](scenario)


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one configured run and package the deterministic report."""
    start = time.perf_counter()
    scenario = config.build_scenario()
    result = run_protocol(scenario)
    # C corrects Bob's clock itself; A and B leave the error he would keep
    # if he applied their estimate
    bob = scenario.bob_clock
    if config.protocol.kind in ("A", "B") and result.t0_est is not None:
        bob = bob.corrected(result.t0_est)

    event_log = format_event_log(scenario.scheduler.log)
    return RunReport(
        scenario_config=config,
        # the result's fields as they are, each a float, bool, str or None;
        # dataclasses.asdict gives the same dict but deep-copies every value
        # (about 14 us a run on CPython 3.11, against 0.4 us)
        result=dict(vars(result)),
        event_log_digest=hashlib.sha256(event_log.encode()).hexdigest(),
        key_bits_consumed=int(scenario.ledger.consumed),
        series=_series_from(scenario),
        wall_seconds=time.perf_counter() - start,
        clock_error=bob.offset,
        event_log=event_log,
    )


# ---------------------------------------------------------------------------
# sweeps and plot emission
# ---------------------------------------------------------------------------


def _lookup(config: ScenarioConfig, parameter: str):
    """The value at a dotted path of init fields and tuple items."""
    node = config
    for part in parameter.split("."):
        if isinstance(node, tuple) and part.isdecimal() and int(part) < len(node):
            node = node[int(part)]
        elif isinstance(node, Section) and part in init_fields(type(node)):
            node = getattr(node, part)
        else:
            raise UnknownParameterError(f"{parameter}: no field {part!r}")
    return node


def _derive(obj, parts: list[str], value, changes: dict):
    """obj with the field at the dotted path parts set to value and its own
    fields in changes set (they win over the path). Each section on the
    path is built again from its init fields, as dataclasses.replace
    would build it, and so validated again; a problem is reported under
    its full path. The sections off the path are obj's own."""
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
    kwargs = {name: getattr(obj, name) for name in init_fields(type(obj))}
    kwargs[head] = child
    kwargs.update(changes)
    return type(obj)(**kwargs)


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
