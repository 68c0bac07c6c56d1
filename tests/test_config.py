"""Scenario configs fail closed: every malformed document raises ConfigError
from ScenarioConfig.from_dict, and the CLI turns it into one error line."""

import copy
import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from kljnsync.adversaries import Attack, AsymDelay, LineMod, Substitute
from kljnsync.cli import main
from kljnsync.config import CANONICAL, ChannelConfig, ClockConfig, ProtocolConfig, Section, init_fields
from kljnsync.errors import ConfigError
from kljnsync.harness import ScenarioConfig, bundled_scenario_names, load_bundled, run_protocol, run_scenario
from kljnsync.line import LineConfig
from kljnsync.protocols import MESSAGE_FIELDS, MessageKind, SyncResult

DELETE = object()


def mutated(doc, path: str, value):
    """A deep copy of doc with the value at a dotted path replaced (or
    deleted, for DELETE)."""
    doc = copy.deepcopy(doc)
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = doc
    for part in parents:
        node = node[part]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


TINY_BANDWIDTH_LINE = {
    "R_L": 1.0, "R_H": 10.0, "bandwidth_B": 1e-315, "noise_scale": 1e-4, "sample_rate": 2e-315, "bep_duration": 1.0,
}

# (bundled scenario, dotted path, new value[, changes made before it]): one
# change each
NAMED = [
    ("honest_protocol_c", "protocol", "C"),
    ("honest_protocol_c", "line.R_L", "1"),
    ("honest_protocol_c", "line.sample_rate", "2e5"),
    ("honest_protocol_a", "clock.t0", "x"),
    ("honest_protocol_c", "line.bandwidth_B", math.nan),
    ("honest_protocol_c", "channel.tau", math.nan),
    ("honest_protocol_b", "clock.quantization", math.inf),
    ("honest_protocol_a", "seed", True),
    ("honest_protocol_c", "protocol.dt_window", 2.5),
    ("honest_protocol_c", "protocol.dt_window", True),
    ("honest_protocol_c", "protocol.k_range", [-1]),
    ("honest_protocol_c", "protocol.input", "current"),
    ("delay_attack_b", "attacks.0.leg", "sideways"),
    ("delay_attack_b", "attacks.0", {"kind": "AsymDelay"}),
    ("delay_attack_b", "attacks.0.delta", "x"),
    ("substitution_attack_b", "attacks.0.target", DELETE),
    ("substitution_attack_b", "attacks.0.target", "Bogus"),
    ("substitution_attack_b", "attacks.0.field", "t9"),
    ("substitution_attack_b", "attacks.0.field", "t1"),
    # keys a Substitute's spelling would silently ignore
    (
        "replay_attack_c",
        "attacks.0.fabricate_tag",
        True,
        {"attacks.0.drop": True, "attacks.0.sample_index": 7, "attacks.0.delta": 3.0},
    ),
    ("substitution_attack_b", "attacks.0.fabricate_tag", True, {"attacks.0.drop": True, "attacks.0.delta": 1.0}),
    ("replay_attack_c", "attacks.0.fabricate_tag", True, {"attacks.0.delta": 2.0, "attacks.0.sample_index": 5}),
    # a message substitution that changes neither the field nor the tag
    ("substitution_attack_b", "attacks.0.delta", DELETE),
    ("substitution_attack_b", "attacks.0.delta", 0),
    ("linemod_attack_c", "attacks.0.fraction", 7.0),
    ("linemod_attack_c", "attacks.0.at_bep", 5),
    # times too large for a run's float arithmetic
    ("honest_protocol_a", "clock.t0", 1e303),
    ("honest_protocol_a", "clock.t0", -1e303),
    ("honest_protocol_a", "channel.tau", 1e308),
    ("honest_protocol_a", "channel.processing_delay", 1e308),
    ("honest_protocol_b", "clock.t0", 1e303),
    ("honest_protocol_b", "clock.t0", -1e303),
    ("honest_protocol_b", "channel.tau", 1e308),
    ("honest_protocol_b", "channel.processing_delay", 1e308),
    ("honest_combined", "clock.t0", 1e303),
    ("honest_combined", "clock.t0", -1e303),
    ("honest_combined", "channel.tau", 1e308),
    ("honest_combined", "channel.processing_delay", 1e308),
    ("honest_protocol_c", "protocol.k_range", [10**400]),
    ("honest_combined", "protocol.k_range", [2**64]),
    ("delay_attack_b", "attacks.0.delta", 1e308),
    ("taumod_attack_combined", "attacks.0.tau", 1e308),
    ("taumod_attack_combined", "attacks.0.at_time", 1e308),
    # runs whose latest instant is past MAX_SECONDS, where the float timeline
    # no longer resolves the clock
    ("honest_protocol_c", "protocol.k_range", [2**50]),
    ("honest_protocol_c", "protocol.k_range", [2**40]),
    ("honest_combined", "protocol.k_range", [1000], {"line.bandwidth_B": 1e-280, "line.noise_scale": 1e276}),
    # clock steps so fine that a time divided by them overflows
    ("honest_protocol_a", "clock.quantization", 5e-324),
    ("honest_protocol_a", "clock.quantization", 1e-300, {"clock.t0": 1e9}),
    # clock readings where neighbouring floats lie more than an eighth of a
    # clock quantum apart: an honest run's estimates drift by quanta
    ("honest_combined", "clock.quantization", 1e-9, {"protocol.k_range": [50_000_000_000]}),
    ("honest_combined", "clock.quantization", 1e-9, {"protocol.k_range": [1_000_000_000]}),
    ("honest_protocol_b", "clock.quantization", 1e-12, {"clock.t0": 1e9}),
    # a repeated BEP index records the same BEP twice, so a replayed record
    # is the fresh one; a descending list runs the event log backwards
    ("replay_attack_c", "protocol.k_range", [0, 0]),
    ("honest_protocol_c", "protocol.k_range", [1, 0]),
    # integrity checks an honest run cannot pass: no loop current to align,
    # or no wire resistance for the search to divide by
    ("honest_protocol_c", "line.noise_scale", 0),
    ("honest_combined", "line.noise_scale", 0),
    ("honest_protocol_c", "line.R_wire", 0),
    # a record of floor(bep_duration * sample_rate) = 0 samples: half a
    # sample period at 200 kHz, and a fifth of one
    ("honest_protocol_c", "line.bep_duration", 2.5e-6),
    ("honest_combined", "line.bep_duration", 2.5e-6),
    ("honest_combined", "line.bep_duration", 1e-6),
    # substitutions the protocol never lets act: the run would be the honest
    # run, result and event log byte for byte
    ("honest_protocol_a", "attacks", [{"kind": "Substitute", "target": "file"}]),
    ("honest_protocol_b", "attacks", [{"kind": "Substitute", "target": "file", "mode": "replay"}]),
    ("honest_protocol_a", "attacks", [{"kind": "Substitute", "target": "file", "drop": True}]),
    ("honest_protocol_c", "attacks", [{"kind": "Substitute", "target": "Response", "field": "t2_star", "delta": 1e-3}]),
    ("honest_protocol_c", "attacks", [{"kind": "Substitute", "target": "TimeStamp", "drop": True}]),
    # protocol A's messages carry no tag to fabricate
    ("honest_protocol_a", "attacks", [{"kind": "Substitute", "target": "Response", "field": "t2_star", "fabricate_tag": True}]),
    # a line whose derived tau_f, 0.1 / bandwidth_B, overflows: its report
    # would say "tau_f":Infinity and not read back
    ("honest_protocol_a", "line", TINY_BANDWIDTH_LINE),
]
NAMED = [row if len(row) == 4 else (*row, {}) for row in NAMED]


def _named_id(name, path, value, before):
    changes = [f"{p}={v!r}" for p, v in before.items()] + [f"{path}={'deleted' if value is DELETE else repr(value)}"]
    return f"{name}:{','.join(changes)}"


@pytest.mark.parametrize("name,path,value,before", NAMED, ids=[_named_id(*row) for row in NAMED])
def test_named_malformed_configs_fail_closed(name, path, value, before, tmp_path, capsys):
    doc = load_bundled(name).raw
    for earlier, earlier_value in before.items():
        doc = mutated(doc, earlier, earlier_value)
    doc = mutated(doc, path, value)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert any(p.startswith(path) for p in err.value.problems), err.value.problems

    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps(doc))
    assert main(["run", str(config_file), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_derived_line_value_must_be_finite():
    doc = mutated(load_bundled("honest_protocol_a").raw, "line", TINY_BANDWIDTH_LINE)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert err.value.problems == ["line.tau_f: must be finite"]
    # the same value given fails with the same problem
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(mutated(doc, "line.tau_f", math.inf))
    assert err.value.problems == ["line.tau_f: must be finite"]
    # and a bandwidth whose 20 * B overflows fails on the sample rate
    with pytest.raises(ConfigError) as err:
        LineConfig(R_L=1.0, R_H=10.0, bandwidth_B=1e308, noise_scale=1e-4)
    assert err.value.problems == ["sample_rate: must be finite"]


def test_a_passive_attack_kind_fails_closed(tmp_path, capsys):
    doc = dict(load_bundled("honest_protocol_c").canonical_dict(), attacks=[{"kind": "Passive"}])
    message = "attacks.0.kind: must be one of AsymDelay, Substitute, LineMod"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert err.value.problems == [message]
    config_file = tmp_path / "passive.json"
    config_file.write_text(json.dumps(doc))
    assert main(["run", str(config_file), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Per section (an attack's section is its kind): the keys it must have, its
# optional keys (null allowed) and its bool keys.
REQUIRED = {
    "": {"seed", "line", "protocol"},
    "line": {"R_L", "R_H", "bandwidth_B", "noise_scale"},
    "protocol": {"kind"},
    "AsymDelay": {"kind", "leg", "delta"},
    "Substitute": {"kind", "target"},
    "LineMod": {"kind"},
}
OPTIONAL = {
    "line": {"R_wire", "tau_f", "bep_duration", "sample_rate"},
    "Substitute": {"field", "delta"},
    "LineMod": {"r_wire_factor", "tau", "at_time", "at_bep"},
}
BOOLS = {"Substitute": {"fabricate_tag", "drop"}}
JUNK = ["\x00not-a-choice", True, None, math.nan, math.inf, [None], {"x": 1}]


def _objects(doc, path="", section=""):
    """(path, section, object) for every object in a config document."""
    yield path, section, doc
    for key, value in doc.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _objects(value, sub, key)
        elif key == "attacks":
            for n, attack in enumerate(value):
                yield from _objects(attack, f"{sub}.{n}", attack["kind"])


def _mutants(doc):
    for path, section, obj in _objects(doc):
        prefix = f"{path}." if path else ""
        yield f"{prefix}unknown_key added", mutated(doc, f"{prefix}unknown_key", 1)
        for key, value in obj.items():
            if key in REQUIRED.get(section, ()):
                yield f"{prefix}{key} deleted", mutated(doc, prefix + key, DELETE)
            if isinstance(value, dict):
                continue
            if key == "attacks":
                continue
            leaves = [f"{prefix}{key}.{n}" for n in range(len(value))] if isinstance(value, list) else [prefix + key]
            for leaf in leaves:
                for junk in JUNK:
                    if junk is None and key in OPTIONAL.get(section, ()):
                        continue
                    if isinstance(junk, bool) and key in BOOLS.get(section, ()):
                        continue
                    yield f"{leaf}={junk!r}", mutated(doc, leaf, junk)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_every_mutant_of_a_bundled_config_fails_closed(name):
    mutants = list(_mutants(load_bundled(name).raw))
    assert len(mutants) >= 50
    escaped = []
    for label, mutant in mutants:
        try:
            ScenarioConfig.from_dict(mutant)
        except ConfigError:
            continue
        except Exception as exc:  # reported below with the mutant's label
            escaped.append(f"{label}: {exc!r}")
        else:
            escaped.append(f"{label}: accepted")
    assert not escaped, escaped


def test_only_the_integrity_checks_need_noise_and_a_wire():
    # the two-way protocols never read the records
    for name in ("honest_protocol_a", "honest_protocol_b"):
        doc = mutated(mutated(load_bundled(name).raw, "line.noise_scale", 0), "line.R_wire", 0)
        assert run_scenario(ScenarioConfig.from_dict(doc)).result["attack_flag"] is False
    # any loop current at all is enough: the bound is exact
    doc = mutated(load_bundled("honest_protocol_c").raw, "line.noise_scale", 1e-300)
    assert run_scenario(ScenarioConfig.from_dict(doc)).result["attack_flag"] is False


# where (eps * R_H / R_wire)^2 reaches residual_threshold / 100, at the
# bundled R_H = 10 and the default threshold 0.01
R_WIRE_MIN = 2.220446049250313e-13


@pytest.mark.parametrize("name", ["honest_protocol_c", "honest_combined"])
def test_r_wire_must_keep_the_round_off_floor_under_the_threshold(name, tmp_path, capsys):
    doc = load_bundled(name).raw
    above = ScenarioConfig.from_dict(mutated(doc, "line.R_wire", R_WIRE_MIN * (1 + 1e-9)))
    assert run_scenario(above).result["attack_flag"] is False
    below = mutated(doc, "line.R_wire", R_WIRE_MIN * (1 - 1e-9))
    message = (
        f"line.R_wire: must be >= {R_WIRE_MIN!r} for protocol {doc['protocol']['kind']}, "
        "where round-off in the terminal voltages stays under protocol.residual_threshold / 100"
    )
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(below)
    assert err.value.problems == [message]
    config = tmp_path / "thin_wire.json"
    config.write_text(json.dumps(below))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # the bound scales with the threshold, and the two-way protocols have none
    ScenarioConfig.from_dict(mutated(below, "protocol.residual_threshold", 0.0101))
    ScenarioConfig.from_dict(mutated(mutated(below, "protocol.kind", "B"), "line.R_wire", 1e-20))


def _last_accepted(edit, lo, hi):
    """The largest value v in [lo, hi) for which the document edit(v)
    validates, lo being accepted and hi rejected: by bisection, so the next
    value up is rejected."""
    while True:
        mid = (lo + hi) // 2 if isinstance(lo, int) else (lo + hi) / 2
        if mid in (lo, hi):
            return lo
        try:
            ScenarioConfig.from_dict(edit(mid))
            lo = mid
        except ConfigError:
            hi = mid


@pytest.mark.parametrize("q", [1e-12, 1e-9, 1e-6])
def test_honest_two_way_runs_at_the_last_accepted_instant_run_clean(q):
    # protocol B at the largest clock offset the clock quantum allows
    doc = mutated(load_bundled("honest_protocol_b").raw, "clock.quantization", q)
    t0 = _last_accepted(lambda t0: mutated(doc, "clock.t0", t0), 0.0, 2e9)
    assert t0 > 1000.0
    result = run_scenario(ScenarioConfig.from_dict(mutated(doc, "clock.t0", t0))).result
    assert result["attack_flag"] is False
    assert abs(result["t0_est"] - t0) <= q and abs(result["tau_est"] - 0.002) <= q
    # the combined check at its last BEP
    doc = mutated(load_bundled("honest_combined").raw, "clock.quantization", q)
    k = _last_accepted(lambda k: mutated(doc, "protocol.k_range", [k]), 0, 2**64)
    assert k > 50_000
    result = run_scenario(ScenarioConfig.from_dict(mutated(doc, "protocol.k_range", [k]))).result
    assert abs(result["tau_est"] - 0.002) <= q
    assert result["attack_flag"] is False and result["detail"] == ""


# each setting has one spelling; the other ones a config once took fail closed
@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("substitution_attack_b", "attacks.0.value", 1.0, "attacks.0.value: unknown key"),
        ("linemod_attack_c", "attacks.0.r_wire", 0.015, "attacks.0.r_wire: unknown key"),
        ("file_tamper_c", "attacks.0.mode", "drop", "attacks.0.mode: must be one of alter_sample, replay"),
        ("honest_protocol_b", "clock.quantization", None, "clock.quantization: must be a number"),
    ],
    ids=["value", "r_wire", "mode_drop", "quantization_null"],
)
def test_a_removed_spelling_fails_closed(name, path, value, message, tmp_path, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps(mutated(load_bundled(name).raw, path, value)))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _run_linemod_attack_c(tmp_path, edits: dict) -> int:
    doc = load_bundled("linemod_attack_c").raw
    for path, value in edits.items():
        doc = mutated(doc, path, value)
    config = tmp_path / "late.json"
    config.write_text(json.dumps(doc))
    return main(["run", str(config), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "edits, at",
    [
        ({"attacks.0.fraction": 1.0}, 0.01),
        ({"attacks.0.fraction": 0.9999}, 0.9999 * 0.01),
        ({"attacks.0": {"kind": "LineMod", "r_wire_factor": 1.5, "at_time": 5.0}}, 5.0),
    ],
    ids=["fraction_1", "fraction_0.9999", "at_time_5"],
)
def test_a_wire_change_after_the_last_sample_fails_closed(edits, at, tmp_path, capsys):
    # a change lands on the samples at or after its instant: past the last
    # one (BEP 0's sample 1999 at 200 kHz, 9.995 ms in) no record sees it
    assert _run_linemod_attack_c(tmp_path, edits) == 2
    assert capsys.readouterr().err == (
        f"error: attacks.0: the wire changes at t = {at!r} s, after the last recorded sample "
        "(t = 0.009995 s), so no record would see it\n"
    )


@pytest.mark.parametrize(
    "edits",
    [{"attacks.0.fraction": 0.99}, {"attacks.0.fraction": 1.0, "protocol.k_range": [0, 1]}],
    ids=["fraction_0.99", "fraction_1_before_bep_1"],
)
def test_a_wire_change_a_record_sees_runs(edits, tmp_path, capsys):
    assert _run_linemod_attack_c(tmp_path, edits) == 0
    assert capsys.readouterr().err == ""


def test_two_wire_changes_at_one_instant_fail_closed(tmp_path, capsys):
    # linemod_attack_c's change starts halfway through BEP 0, at 5 ms
    doc = load_bundled("linemod_attack_c").raw
    doc = dict(doc, attacks=[*doc["attacks"], {"kind": "LineMod", "r_wire_factor": 2.0, "at_time": 0.005}])
    message = "attacks.1: changes R_wire at t = 0.005 s, as attacks.0 does"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert err.value.problems == [message]
    config = tmp_path / "twice.json"
    config.write_text(json.dumps(doc))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# each attack key's values, the edges of its bounds and some past them
ATTACK_VALUES = {
    "leg": ["AtoB", "BtoA"],
    "delta": [0.0, 4e-6, 1e-3, -0.5, 1e9, None],
    "target": ["TimeStamp", "Response", "Share", "file"],
    "field": ["t1", "t1_star", "t2_star", "t2"],
    "fabricate_tag": [False, True],
    "mode": ["alter_sample", "replay"],
    "sample_index": [0, 7, -3, 10**6],
    "direction": ["AtoB", "BtoA"],
    "r_wire_factor": [0.0, 0.5, 1.5, 3.0],
    "tau": [0.0, 1e-3, 3e-3, 1e9],
    "at_time": [-1.0, 0.0, 0.004, 0.01, 0.05, 1e9],
    "at_bep": [0, 1, 2],
    "fraction": [0.0, 0.5, 1.0],
}


def _draw_attack(rng) -> dict:
    """One attack document in one of its kind's spellings ("key?" is set
    half the time), now and then with one more key that spelling may not
    read; each value is drawn from ATTACK_VALUES."""

    def pick(key):
        return ATTACK_VALUES[key][rng.integers(len(ATTACK_VALUES[key]))]

    kind = ("AsymDelay", "Substitute", "LineMod")[rng.integers(3)]
    attack = {"kind": kind}
    if kind == "AsymDelay":
        keys = ["leg", "delta"]
    elif kind == "LineMod":
        keys = [("r_wire_factor", "tau")[rng.integers(2)], ("at_time", "at_bep")[rng.integers(2)], "fraction?"]
    else:
        attack["target"] = pick("target")
        if rng.random() < 0.2:
            attack["drop"] = True
            keys = ["direction?"] if attack["target"] == "file" else []
        elif attack["target"] == "file":
            keys = ["mode?", "delta?", "sample_index?", "fabricate_tag?", "direction?"]
        else:
            fields = MESSAGE_FIELDS[MessageKind(attack["target"])]
            attack["field"] = fields[rng.integers(len(fields))]
            keys = ["delta", "fabricate_tag?"]
    for key in keys:
        if not key.endswith("?") or rng.random() < 0.5:
            attack[key.rstrip("?")] = pick(key.rstrip("?"))
    if rng.random() < 0.1:
        key = list(ATTACK_VALUES)[rng.integers(len(ATTACK_VALUES))]
        attack[key] = pick(key)
    return attack


def _assert_kept_text_reads_back(config):
    # the text a config keeps is what the one encoder writes for its
    # document, and that document reads back into an equal config
    text = config.canonical_text()
    assert text == CANONICAL.encode(json.loads(text))
    assert ScenarioConfig.from_dict(config.canonical_dict()) == config


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_a_bundled_config_keeps_its_canonical_text(name):
    _assert_kept_text_reads_back(load_bundled(name))


def test_a_substitution_the_protocol_never_lets_act_gives_one_problem_each(tmp_path, capsys):
    doc = dict(
        load_bundled("honest_protocol_a").raw,
        attacks=[
            {"kind": "Substitute", "target": "file", "sample_index": 3},
            {"kind": "Substitute", "target": "Share", "field": "t2", "fabricate_tag": True},
            {"kind": "Substitute", "target": "Response", "field": "t2_star", "fabricate_tag": True, "delta": 1e-3},
        ],
    )
    problems = [
        "attacks.0: a record needs protocol C or Combined; protocol A sends none",
        "attacks.1: fabricate_tag with no delta needs protocol B or Combined; protocol A's messages carry no tag",
    ]
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert err.value.problems == problems
    config = tmp_path / "idle.json"
    config.write_text(json.dumps(doc))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {'; '.join(problems)}\n")
    # the same attacks where they act: B tags its messages, Combined also exchanges records
    for kind in ("B", "Combined"):
        ScenarioConfig.from_dict(dict(doc, protocol={"kind": kind}, attacks=doc["attacks"][1:]))
    ScenarioConfig.from_dict(mutated(doc, "protocol", {"kind": "Combined"}))
    message = "attacks.0: a message needs protocol A, B or Combined; protocol C sends none"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ScenarioConfig.from_dict(dict(load_bundled("honest_protocol_c").raw, attacks=doc["attacks"][1:2]))


def test_a_wire_change_needs_a_protocol_that_records(tmp_path, capsys):
    # protocols A and B simulate no BEP, so a new wire resistance would act on nothing
    wire_change = {"kind": "LineMod", "r_wire_factor": 2.0, "at_time": 0.0}
    for kind in ("A", "B"):
        doc = dict(load_bundled(f"honest_protocol_{kind.lower()}").raw, attacks=[wire_change])
        message = f"attacks.0: a wire change needs protocol C or Combined; protocol {kind} records none"
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.problems == [message]
        config = tmp_path / "idle.json"
        config.write_text(json.dumps(doc))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # a delay change acts on their two-way exchange
        ScenarioConfig.from_dict(dict(doc, attacks=[{"kind": "LineMod", "tau": 0.003, "at_time": 0.0}]))
    ScenarioConfig.from_dict(dict(load_bundled("honest_combined").raw, attacks=[wire_change]))


def test_the_combined_clock_rule_reads_the_clocks_after_a_line_change(tmp_path, capsys):
    # the probe starts after the latest logged event, and a line change is
    # logged at its instant: at 5e8 s floats are 5.96e-8 s apart
    doc = dict(load_bundled("honest_combined").raw, attacks=[{"kind": "LineMod", "tau": 0.002, "at_time": 5e8}])
    config = tmp_path / "late.json"
    config.write_text(json.dumps(mutated(doc, "clock.quantization", 1e-9)))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: clock.quantization: the clocks read up to t = 5e+08 s, ") and err.count("\n") == 1
    result = run_scenario(ScenarioConfig.from_dict(doc)).result
    assert result["attack_flag"] is False and result["detail"] == ""


def test_a_config_that_validates_always_builds_and_runs():
    # 300 lists of one to three attacks on the bundled bases, two in five
    # of them on a drawn key budget of 0 to 1280 bits (the bundled runs
    # spend 0 to 1280): each config either fails validation or runs to a
    # verdict without raising, so a budget too small for the run must fail
    # validation rather than end it with KeyExhaustedError
    rng, names = np.random.default_rng(2026), bundled_scenario_names()
    ran, ran_on_budget = 0, 0
    for _ in range(300):
        doc = load_bundled(names[rng.integers(len(names))]).raw
        doc = dict(doc, attacks=[_draw_attack(rng) for _ in range(rng.integers(1, 4))])
        if budget := rng.random() < 0.4:
            doc["key_bits"] = 256 * int(rng.integers(0, 6))
        try:
            config = ScenarioConfig.from_dict(doc)
        except ConfigError:
            continue
        _assert_kept_text_reads_back(config)
        assert isinstance(run_protocol(config.build_scenario()), SyncResult), doc
        ran += 1
        ran_on_budget += budget
    # the draws run as well as fail, on a drawn budget too
    assert ran >= 75 and ran_on_budget >= 20


@pytest.mark.parametrize(
    "name, path, value, spend",
    [
        ("honest_combined", "protocol.k_range", list(range(15)), 8448),
        ("honest_protocol_c", "protocol.k_range", list(range(17)), 8704),
        ("honest_protocol_b", "key_bits", 512, 768),
    ],
    ids=["combined_15_beps", "c_17_beps", "b_512_bits"],
)
def test_a_key_budget_the_run_would_overrun_fails_closed(tmp_path, capsys, name, path, value, spend):
    # each tag spends 256 bits: B tags three messages, C two records per
    # BEP, Combined both
    doc = mutated(load_bundled(name).canonical_dict(), path, value)
    kind, fewer = doc["protocol"]["kind"], " or list fewer BEPs in protocol.k_range"
    message = (
        f"key_bits: protocol {kind} spends up to {spend} bits (256 per tag), {doc['key_bits']} given; "
        f"raise key_bits{fewer if kind != 'B' else ''}"
    )
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert err.value.problems == [message]
    config = tmp_path / "overrun.json"
    config.write_text(json.dumps(doc))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # a sweep that reaches such a value fails before it writes a report
    if path == "key_bits":
        args = ["sweep", name, "--param", path, "--values", f"8192,{value}", "--out", str(tmp_path / "sweep")]
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list((tmp_path / "sweep").iterdir()) == []


def test_the_key_budget_admits_a_run_that_spends_up_to_the_whole_ledger():
    for name, beps, spent in (("honest_combined", 14, 7936), ("honest_protocol_c", 16, 8192)):
        doc = mutated(load_bundled(name).canonical_dict(), "protocol.k_range", list(range(beps)))
        report = run_scenario(ScenarioConfig.from_dict(doc))
        assert report.result["attack_flag"] is False
        assert report.key_bits_consumed == spent


def test_problems_are_collected_across_sections():
    doc = load_bundled("substitution_attack_b").raw
    doc = mutated(mutated(mutated(doc, "extra", 1), "line.R_H", 0.5), "attacks.0.field", "t1")
    doc = mutated(mutated(doc, "clock.bogus", 1), "protocol.kind", "D")
    doc = mutated(mutated(doc, "seed", True), "key_bits", -1)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert sorted(err.value.problems) == [
        "attacks.0.field: a Response message has only t1_star, t2_star",
        "clock.bogus: unknown key",
        "extra: unknown key",
        "key_bits: must be >= 0",
        "line.R_H: must exceed R_L",
        "protocol.kind: must be one of A, B, C, Combined",
        "seed: must be an integer",
    ]


def test_integers_keep_their_type_and_lists_stay_lists():
    doc = mutated(load_bundled("honest_protocol_c").raw, "channel.tau", 0)
    doc = mutated(doc, "protocol.k_range", [0, 1])
    canonical = ScenarioConfig.from_dict(doc).canonical_dict()
    assert canonical["channel"]["tau"] == 0 and type(canonical["channel"]["tau"]) is int
    assert canonical["protocol"]["k_range"] == [0, 1]


def test_sections_built_in_code_are_checked_too():
    for build in (
        lambda: ClockConfig(t0="x"),
        lambda: ClockConfig(quantization=-1e-6),
        lambda: ChannelConfig(tau=math.nan),
        lambda: ProtocolConfig("C", dt_window=2.5),
        lambda: ProtocolConfig("C", k_range=[0]),
        lambda: ProtocolConfig("C", k_range=(0, 2, 2)),
        lambda: ProtocolConfig("D"),
        lambda: LineConfig(R_L=True, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4),
        lambda: AsymDelay("BtoA", math.inf),
        lambda: Substitute("file", field="t1"),
        lambda: Substitute("Response", "t2_star", mode="replay"),
        lambda: LineMod(r_wire_factor=2.0, at_time=0.0, at_bep=0),
        lambda: LineMod(tau=-1e-3, at_time=0.0),
    ):
        with pytest.raises(ConfigError):
            build()


def test_every_section_of_the_schema_is_a_section():
    # every dataclass a config document can reach, each attack kind of the
    # union included, must get Section's type checks and kept document
    def classes(hint):
        yield hint
        for arg in typing.get_args(hint):
            yield from classes(arg)

    found, todo = set(), [ScenarioConfig]
    while todo:
        cls = todo.pop()
        found.add(cls)
        hints = typing.get_type_hints(cls)
        todo += [
            c
            for f in dataclasses.fields(cls)
            if f.init
            for c in classes(hints[f.name])
            if dataclasses.is_dataclass(c) and c not in found
        ]
    assert {c.__name__ for c in found} == {
        "ScenarioConfig", "LineConfig", "ProtocolConfig", "ClockConfig", "ChannelConfig",
        "AsymDelay", "Substitute", "LineMod",
    }
    assert [c.__name__ for c in found if not issubclass(c, Section)] == []


def _documented_rules(readme: str) -> dict:
    """The rule cell of each key the tables of README's "Scenario config
    format" reference name, by table: "" for the top level, then each
    section and attack kind by the name its heading or bullet starts with."""
    reference = readme.split("\n## Scenario config format\n", 1)[1].split("\n## ", 1)[0]
    tables, name = {"": {}}, ""
    for line in reference.split("\nTop level:\n", 1)[1].splitlines():
        heading = re.match(r"`(\w+)`.*:$|- `(\w+)` ", line)
        row = re.match(r"\s*\| `(\w+)` \|", line)
        if heading:
            name = heading.group(1) or heading.group(2)
            tables[name] = {}
        elif row:
            tables[name][row.group(1)] = line.strip().strip("|").split(" | ", 2)[2]
    return tables


def _declared_bounds(hint) -> list:
    """The problem texts of the bounds a field's type hint declares."""
    if typing.get_origin(hint) is typing.Annotated:
        return [bound.text for bound in hint.__metadata__]
    return [text for arg in typing.get_args(hint) for text in _declared_bounds(arg)]


def test_the_readme_config_reference_names_exactly_the_schema():
    hints = typing.get_type_hints(ScenarioConfig)
    classes = {"": ScenarioConfig}
    classes.update({name: hints[name] for name in init_fields(ScenarioConfig) if dataclasses.is_dataclass(hints[name])})
    classes.update({kind.__name__: kind for kind in typing.get_args(Attack)})
    assert set(classes) == {"", "line", "protocol", "clock", "channel", "AsymDelay", "Substitute", "LineMod"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rules = _documented_rules(readme)
    assert {name: set(cells) for name, cells in rules.items()} == {
        name: set(init_fields(cls)) for name, cls in classes.items()
    }
    # each rule cell states its field's declared bounds, as README writes numbers
    missing = [
        f"{name}.{key}: {text}"
        for name, cls in classes.items()
        for key, hint in typing.get_type_hints(cls, include_extras=True).items()
        if key in rules[name]
        for text in _declared_bounds(hint)
        if text.removeprefix("must be ").replace("e+09", "e9") not in rules[name][key]
    ]
    assert missing == []
