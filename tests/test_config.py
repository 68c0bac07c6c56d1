"""Scenario configs fail closed: every malformed document raises ConfigError
from ScenarioConfig.from_dict, and the CLI turns it into one error line."""

import copy
import json
import math

import pytest

from kljnsync.adversaries import AsymDelay, LineMod, Substitute
from kljnsync.cli import main
from kljnsync.config import ChannelConfig, ClockConfig, ProtocolConfig
from kljnsync.errors import ConfigError
from kljnsync.harness import ScenarioConfig, bundled_scenario_names, load_bundled
from kljnsync.line import LineConfig

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


# (bundled scenario, dotted path, new value): one change each
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
    ("delay_attack_b", "attacks.0.leg", "sideways"),
    ("delay_attack_b", "attacks.0", {"kind": "AsymDelay"}),
    ("delay_attack_b", "attacks.0.delta", "x"),
    ("substitution_attack_b", "attacks.0.target", DELETE),
    ("substitution_attack_b", "attacks.0.target", "Bogus"),
    ("substitution_attack_b", "attacks.0.field", "t9"),
    ("substitution_attack_b", "attacks.0.field", "t1"),
    ("linemod_attack_c", "attacks.0.fraction", 7.0),
    ("linemod_attack_c", "attacks.0.at_bep", 5),
]


@pytest.mark.parametrize("name,path,value", NAMED, ids=[f"{n}:{p}={'deleted' if v is DELETE else repr(v)}" for n, p, v in NAMED])
def test_named_malformed_configs_fail_closed(name, path, value, tmp_path, capsys):
    doc = mutated(load_bundled(name).raw, path, value)
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
    "clock": {"quantization"},
    "Substitute": {"field", "value", "delta"},
    "LineMod": {"r_wire", "r_wire_factor", "tau", "at_time", "at_bep"},
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


def test_problems_are_collected_across_sections():
    doc = load_bundled("substitution_attack_b").raw
    doc = mutated(mutated(mutated(doc, "extra", 1), "line.R_H", 0.5), "attacks.0.value", 1.0)
    doc = mutated(mutated(doc, "clock.bogus", 1), "protocol.kind", "D")
    doc = mutated(doc, "seed", True)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert sorted(err.value.problems) == [
        "attacks.0.value: give value or delta, not both",
        "clock.bogus: unknown key",
        "extra: unknown key",
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
        lambda: ProtocolConfig("D"),
        lambda: LineConfig(R_L=True, R_H=10.0, bandwidth_B=1e4, noise_scale=1e-4),
        lambda: AsymDelay("BtoA", math.inf),
        lambda: Substitute("file", field="t1"),
        lambda: Substitute("Response", "t2_star", mode="replay"),
        lambda: LineMod(r_wire=0.02, at_time=0.0, at_bep=0),
        lambda: LineMod(tau=-1e-3, at_time=0.0),
    ):
        with pytest.raises(ConfigError):
            build()
