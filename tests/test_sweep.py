"""Sweeps: pinned report bytes, and bad values failing like config files."""

import copy
import re

import numpy as np
import pytest
from pinned import indented_report_digest

from kljnsync import auth
from kljnsync.errors import ConfigError
from kljnsync.config import Section, init_fields
from kljnsync.harness import ScenarioConfig, _derive, _lookup, bundled_scenario_names, load_bundled, run_scenario, sweep
from kljnsync.noise import derive_seed

TWOWAY_T0 = [-0.0071, -0.002, 0.0, 3.5e-05, 0.0042, 0.0099]

# sha256 of every canonical_json() each sweep returns, re-rendered with
# indent=1 (see pinned.py)
GOLDEN = {
    ("honest_protocol_a", "clock.t0"): [
        "14a6371608d85835586e4d09d5777437507edfd886087401e14baa7cad3f945c",
        "3552e9cf490a54cfe7a176e326d52f02491fbebfb7c339903e6d8dc927268646",
        "5f2452a558132f928592cb741c10f8e98036180169edd907b67dcdc13af279e8",
        "1030dfe2273b3a8565dc7df64ef651c81605ef4b9ae09012928cbe9ef399cf9f",
        "ba313b2bafb54fcda7799ebf0715a098c221bb8196189450fad343839176b58c",
        "019d61965b33a5e480d9d43a803eb3d52e2c94c30d505b68967212be56591620",
    ],
    ("honest_protocol_b", "clock.t0"): [
        "64579d66b443fd8659e95a9beff692506ebb596e2e009423b29e5c11617f47b7",
        "1f287a1364e0fb4e841d1b4f592c13ae9186a2b8ada7d348ff11eafc4db93f7e",
        "3b5b24b385e3e0f0164134f0321bed68e8d493e5372062b2280d82c0c4554cf4",
        "4ef9a40636f58e99ff822d123aa0439092016ace31ad10ef468faba76c93d10e",
        "fa2d53e1e498828f22b89c3de7fa6b4bd06c7ae2fd8cf2bb2edff286a0ea6031",
        "ae3f4f787019731a8bd8ed409e1f4aa037062705d470f72028a010dad48f03ac",
    ],
    ("delay_attack_b", "clock.t0"): [
        "bb966980070d1d7906249f5746158210a1605ae4a55b47d3476dc450e484e78d",
        "624d3d65bf81f35d98d1f85ac53693b5e8dd82b3496e9c01c9547bd7b3557453",
        "fae7de28b6b2ffcbcffc429a80adf8e41f3bf43ad13c05cc71e86723af07b185",
        "3d14fad1f31ff1ced88098fcee09fe78413d34acc5ea9f968dbd54f6e5e1b181",
        "ddc6eedd6aa05e99abf8c8768c2f7cf64dab7cbbc3cc15b1b5122f2f50d62023",
        "8d747c88cfcfc0a085820bc754d8e4c0f30ab99f0928853ff3147ff23bcfcf75",
    ],
    ("substitution_attack_b", "clock.t0"): [
        "f12220823d965b6f3d9a3a030a0fb704fdd29aa4dac7db8f9ac77e7a8bac07b4",
        "60d153de1dbc40511926a2f15dc72660e9abfd34de41a3284a05bf9d0def0932",
        "bf83129016acb06f23699b3e7ecf767b8a242caed2e7f0913b65d760741ebf28",
        "6d5447c4c685b026b682c6c573f7e6aadb7edd4724685ebce0347c7d9d9168a1",
        "0a8cd32b2769adfd335a266a773039d8c18e5f1971c98d844bb5fa30be1540ab",
        "8e7937a9972a97282ec0a8c980f392f3ca83819c3f3f1a7c3dbfde57c907d73a",
    ],
    ("delay_attack_a", "attacks.0.delta"): [
        "220f3db4d638f67ff472973e5fca612a7273f6f5d653fbaf2b78bcc9303dd4ec",
        "03b943e8e8a2a2edc6b0a38c8ca8b7344ac66e8a6ac438b66723fc77ee44cf6c",
        "94c7229e2f60e31bbcb55172dc1f2f7dc4286a45735d60dafdef33dcd77b22fc",
        "ee8e579c04af42d6088256586531a2bb681f7a30b97ed83544ffed7f6c9feef7",
    ],
    # protocol C reports carry FFT-derived floats (noise synthesis and the
    # alignment search), so these bytes also pin numpy's FFT rounding
    ("honest_protocol_c", "protocol.dt_window"): [
        "73f77806ce7ac671db85ffdb3193fbde6b1744cd16d843fafc9214bccbd6c1d3",
        "311f7949c5b3f74973eac1df3f35c00bd22bed957113ae1b5580f60a615c5d17",
        "64e58e74bc7e9998264be9944a54cabd95cfb3c9896a4a0fae3e0b2c15ef4987",
    ],
}

CASES = {
    ("honest_protocol_a", "clock.t0"): (TWOWAY_T0, "per-value"),
    ("honest_protocol_b", "clock.t0"): (TWOWAY_T0, "per-value"),
    ("delay_attack_b", "clock.t0"): (TWOWAY_T0, "per-value"),
    ("substitution_attack_b", "clock.t0"): (TWOWAY_T0, "per-value"),
    ("delay_attack_a", "attacks.0.delta"): ([0.0, 0.001, 0.002, 0.004], "fixed"),
    ("honest_protocol_c", "protocol.dt_window"): ([50.0, 3.0, 100.0], "fixed"),
}


def edited(name: str, path: str, value):
    """The bundled document with one value set by hand."""
    doc = copy.deepcopy(load_bundled(name).raw)
    *parents, last = path.split(".")
    node = doc
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[int(last) if isinstance(node, list) else last] = value
    return doc


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: f"{case[0]}:{case[1]}")
def test_sweep_report_bytes_are_pinned(case):
    name, parameter = case
    values, policy = CASES[case]
    reports = sweep(load_bundled(name), parameter, values, seed_policy=policy)
    digests = [indented_report_digest(r.canonical_json()) for r in reports]
    assert digests == GOLDEN[case]


def test_sweep_runs_match_runs_of_the_edited_documents():
    # the same bytes as reading the hand-edited file, run by run
    name, parameter = "delay_attack_b", "clock.t0"
    reports = sweep(load_bundled(name), parameter, TWOWAY_T0[:3], seed_policy="per-value")
    for i, (value, report) in enumerate(zip(TWOWAY_T0, reports)):
        doc = edited(name, parameter, value)
        doc["seed"] += i
        expected = run_scenario(ScenarioConfig.from_dict(doc)).canonical_json()
        assert report.canonical_json() == expected


@pytest.mark.parametrize(
    "name, parameter, swept, written",
    [
        ("honest_protocol_a", "channel.tau", -1e-3, -1e-3),
        ("honest_protocol_b", "clock.quantization", -1e-6, -1e-6),
        ("honest_protocol_c", "protocol.dt_window", 2.5, 2.5),
        ("honest_protocol_c", "protocol.dt_window", 0.0, 0),
        ("linemod_attack_c", "attacks.0.at_bep", 5.0, 5),
        ("linemod_attack_c", "attacks.0.fraction", 1.5, 1.5),
        ("delay_attack_a", "attacks.0.delta", -0.002, -0.002),
        ("honest_protocol_c", "line.R_H", 0.5, 0.5),
        ("honest_protocol_a", "seed", -3.0, -3),
        ("honest_protocol_a", "key_bits", 2.5, 2.5),
    ],
)
def test_a_bad_swept_value_fails_like_the_edited_document(name, parameter, swept, written):
    # swept is the float the CLI parses; written is the value in a config file
    with pytest.raises(ConfigError) as from_doc:
        ScenarioConfig.from_dict(edited(name, parameter, written))
    with pytest.raises(ConfigError) as from_sweep:
        sweep(load_bundled(name), parameter, [swept])
    assert from_sweep.value.problems == from_doc.value.problems
    assert all(p.startswith(parameter + ": ") for p in from_sweep.value.problems)


def test_per_value_seed_sweep_offsets_the_swept_seed():
    # a negative seed the offset makes valid runs, as the edited file would
    reports = sweep(load_bundled("honest_protocol_a"), "seed", [4.0, -1.0], seed_policy="per-value")
    assert [r.config["seed"] for r in reports] == [4, 0]


def test_sweep_leaves_the_base_config_and_its_document_alone():
    config = load_bundled("delay_attack_a")
    before = copy.deepcopy(config.raw), config.canonical_dict()
    reports = sweep(config, "attacks.0.delta", [0.001, 0.003])
    assert (config.raw, config.canonical_dict()) == before
    assert [r.config["attacks"][0]["delta"] for r in reports] == [0.001, 0.003]


def test_a_sweep_edits_one_field_of_the_config_the_report_shows():
    # fields the line derived from R_L and bandwidth_B keep their base values
    config = load_bundled("honest_protocol_c")
    with pytest.raises(ConfigError) as err:
        sweep(config, "line.bandwidth_B", [200000.0])
    assert err.value.problems == ["line.sample_rate: must be >= 2 * bandwidth_B"]
    base = config.canonical_dict()
    (report,) = sweep(config, "line.R_L", [2.0])
    assert report.config == dict(base, line=dict(base["line"], R_L=2.0))
    assert report.canonical_json() == run_scenario(ScenarioConfig.from_dict(report.config)).canonical_json()


def _cold_memos():
    auth._kept_pad.cache_clear()


def test_a_fixed_seed_sweep_draws_its_key_pad_once(monkeypatch):
    _cold_memos()
    built, pcg64 = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(seed) or pcg64(seed))
    values = [i * 1e-3 for i in range(10)]
    reports = sweep(load_bundled("honest_protocol_b"), "clock.t0", values)
    assert [r.key_bits_consumed for r in reports] == [768] * 10
    assert built == [derive_seed(load_bundled("honest_protocol_b").seed, 0xFEED)]


def test_a_per_value_sweep_run_again_draws_no_key_pad(monkeypatch):
    # ten seeds, ten 1 KiB pads: all of them stay in the memo
    values = [i * 1e-3 for i in range(10)]
    _cold_memos()
    first = sweep(load_bundled("honest_protocol_b"), "clock.t0", values, "per-value")
    assert auth._kept_pad.cache_info().misses == 10
    built, pcg64 = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(seed) or pcg64(seed))
    again = sweep(load_bundled("honest_protocol_b"), "clock.t0", values, "per-value")
    assert built == [] and auth._kept_pad.cache_info().misses == 10
    assert [r.canonical_json() for r in again] == [r.canonical_json() for r in first]


def test_a_sweep_gives_the_same_bytes_with_cold_and_warm_memos():
    values = [i * 1e-3 for i in range(10)]
    _cold_memos()
    cold = [r.canonical_json() for r in sweep(load_bundled("honest_protocol_b"), "clock.t0", values)]
    warm = [r.canonical_json() for r in sweep(load_bundled("honest_protocol_b"), "clock.t0", values)]
    assert cold == warm
    # the pins were taken without memos
    case = ("honest_protocol_b", "clock.t0")
    _cold_memos()
    for _ in ("cold", "warm"):
        reports = sweep(load_bundled(case[0]), case[1], *CASES[case])
        assert [indented_report_digest(r.canonical_json()) for r in reports] == GOLDEN[case]


def _numeric_paths(node, path=""):
    """Every dotted path to a number under node, as _lookup takes them:
    init fields of sections and items of tuples, bools aside."""
    if isinstance(node, Section):
        items = [(name, getattr(node, name)) for name in init_fields(type(node))]
    elif isinstance(node, tuple):
        items = list(enumerate(node))
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, value in items:
        yield from _numeric_paths(value, f"{path}.{key}" if path else str(key))


def _assert_off_the_path_is_shared(derived, base, parts):
    """Along parts, each level of derived is a new object equal to base's,
    with the same canonical text, and every item off the path is base's own."""
    head, rest = parts[0], parts[1:]
    if isinstance(base, tuple):
        keys, pick = range(len(base)), lambda obj, key: obj[key]
        head = int(head)
    else:
        keys, pick = init_fields(type(base)), getattr
    for key in keys:
        if key != head:
            assert pick(derived, key) is pick(base, key), key
    if isinstance(base, Section):
        assert derived is not base and derived == base
        assert derived.canonical_text() == base.canonical_text()
    if rest:
        _assert_off_the_path_is_shared(pick(derived, head), pick(base, head), rest)


# every numeric path of the bundled scenarios, an item's place written N
SWEPT_AT_THEIR_OWN_VALUE = {
    "seed", "key_bits",
    "clock.t0", "clock.quantization", "channel.tau", "channel.processing_delay",
    "line.R_L", "line.R_H", "line.bandwidth_B", "line.noise_scale", "line.measurement_noise_rel",
    "line.R_wire", "line.tau_f", "line.bep_duration", "line.sample_rate",  # derived unless given
    "protocol.dt_window", "protocol.residual_threshold", "protocol.k_range.N",
    "protocol.t0_tol_quanta", "protocol.tau_tol_quanta",
    "attacks.N.delta", "attacks.N.sample_index",  # AsymDelay, Substitute
    "attacks.N.r_wire_factor", "attacks.N.tau", "attacks.N.at_time", "attacks.N.at_bep", "attacks.N.fraction",  # LineMod
}


def test_a_field_swept_at_its_own_value_gives_the_base_config():
    # the sweep rebuilds the sections on the path from their init fields:
    # at the field's own value that is the base config, text and all, and
    # the sections off the path are the base's, whose kept text is reused
    covered = set()
    for name in bundled_scenario_names():
        config = load_bundled(name)
        for path in _numeric_paths(config):
            parts = path.split(".")
            derived = _derive(config, parts, _lookup(config, path), {})
            assert derived == config and derived.canonical_text() == config.canonical_text(), (name, path)
            assert derived.line.msq_levels_text == config.line.msq_levels_text, (name, path)
            _assert_off_the_path_is_shared(derived, config, parts)
            covered.add(re.sub(r"\.\d+", ".N", path))
    assert covered == SWEPT_AT_THEIR_OWN_VALUE


def test_a_two_way_sweep_at_the_fields_own_values_runs_the_base_config():
    # through sweep itself, with each value as the CLI parses it, a float
    for name in bundled_scenario_names():
        config = load_bundled(name)
        if config.protocol.kind not in ("A", "B"):
            continue
        for path in _numeric_paths(config):
            (report,) = sweep(config, path, [float(_lookup(config, path))])
            assert report.scenario_config == config, (name, path)
            assert report.canonical_json() == run_scenario(config).canonical_json(), (name, path)
