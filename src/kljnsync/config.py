"""The scenario config schema: typed sections and the one validator.

Every section of a scenario config document is a frozen dataclass that
subclasses Section, with fields named after its JSON keys, and each default
is written once, on its field. ``read`` turns a document into those objects
and fails closed: it collects every unknown key, missing required key,
wrongly typed value and out-of-bounds value into a single ConfigError.
Field types are checked when an object is constructed (Section's
``__post_init__`` checks them before the section's own bounds), so objects
built in code are held to the same rules as documents:

  float           a finite number; bools are not numbers
  int             an integer, not a bool and not 2.0
  bool, str       exactly that
  Literal[...]    one of the listed strings
  Optional[X]     null, or an X
  tuple[X, ...]   a JSON list of X
  a dataclass     a JSON object with that dataclass's keys
  a Union of dataclasses
                  an object whose "kind" names one of them by class name

The way back is text: each section writes its document as canonical JSON
(``Section.canonical_text``) once, from its fields, splicing in the texts
its nested sections keep. A sweep's runs share most of their sections, so
their reports share most of that text.

Checks and text both read tables kept per class and made on the class's
first use: the (name, check) pair of every init field, which construction
runs in declaration order, and the rows the text is written from, sorted
by key, each with its '"name":' prefix and its default (an attack kind
writes its "kind" and only the fields off their defaults). A section built
again pays for its own checks and text only; a sweep so builds each
section on its path from its init fields (``init_fields``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from json.encoder import encode_basestring_ascii
from typing import Literal

from .errors import ConfigError

# the one encoder of canonical text: sorted keys, no spaces; without indent
# json uses its C encoder. No circular check: what it encodes is a tree.
CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)

_FAILED = object()  # a read that recorded its problems and produced nothing

# the largest time, either way, that a config may give in seconds: an offset, a
# delay or an instant. A run divides sums of a few of them by the clock quantum.
MAX_SECONDS = 1e9
# the finest clock resolution, a picosecond: a few times MAX_SECONDS are then
# about 1e21 quanta, which rounding to the clock grid takes without overflow
MIN_QUANTIZATION = 1e-12


def _field(hint):
    """(read, check) for a field typed hint. read(value, path, problems)
    turns the JSON form into the Python form; it is None where the JSON
    form already is that. check(value) gives the problem text, or None when
    the value fits hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        def check(value):
            if isinstance(value, float):
                return None if math.isfinite(value) else "must be finite"
            if type(value) is int:  # not a bool
                return None if abs(value) <= sys.float_info.max else "must be finite"
            return "must be a number"

        return None, check
    if hint is int:
        return None, lambda value: None if type(value) is int else "must be an integer"
    if origin is Literal:
        text = "must be one of " + ", ".join(args)
        return None, lambda value: None if isinstance(value, str) and value in args else text
    if origin is tuple:
        read_item, check_item = _field(args[0])

        def read_list(value, path, problems):
            if not isinstance(value, list):
                return value  # construction reports it
            if read_item is None:
                return tuple(value)
            items = tuple(read_item(x, f"{path}.{n}", problems) for n, x in enumerate(value))
            return _FAILED if any(x is _FAILED for x in items) else items

        def check_list(value):
            if not isinstance(value, tuple):
                return "must be a list"
            for n, x in enumerate(value):
                problem = check_item(x)
                if problem:
                    return f"item {n} {problem}"
            return None

        return read_list, check_list
    if origin is typing.Union and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        check_inner = _field(inner)[1]
        return None, lambda value: None if value is None else check_inner(value)
    # bool, str, a dataclass, a Union of dataclasses
    classes = args if origin is typing.Union else (hint,)
    text = "must be " + " or ".join(c.__name__ for c in classes)

    def check(value):
        return None if isinstance(value, classes) else text

    if dataclasses.is_dataclass(hint):
        return (lambda value, path, problems: _read(hint, value, path, problems)), check
    if origin is not typing.Union:
        return None, check
    kinds = {c.__name__: c for c in classes}
    kind_text = "must be one of " + ", ".join(kinds)

    def read_tagged(value, path, problems):
        if not isinstance(value, dict):
            problems.append(f"{path}: expected an object")
            return _FAILED
        kind = value.get("kind")
        cls = kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            problems.append(f"{path}.kind: {kind_text}")
            return _FAILED
        return _read(cls, {k: v for k, v in value.items() if k != "kind"}, path, problems)

    return read_tagged, check


@functools.cache
def _schema(cls) -> dict:
    """name -> (required, read, check) for every init field of cls, read
    and check as _field gives them; type hints are resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING, *_field(hints[f.name]))
        for f in dataclasses.fields(cls)
        if f.init
    }


@functools.cache
def init_fields(cls) -> tuple[str, ...]:
    """The names of cls's init fields, in declaration order."""
    return tuple(_schema(cls))


@functools.cache
def _checks(cls) -> tuple:
    """(name, check) for every init field of cls: Section's type checks."""
    return tuple((name, check) for name, (_, _, check) in _schema(cls).items())


@functools.cache
def _text_table(cls) -> tuple:
    """(name, '"name":', default) for every field cls's canonical text may
    write, sorted by name; for a tagged class, its kind is the row (None,
    '"kind":"ClassName"', None)."""
    rows = [(f.name, f'"{f.name}":', f.default) for f in dataclasses.fields(cls) if f.init]
    if cls.tagged:
        rows.append((None, '"kind":' + encode_basestring_ascii(cls.__name__), None))
    return tuple(sorted(rows, key=lambda row: row[0] or "kind"))


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _read(cls, doc, path: str, problems: list):
    if not isinstance(doc, dict):
        problems.append(f"{path or 'config'}: expected an object")
        return _FAILED
    schema = _schema(cls)
    failed = not schema.keys() >= doc.keys()
    if failed:
        problems.extend(f"{_join(path, key)}: unknown key" for key in doc if key not in schema)
    kwargs = {}
    for name, (required, read, _) in schema.items():
        if name in doc:
            value = doc[name]
            if read is not None:
                value = read(value, _join(path, name), problems)
                failed |= value is _FAILED
            kwargs[name] = value
        elif required:
            problems.append(f"{_join(path, name)}: required")
            failed = True
    if failed:  # cls cannot be built; still report its mistyped fields
        problems.extend(
            f"{_join(path, name)}: {problem}"
            for name, value in kwargs.items()
            if value is not _FAILED and (problem := schema[name][2](value))
        )
        return _FAILED
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        problems.extend(_join(path, p) for p in exc.problems)
        return _FAILED


def read(cls, doc):
    """Build a cls from its JSON document, or raise one ConfigError that
    lists every problem found in it."""
    problems: list[str] = []
    obj = _read(cls, doc, "", problems)
    if problems:
        raise ConfigError(problems)
    return obj


class Section:
    """The base of every config section, a frozen dataclass.

    Building one checks every init field against its type hint, then, only
    if all of them fit, the section's own bounds (``problems``), and raises
    one ConfigError listing whatever broke. A section keeps its document as
    canonical JSON text (``canonical_text``), never as a dict: a report
    splices that text in, and ``json.loads`` of it gives a fresh dict.

    The checks and the text come from the tables the module keeps per
    class (see its docstring), so neither resolves a type hint nor sorts a
    key after the class's first section.
    """

    # whether the section is an item of a union of sections (an attack
    # kind), written with its "kind" and without the fields at their defaults
    tagged = False

    def __post_init__(self):
        problems = [
            f"{name}: {problem}" for name, check in _checks(type(self)) if (problem := check(getattr(self, name)))
        ] or self.problems()
        if problems:
            raise ConfigError(problems)

    def problems(self) -> list[str]:
        """The bounds the section's well-typed fields break."""
        return []

    def canonical_text(self) -> str:
        """The section's JSON document as canonical text: keys sorted, no
        spaces, every value written as ``CANONICAL`` writes it. A section
        writes every field, defaults included, so two documents that read
        into equal sections get equal texts; a tagged section (an attack
        kind) writes its "kind", the class name, and only the fields that
        differ from their defaults. Nested sections and tuples splice in
        their items' own texts.

        The text is built once per section object and kept in its __dict__
        (sections are frozen, so it never goes stale)."""
        text = self.__dict__.get("_text")
        if text is None:
            table = _text_table(type(self))
            if self.tagged:
                parts = [
                    key + _write(getattr(self, name)) if name else key
                    for name, key, default in table
                    if not name or getattr(self, name) != default
                ]
            else:
                parts = [key + _write(getattr(self, name)) for name, key, _ in table]
            text = "{" + ",".join(parts) + "}"
            self.__dict__["_text"] = text  # as functools.cached_property stores, past __setattr__
        return text


def _write(value) -> str:
    """A field's value as CANONICAL writes it; a section or a tuple of them
    as its canonical text. The exact types come first. Every float is
    finite, given or derived: a section's checks let no other through."""
    kind = type(value)
    if kind is float:
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if isinstance(value, Section):
        return value.canonical_text()
    if isinstance(value, tuple):
        return "[" + ",".join(map(_write, value)) + "]"
    return CANONICAL.encode(value)  # None, a bool, a numpy float


@dataclasses.dataclass(frozen=True)
class ClockConfig(Section):
    """Bob's clock runs t0 seconds ahead of Alice's master clock; both read
    in steps of quantization seconds (0 disables the rounding, and a step
    is at least MIN_QUANTIZATION)."""

    t0: float = 0.0
    quantization: float = 1e-6

    def problems(self) -> list[str]:
        problems = [f"t0: must be in [-{MAX_SECONDS:g}, {MAX_SECONDS:g}]"] if abs(self.t0) > MAX_SECONDS else []
        if self.quantization and not self.quantization >= MIN_QUANTIZATION:
            problems.append(f"quantization: must be 0 or >= {MIN_QUANTIZATION:g}")
        return problems

    @property
    def quantum(self) -> float:
        """The clock step tolerances are counted in (1 us when rounding is
        disabled)."""
        return self.quantization or 1e-6


@dataclasses.dataclass(frozen=True)
class ChannelConfig(Section):
    """The honest one-way propagation delay tau of each direction, and Bob's
    think time before he answers a two-way exchange, in seconds."""

    tau: float = 2e-3
    processing_delay: float = 1e-3

    def problems(self) -> list[str]:
        limit = f"must be in [0, {MAX_SECONDS:g}]"
        return [f"{n}: {limit}" for n in ("tau", "processing_delay") if not 0 <= getattr(self, n) <= MAX_SECONDS]


@dataclasses.dataclass(frozen=True)
class ProtocolConfig(Section):
    """Which protocol runs, and its parameters.

    The alignment search of protocol C tries every shift on the sample
    lattice that keeps half of a record overlapping, driving the wire model
    with the two terminal voltages, over the BEPs in k_range; the run is
    flagged when no shift gets the residual to residual_threshold. The
    report keeps the residual curve over +-dt_window samples around its
    minimum. input takes one value, "voltage": every report's config shows
    the field, so it stays until the reports change format. The combined
    check's probe must then find the offset within t0_tol_quanta clock
    quanta of zero and the delay within tau_tol_quanta quanta of the
    channel's tau.
    """

    kind: Literal["A", "B", "C", "Combined"]
    dt_window: int = 100
    residual_threshold: float = 0.01
    k_range: tuple[int, ...] = (0,)
    input: Literal["voltage"] = "voltage"
    t0_tol_quanta: float = 2.0
    tau_tol_quanta: float = 1.5

    def problems(self) -> list[str]:
        problems = []
        if self.dt_window < 1:
            problems.append("dt_window: must be >= 1")
        if self.residual_threshold < 1e-12:
            problems.append("residual_threshold: must be >= 1e-12")
        if not self.k_range or min(self.k_range) < 0 or max(self.k_range) >= 2**64:
            problems.append("k_range: must list at least one BEP index, each in [0, 2**64)")
        elif any(a >= b for a, b in zip(self.k_range, self.k_range[1:])):
            # each BEP is recorded once, and the records follow the timeline
            problems.append("k_range: must be strictly increasing")
        for name in ("t0_tol_quanta", "tau_tol_quanta"):
            if getattr(self, name) < 0:
                problems.append(f"{name}: must be >= 0")
        return problems
