"""The scenario config schema: typed sections and the one validator.

Every section of a scenario config document is a frozen dataclass that
subclasses Section, with fields named after its JSON keys, and each default
is written once, on its field. ``read`` turns a document into those objects
and fails closed: it collects every unknown key, missing required key,
wrongly typed value and out-of-bounds value into a single ConfigError.
Field types are checked when an object is constructed (Section's
``__post_init__`` checks them before the section's rules across fields),
so objects built in code are held to the same rules as documents:

  float           a finite number; bools are not numbers
  int             an integer, not a bool and not 2.0
  Annotated[X, bound, ...]
                  an X that keeps every bound (ge, gt, le, within): a
                  single field's range is part of its type
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
from typing import Annotated, Literal

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
# the widest gap between neighbouring floats, in clock quanta, at a clock
# reading of a two-way exchange: an honest run's delay estimate is off by
# about 0.2 to 0.4 of that gap, so the float timeline takes at most a
# twentieth of a quantum from the probe's tolerances
CLOCK_ULP_QUANTA = 1 / 8


class Bound(typing.NamedTuple):
    """A bound a number field declares in its type, as in
    ``Annotated[float, ge(0)]``: a value keeps it when lo <= value <= hi,
    and text is the problem when it does not."""

    lo: float
    hi: float
    text: str


def _written(x) -> str:
    return f"{x:g}" if isinstance(x, float) else str(x)


def ge(lo) -> Bound:
    return Bound(lo, math.inf, f"must be >= {_written(lo)}")


def gt(lo) -> Bound:
    # from the next float up: the same test for every float, and for every
    # int while |lo| < 2**53
    return Bound(math.nextafter(lo, math.inf), math.inf, f"must be > {_written(lo)}")


def le(hi) -> Bound:
    return Bound(-math.inf, hi, f"must be <= {_written(hi)}")


def within(lo, hi) -> Bound:
    return Bound(lo, hi, f"must be in [{_written(lo)}, {_written(hi)}]")


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
    if origin is Annotated:  # a number and its bounds
        kind, *bounds = args
        check_kind = _field(kind)[1]
        # a range inside every bound and of the field's own type, which no
        # infinity passes: a value of exactly that type within it keeps the
        # bounds, in one comparison; any other value is checked in full
        edge = sys.maxsize if kind is int else sys.float_info.max
        lo, hi = max(-edge, *(b.lo for b in bounds)), min(edge, *(b.hi for b in bounds))

        def check_bounded(value):
            if type(value) is kind and lo <= value <= hi:
                return None
            return check_kind(value) or next((b.text for b in bounds if not b.lo <= value <= b.hi), None)

        return None, check_bounded
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
    and check as _field gives them; type hints are resolved, with their
    bounds, once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
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

    Building one checks every init field against its type hint, bounds
    included, then, only if all of them fit, the section's rules across
    fields (``problems``), and raises one ConfigError listing whatever
    broke. A section keeps its document as canonical JSON text
    (``canonical_text``), never as a dict: a report splices that text in,
    and ``json.loads`` of it gives a fresh dict.

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
        """The rules across fields that the section's well-typed fields
        break; a single field's bounds are part of its type."""
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

    t0: Annotated[float, within(-MAX_SECONDS, MAX_SECONDS)] = 0.0
    quantization: float = 1e-6

    def problems(self) -> list[str]:
        if self.quantization and not self.quantization >= MIN_QUANTIZATION:
            return [f"quantization: must be 0 or >= {MIN_QUANTIZATION:g}"]
        return []

    @property
    def quantum(self) -> float:
        """The clock step tolerances are counted in (1 us when rounding is
        disabled)."""
        return self.quantization or 1e-6


@dataclasses.dataclass(frozen=True)
class ChannelConfig(Section):
    """The honest one-way propagation delay tau of each direction, and Bob's
    think time before he answers a two-way exchange, in seconds."""

    tau: Annotated[float, within(0, MAX_SECONDS)] = 2e-3
    processing_delay: Annotated[float, within(0, MAX_SECONDS)] = 1e-3


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
    dt_window: Annotated[int, ge(1)] = 100
    residual_threshold: Annotated[float, ge(1e-12)] = 0.01
    k_range: tuple[int, ...] = (0,)
    input: Literal["voltage"] = "voltage"
    t0_tol_quanta: Annotated[float, ge(0)] = 2.0
    tau_tol_quanta: Annotated[float, ge(0)] = 1.5

    def problems(self) -> list[str]:
        if not self.k_range or min(self.k_range) < 0 or max(self.k_range) >= 2**64:
            return ["k_range: must list at least one BEP index, each in [0, 2**64)"]
        if any(a >= b for a, b in zip(self.k_range, self.k_range[1:])):
            # each BEP is recorded once, and the records follow the timeline
            return ["k_range: must be strictly increasing"]
        return []
