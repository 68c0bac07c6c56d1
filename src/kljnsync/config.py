"""The scenario config schema: typed sections and the one validator.

Every section of a scenario config document is a frozen dataclass whose
fields are named after its JSON keys, and each default is written once, on
its field. ``read`` turns a document into those objects and fails closed:
it collects every unknown key, missing required key, wrongly typed value
and out-of-bounds value into a single ConfigError. Field types are checked
when an object is constructed (each section's ``__post_init__`` calls
``check_fields`` before its own bounds), so objects built in code are held
to the same rules as documents:

  float           a finite number; bools are not numbers
  int             an integer, not a bool and not 2.0
  bool, str       exactly that
  Literal[...]    one of the listed strings
  Optional[X]     null, or an X
  tuple[X, ...]   a JSON list of X
  a dataclass     a JSON object with that dataclass's keys
  a Union of dataclasses
                  an object whose "kind" names one of them by class name
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing
from typing import Literal, Optional

from .errors import ConfigError

_FAILED = object()  # a read that recorded its problems and produced nothing


def _type_check(hint):
    """A function value -> problem text (None when the value fits hint)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        def check(value):
            if isinstance(value, float):
                return None if math.isfinite(value) else "must be finite"
            if type(value) is int:  # not a bool
                return None if abs(value) <= sys.float_info.max else "must be finite"
            return "must be a number"
    elif hint is int:
        def check(value):
            return None if type(value) is int else "must be an integer"
    elif origin is Literal:
        text = "must be one of " + ", ".join(args)

        def check(value):
            return None if isinstance(value, str) and value in args else text
    elif origin is tuple:
        item = _type_check(args[0])

        def check(value):
            if not isinstance(value, tuple):
                return "must be a list"
            for n, x in enumerate(value):
                problem = item(x)
                if problem:
                    return f"item {n} {problem}"
            return None
    elif origin is typing.Union and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        inner_check = _type_check(inner)

        def check(value):
            return None if value is None else inner_check(value)
    else:  # bool, str, a dataclass, a Union of dataclasses
        classes = args if origin is typing.Union else (hint,)
        text = "must be " + " or ".join(c.__name__ for c in classes)

        def check(value):
            return None if isinstance(value, classes) else text
    return check


def _reader(hint):
    """A function (value, path, problems) -> object that turns the JSON form
    of hint into its Python form, or None when the JSON form is already it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return lambda value, path, problems: _read(hint, value, path, problems)
    if origin is tuple:
        item = _reader(args[0])

        def read_list(value, path, problems):
            if not isinstance(value, list):
                return value  # construction reports it
            if item is None:
                return tuple(value)
            items = tuple(item(x, f"{path}.{n}", problems) for n, x in enumerate(value))
            return _FAILED if any(x is _FAILED for x in items) else items

        return read_list
    if origin is typing.Union and all(dataclasses.is_dataclass(a) for a in args):
        kinds = {a.__name__: a for a in args}
        text = "must be one of " + ", ".join(kinds)

        def read_tagged(value, path, problems):
            if not isinstance(value, dict):
                problems.append(f"{path}: expected an object")
                return _FAILED
            kind = value.get("kind")
            cls = kinds.get(kind) if isinstance(kind, str) else None
            if cls is None:
                problems.append(f"{path}.kind: {text}")
                return _FAILED
            return _read(cls, {k: v for k, v in value.items() if k != "kind"}, path, problems)

        return read_tagged
    return None


@functools.cache
def _schema(cls) -> dict:
    """name -> (required, reader, type check) for every init field of cls;
    type hints are resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            _reader(hints[f.name]),
            _type_check(hints[f.name]),
        )
        for f in dataclasses.fields(cls)
        if f.init
    }


def check_fields(obj) -> None:
    """Raise ConfigError naming every field of obj whose value breaks its
    type hint. Sections call this first in ``__post_init__``."""
    problems = [
        f"{name}: {problem}"
        for name, (_, _, check) in _schema(type(obj)).items()
        if (problem := check(getattr(obj, name)))
    ]
    if problems:
        raise ConfigError(problems)


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


def to_doc(obj) -> dict:
    """The JSON document of a section: every field, defaults included, so
    two documents that read into equal sections get equal documents.
    Nested sections become documents and a tuple becomes a list. A section
    in a list is an item of a union (an attack): it becomes its "kind" plus
    the fields that differ from their defaults.

    The document is built once per section object and kept on it; each
    call returns a copy that shares no dict or list with another."""
    doc = dict(derived(obj, "_doc", _build_doc))
    for name, value in doc.items():
        if type(value) is dict:  # a nested section
            doc[name] = to_doc(getattr(obj, name))
        elif type(value) is list:  # scalars, or attack documents
            doc[name] = [dict(x) if type(x) is dict else x for x in value]
    return doc


def derived(section, name: str, compute):
    """compute(section), computed once per section object and kept on it
    under name: sections are frozen, so what they derive never changes."""
    value = section.__dict__.get(name)
    if value is None:  # stored as functools.cached_property stores, past __setattr__
        value = section.__dict__[name] = compute(section)
    return value


def _build_doc(obj) -> dict:
    # shared by the documents of the sections that hold obj, so never handed out
    doc = {}
    for name, (_, read, _) in _schema(type(obj)).items():
        value = getattr(obj, name)
        if isinstance(value, tuple):
            value = [derived(x, "_tagged", _tagged_doc) if dataclasses.is_dataclass(x) else x for x in value]
        elif read is not None:  # a nested section
            value = derived(value, "_doc", _build_doc)
        doc[name] = value
    return doc


def _tagged_doc(obj) -> dict:
    defaults = {f.name: f.default for f in dataclasses.fields(obj)}
    doc = derived(obj, "_doc", _build_doc)
    return {"kind": type(obj).__name__, **{k: v for k, v in doc.items() if v != defaults[k]}}


@dataclasses.dataclass(frozen=True)
class ClockConfig:
    """Bob's clock runs t0 seconds ahead of Alice's master clock; both read
    in steps of quantization seconds (null or 0 disables the rounding)."""

    t0: float = 0.0
    quantization: Optional[float] = 1e-6

    def __post_init__(self):
        check_fields(self)
        if self.quantization is not None and self.quantization < 0:
            raise ConfigError("quantization: must be null or >= 0")


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """The honest one-way propagation delay tau of each direction, and Bob's
    think time before he answers a two-way exchange, in seconds."""

    tau: float = 2e-3
    processing_delay: float = 1e-3

    def __post_init__(self):
        check_fields(self)
        problems = [f"{name}: must be >= 0" for name in ("tau", "processing_delay") if getattr(self, name) < 0]
        if problems:
            raise ConfigError(problems)


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """Which protocol runs, and its parameters.

    The alignment search of protocol C tries every shift on the sample
    lattice that keeps half of a record overlapping, driving the wire model
    with the record named by input, over the BEPs in k_range; the run is
    flagged when no shift gets the residual to residual_threshold. The
    report keeps the residual curve over +-dt_window samples around its
    minimum. The combined check's probe
    must then find the offset within t0_tol_quanta clock quanta of zero and
    the delay within tau_tol_quanta quanta of the channel's tau.
    """

    kind: Literal["A", "B", "C", "Combined"]
    dt_window: int = 100
    residual_threshold: float = 0.01
    k_range: tuple[int, ...] = (0,)
    input: Literal["voltage", "current"] = "voltage"
    t0_tol_quanta: float = 2.0
    tau_tol_quanta: float = 1.5

    def __post_init__(self):
        check_fields(self)
        problems = []
        if self.dt_window < 1:
            problems.append("dt_window: must be >= 1")
        if self.residual_threshold < 1e-12:
            problems.append("residual_threshold: must be >= 1e-12")
        if not self.k_range or min(self.k_range) < 0:
            problems.append("k_range: must list at least one BEP index, each >= 0")
        for name in ("t0_tol_quanta", "tau_tol_quanta"):
            if getattr(self, name) < 0:
                problems.append(f"{name}: must be >= 0")
        if problems:
            raise ConfigError(problems)
