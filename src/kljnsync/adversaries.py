"""Eve's strategies, installed as channel hooks or line mutations.

A scenario config lists its attacks, of three kinds. A substituting Eve
rewrites message fields or file samples in flight (she can also drop
envelopes outright). A delaying Eve adds a constant to one channel
direction, which biases two-way time transfer by half the added delay
without touching any content. A line-modifying Eve changes the channel
itself - the wire resistance during a record, or the propagation delay -
which leaves authentication intact but breaks either the wire-model
residual or the delay monitoring.

Hooks run synchronously inside the scheduler and every action they take is
recorded in the event log.

A passive Eve only listens: passive_bit_guess gives her best guess at a
mixed BEP's key bit. She can classify a BEP as mixed, but the two mixed
arrangements look identical to her, so her best move is a coin flip.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace as dc_replace
from typing import TYPE_CHECKING, Annotated, Literal, Optional, Union

import numpy as np

from .auth import AuthTag
from .channel import Direction, Envelope
from .config import MAX_SECONDS, Section, ge, within
from .errors import InconsistentStateError
from .line import BepMeasurement, BitState, LineConfig, classify_bep
from .noise import derive_seed
from .protocols import FileTransfer, MessageKind, SyncMessage, bep_start_time
from .scenario import Scenario

if TYPE_CHECKING:  # harness imports this module
    from .harness import ScenarioConfig


@dataclass(frozen=True)
class AsymDelay(Section):
    """Eve adds delta seconds to every message on one leg."""

    tagged = True

    leg: Literal["AtoB", "BtoA"]
    delta: Annotated[float, within(0, MAX_SECONDS)]

    def apply(self, scenario: Scenario, n: int) -> None:
        scenario.scheduler.hooks.append(_asym_delay_hook(Direction(self.leg), self.delta))


@dataclass(frozen=True)
class Substitute(Section):
    """Eve rewrites or removes what crosses the channel.

    drop removes the payload, for any target. Otherwise a message target
    ('TimeStamp', 'Response', 'Share') gets its field shifted by delta, and
    the original tag rides along unless fabricate_tag asks for a random one;
    one of the two must change the message, so delta is nonzero unless
    fabricate_tag is set.
    The target 'file' tampers with the measurement files sent in direction:
    mode 'alter_sample' adds delta (1 + |sample| when delta is unset or 0)
    to sample sample_index, and 'replay' swaps in the first file seen on
    that direction with its genuine old tag.

    A key the chosen spelling does not read must keep its default: field
    for a file, mode, sample_index and direction for a message; with drop
    every key but target (and a file's direction); with replay delta,
    sample_index and fabricate_tag.
    """

    tagged = True

    target: Literal["TimeStamp", "Response", "Share", "file"]
    field: Optional[str] = None
    delta: Optional[float] = None
    fabricate_tag: bool = False
    drop: bool = False
    mode: Literal["alter_sample", "replay"] = "alter_sample"
    sample_index: int = 0
    direction: Literal["AtoB", "BtoA"] = "AtoB"

    def problems(self) -> list[str]:
        problems, unused = [], {}  # unused: key -> the first spelling found that leaves it unread

        def unread(why: str, *names: str) -> None:
            for name in names:
                unused.setdefault(name, why)

        if self.drop:
            unread("drop", "field", "delta", "fabricate_tag", "mode", "sample_index")
        if self.target == "file":
            unread("target 'file'", "field")
            if self.mode == "replay":
                unread("mode 'replay'", "delta", "sample_index", "fabricate_tag")
        else:
            unread(f"target {self.target!r}", "mode", "sample_index", "direction")
            names = MessageKind(self.target).fields
            if not self.drop and self.field not in names:
                problems.append(
                    "field: required unless drop is set" if self.field is None
                    else f"field: a {self.target} message has only {', '.join(names)}"
                )
            if not (self.drop or self.fabricate_tag or self.delta):
                # the message would cross unchanged, and the run report clean
                problems.append("delta: must be nonzero unless drop or fabricate_tag is set")
        defaults = {f.name: f.default for f in fields(self)}
        return problems + [f"{k}: not used with {why}" for k, why in unused.items() if getattr(self, k) != defaults[k]]

    def apply(self, scenario: Scenario, n: int) -> None:
        # only a fabricated tag draws: from the stream of the attack's place n
        rng = np.random.default_rng(derive_seed(scenario.config.seed, 0xE5E, n)) if self.fabricate_tag else None
        hook = _substitute_file_hook if self.target == "file" else _substitute_message_hook
        scenario.scheduler.hooks.append(hook(self, rng))


@dataclass(frozen=True)
class LineMod(Section):
    """Eve changes the line itself at a chosen instant.

    Exactly one of r_wire_factor (the new wire resistance, in multiples of
    the configured R_wire) or tau (the new one-way delay, seconds) says
    what changes. The change starts at absolute time at_time, or at the
    given fraction of BEP at_bep's record window.
    """

    tagged = True

    r_wire_factor: Optional[Annotated[float, ge(0)]] = None
    tau: Optional[Annotated[float, within(0, MAX_SECONDS)]] = None
    at_time: Optional[Annotated[float, within(-MAX_SECONDS, MAX_SECONDS)]] = None
    at_bep: Optional[Annotated[int, ge(0)]] = None
    fraction: Annotated[float, within(0, 1)] = 0.5

    def problems(self) -> list[str]:
        problems = []
        if (self.r_wire_factor is None) == (self.tau is None):
            problems.append("r_wire_factor: choose exactly one of r_wire_factor, tau")
        if (self.at_time is None) == (self.at_bep is None):
            problems.append("at_time: choose exactly one of at_time, at_bep")
        return problems

    def instant(self, config: ScenarioConfig) -> float:
        """The absolute time the change starts under a scenario config."""
        if self.at_time is not None:
            return self.at_time
        return bep_start_time(config, self.at_bep) + self.fraction * config.line.bep_duration

    def apply(self, scenario: Scenario, n: int) -> None:
        at = self.instant(scenario.config)
        if self.tau is not None:
            scenario.scheduler.hooks.append(_tau_mod_hook(self.tau, at))
            scenario.scheduler.record(at, "attack-linemod-tau")
            return
        scenario.r_wire_schedule.append((at, scenario.config.line.R_wire * self.r_wire_factor))
        scenario.scheduler.record(at, "attack-linemod-rwire")


Attack = Union[AsymDelay, Substitute, LineMod]


# ---------------------------------------------------------------------------
# hook construction
# ---------------------------------------------------------------------------


def _asym_delay_hook(leg: Direction, delta: float):
    def hook(env: Envelope):
        if env.direction is leg:
            env.deliver_absolute += delta
        return env

    return hook


def _substitute_message_hook(spec: Substitute, rng: Optional[np.random.Generator]):
    def hook(env: Envelope):
        msg = env.payload
        # _value_ is the kind's value, read without the call Enum's value
        # property makes
        if not isinstance(msg, SyncMessage) or msg.kind._value_ != spec.target:
            return env
        if spec.drop:
            return None
        changes = {spec.field: getattr(msg, spec.field) + (spec.delta or 0.0)}
        if spec.fabricate_tag and msg.tag is not None:
            changes["tag"] = AuthTag(rng.bytes(32), msg.tag.span)
        # the message's own copy: checked and encoded afresh
        env.payload = msg._replace(**changes)
        return env

    return hook


def _substitute_file_hook(spec: Substitute, rng: Optional[np.random.Generator]):
    direction = Direction(spec.direction)
    memory: list[FileTransfer] = []

    def hook(env: Envelope):
        transfer = env.payload
        if not isinstance(transfer, FileTransfer) or env.direction is not direction:
            return env
        if spec.drop:
            return None
        if spec.mode == "replay":
            if memory:
                env.payload = memory[0]
            else:
                memory.append(transfer)  # first transfer passes, gets remembered
            return env
        # alter_sample
        volts = transfer.file.voltage_samples.copy()
        idx = spec.sample_index % len(volts)
        volts[idx] += spec.delta if spec.delta else 1.0 + abs(volts[idx])
        forged_file = dc_replace(transfer.file, voltage_samples=volts)
        tag = transfer.tag
        if spec.fabricate_tag:
            tag = AuthTag(rng.bytes(len(tag.ciphertext)), tag.span)
        env.payload = FileTransfer(forged_file, tag)
        return env

    return hook


def _tau_mod_hook(new_tau: float, at_time: float):
    def hook(env: Envelope):
        if env.sent_absolute >= at_time:
            env.deliver_absolute = env.sent_absolute + new_tau
        return env

    return hook


def install(attacks: tuple[Attack, ...], scenario: Scenario) -> None:
    """Install a config's attacks into the scenario built from it.

    Substitutions and delays become channel hooks; wire-resistance changes
    append to the scenario's line-modification schedule. Line changes go
    first, in the order of their instants, so the line's delay at a send
    is the latest tau change at or before it and an AsymDelay adds on top
    of it, however the attacks are listed. Each attack learns its place n
    in the list; an attack that draws random values seeds them from the
    scenario seed and n.
    """

    def rank(item: tuple[int, Attack]) -> tuple[int, float]:
        attack = item[1]  # sorted is stable: the other attacks keep their order
        return (0, attack.instant(scenario.config)) if isinstance(attack, LineMod) else (1, 0.0)

    for n, attack in sorted(enumerate(attacks), key=rank):
        attack.apply(scenario, n)


def passive_bit_guess(meas: BepMeasurement, config: LineConfig, seed: int) -> int:
    """Eve's best channel-only guess at the key bit of a mixed BEP, from
    a record of the line (with a short line every tap point looks alike).

    She can confirm the BEP is mixed from the mean-square level, but the
    two mixed arrangements produce identical statistics, so the guess is a
    seeded coin flip. Raises InconsistentStateError when the measurement
    does not classify as mixed.
    """
    state = classify_bep(meas, config)
    if state is not BitState.MIXED:
        raise InconsistentStateError(f"passive guessing requires a mixed BEP, got {state.value}")
    rng = np.random.default_rng(derive_seed(seed, 0xEFE))
    return int(rng.integers(2))
