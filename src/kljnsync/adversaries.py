"""Eve's strategies, installed as channel hooks or line mutations.

Four behaviors are modeled. A passive Eve only listens: she can classify a
BEP as mixed but the two mixed arrangements look identical to her, so her
best move is a coin flip. A substituting Eve rewrites message fields or
file samples in flight (she can also drop envelopes outright). A delaying
Eve adds a constant to one channel direction, which biases two-way time
transfer by half the added delay without touching any content. A
line-modifying Eve changes the channel itself - the wire resistance during
a record, or the propagation delay - which leaves authentication intact but
breaks either the wire-model residual or the delay monitoring.

Hooks run synchronously inside the scheduler and every action they take is
recorded in the event log.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Literal, Optional, Union

import numpy as np

from .auth import AuthTag
from .channel import Direction, Envelope, Scheduler
from .config import check_fields
from .errors import ConfigError, ConflictingAttackError, InconsistentStateError
from .line import BepMeasurement, BitState, LineConfig, Party, classify_bep
from .noise import NoiseTrace, derive_seed
from .protocols import MESSAGE_FIELDS, FileTransfer, MessageKind, SyncMessage, bep_start_time
from .scenario import Scenario


@dataclass(frozen=True)
class Passive:
    """Eve only listens, logging each BEP's levels and guessing its bit."""

    def apply(self, scenario: Scenario, n: int) -> None:
        if scenario.passive_log is None:
            scenario.passive_log = []


@dataclass(frozen=True)
class AsymDelay:
    """Eve adds delta seconds to every message on one leg."""

    leg: Literal["AtoB", "BtoA"]
    delta: float

    def __post_init__(self):
        check_fields(self)
        if self.delta < 0:
            raise ConfigError("delta: must be >= 0")

    def apply(self, scenario: Scenario, n: int) -> None:
        scenario.channel.hooks.append(_asym_delay_hook(Direction(self.leg), self.delta))


@dataclass(frozen=True)
class Substitute:
    """Eve rewrites or removes what crosses the channel.

    A message target ('TimeStamp', 'Response', 'Share') gets its field
    replaced by value or shifted by delta, or is removed when drop is set;
    the original tag rides along unless fabricate_tag asks for a random one.
    The target 'file' tampers with the measurement files sent in direction:
    mode 'alter_sample' adds delta (1 + |sample| when delta is unset or 0)
    to sample sample_index, 'replay' swaps in the first file seen on that
    direction with its genuine old tag, and 'drop' removes the transfer.
    """

    target: Literal["TimeStamp", "Response", "Share", "file"]
    field: Optional[str] = None
    value: Optional[float] = None
    delta: Optional[float] = None
    fabricate_tag: bool = False
    drop: bool = False
    mode: Literal["alter_sample", "replay", "drop"] = "alter_sample"
    sample_index: int = 0
    direction: Literal["AtoB", "BtoA"] = "AtoB"

    def __post_init__(self):
        check_fields(self)
        problems = []
        if self.target == "file":
            unused = ("field", "value", "drop")
        else:
            unused = ("mode", "sample_index", "direction")
            names = MESSAGE_FIELDS[MessageKind(self.target)]
            if self.field is None and not self.drop:
                problems.append("field: required unless drop is set")
            elif self.field is not None and self.field not in names:
                problems.append(f"field: a {self.target} message has only {', '.join(names)}")
            if self.value is not None and self.delta is not None:
                problems.append("value: give value or delta, not both")
        for name in unused:
            if getattr(self, name) != Substitute.__dataclass_fields__[name].default:
                problems.append(f"{name}: not used with target {self.target!r}")
        if problems:
            raise ConfigError(problems)

    def apply(self, scenario: Scenario, n: int) -> None:
        # only a fabricated tag draws: from the stream of the attack's place n
        rng = np.random.default_rng(derive_seed(scenario.seed, 0xE5E, n)) if self.fabricate_tag else None
        hook = _substitute_file_hook if self.target == "file" else _substitute_message_hook
        scenario.channel.hooks.append(hook(self, rng))


@dataclass(frozen=True)
class LineMod:
    """Eve changes the line itself at a chosen instant.

    Exactly one of r_wire (ohms), r_wire_factor (times the configured
    R_wire) or tau (the new one-way delay, seconds) says what changes. The
    change starts at absolute time at_time, or at the given fraction of
    BEP at_bep's record window.
    """

    r_wire: Optional[float] = None
    r_wire_factor: Optional[float] = None
    tau: Optional[float] = None
    at_time: Optional[float] = None
    at_bep: Optional[int] = None
    fraction: float = 0.5

    def __post_init__(self):
        check_fields(self)
        problems = []
        if sum(x is not None for x in (self.r_wire, self.r_wire_factor, self.tau)) != 1:
            problems.append("r_wire: choose exactly one of r_wire, r_wire_factor, tau")
        if (self.at_time is None) == (self.at_bep is None):
            problems.append("at_time: choose exactly one of at_time, at_bep")
        for name in ("r_wire", "r_wire_factor", "tau", "at_bep"):
            if (getattr(self, name) or 0) < 0:
                problems.append(f"{name}: must be >= 0")
        if not 0.0 <= self.fraction <= 1.0:
            problems.append("fraction: must be in [0, 1]")
        if problems:
            raise ConfigError(problems)

    def apply(self, scenario: Scenario, n: int) -> None:
        at = self.at_time
        if at is None:
            at = bep_start_time(scenario, self.at_bep) + self.fraction * scenario.line.bep_duration
        if self.tau is not None:
            scenario.channel.hooks.append(_tau_mod_hook(self.tau, at))
            scenario.scheduler.record(at, "attack-linemod-tau")
            return
        new_r = self.r_wire if self.r_wire is not None else scenario.line.R_wire * self.r_wire_factor
        if any(t == at for t, _ in scenario.r_wire_schedule):
            raise ConflictingAttackError(f"two line modifications at t={at}")
        scenario.r_wire_schedule.append((at, new_r))
        scenario.scheduler.record(at, "attack-linemod-rwire")


Attack = Union[Passive, AsymDelay, Substitute, LineMod]


# ---------------------------------------------------------------------------
# hook construction
# ---------------------------------------------------------------------------


def _asym_delay_hook(leg: Direction, delta: float):
    def hook(env: Envelope, sched: Scheduler):
        if env.direction is leg:
            env.deliver_absolute += delta
        return env

    return hook


def _substitute_message_hook(spec: Substitute, rng: Optional[np.random.Generator]):
    def hook(env: Envelope, sched: Scheduler):
        msg = env.payload
        if not isinstance(msg, SyncMessage) or msg.kind.value != spec.target:
            return env
        if spec.drop:
            return None
        fname = spec.field
        if spec.value is not None:
            new_value = spec.value
        else:
            new_value = getattr(msg, fname) + (spec.delta or 0.0)
        changes = {fname: new_value}
        if spec.fabricate_tag and msg.tag is not None:
            changes["tag"] = AuthTag(rng.bytes(32), msg.tag.span)
        env.payload = dc_replace(msg, **changes)
        return env

    return hook


def _substitute_file_hook(spec: Substitute, rng: Optional[np.random.Generator]):
    direction = Direction(spec.direction)
    memory: list[FileTransfer] = []

    def hook(env: Envelope, sched: Scheduler):
        transfer = env.payload
        if not isinstance(transfer, FileTransfer) or env.direction is not direction:
            return env
        mode = spec.mode
        if mode == "drop":
            return None
        if mode == "replay":
            if memory:
                stale = memory[0]
                env.payload = stale
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
    def hook(env: Envelope, sched: Scheduler):
        if env.sent_absolute >= at_time:
            env.deliver_absolute = env.sent_absolute + new_tau
        return env

    return hook


def install(attacks, scenario: Scenario) -> Scenario:
    """Install one attack spec (or a list, applied in order) into a scenario.

    Substitutions and delays become channel hooks; wire-resistance changes
    append to the scenario's line-modification schedule; a passive Eve just
    gets a notebook. Two wire modifications at the same instant conflict.
    An attack learns its place n in the list; an attack that draws random
    values seeds them from the scenario seed and n.
    """
    if not isinstance(attacks, (list, tuple)):
        attacks = [attacks]
    for n, attack in enumerate(attacks):
        attack.apply(scenario, n)
    return scenario


def passive_bit_guess(
    voltage_trace: NoiseTrace,
    current_trace: NoiseTrace,
    config: LineConfig,
    seed: int,
) -> int:
    """Eve's best channel-only guess at the key bit of a mixed BEP.

    She can confirm the BEP is mixed from the mean-square level, but the
    two mixed arrangements produce identical statistics, so the guess is a
    seeded coin flip. Raises InconsistentStateError when the measurement
    does not classify as mixed.
    """
    meas = BepMeasurement(
        party=Party.ALICE,  # Eve taps the wire; with a short line all points look alike
        bep_index=0,
        local_start_time=0.0,
        voltage_trace=voltage_trace,
        current_trace=current_trace,
    )
    state = classify_bep(meas, config)
    if state is not BitState.MIXED:
        raise InconsistentStateError(f"passive guessing requires a mixed BEP, got {state.value}")
    rng = np.random.default_rng(derive_seed(seed, 0xEFE))
    return int(rng.integers(2))
