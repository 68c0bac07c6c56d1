"""The runtime state one protocol run operates on.

A Scenario holds the validated config it was built from, which the
protocols and attacks read their parameters from, and the state derived
deterministically from it: the two parties' clocks, the scheduled channel
and the shared key ledger. Scenarios are isolated values; any number of
them can run concurrently as long as each is driven by one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .auth import KeyLedger
from .channel import Clock, Scheduler

if TYPE_CHECKING:  # harness imports this module
    from .harness import ScenarioConfig


@dataclass
class Scenario:
    config: ScenarioConfig
    # Alice's clock, the master, reads absolute time; Bob's reads it plus
    # his offset. Protocol C corrects Bob's.
    alice_clock: Clock
    bob_clock: Clock
    scheduler: Scheduler
    ledger: KeyLedger
    # line-modification attack state (consulted by the BEP simulation)
    r_wire_schedule: list[tuple[float, float]] = field(default_factory=list)
    # per-run artifacts (residual curves, sample traces) for reporting
    diagnostics: dict = field(default_factory=dict)


def make_scenario(config: ScenarioConfig) -> Scenario:
    """Assemble the honest scenario of config; its attacks are installed
    afterwards (ScenarioConfig.build_scenario does both).

    Alice holds the master clock; Bob's clock is off by the constant
    clock.t0. Both read in steps of clock.quantization. Both channel
    directions carry the same honest delay channel.tau.
    """
    # the clocks are made with tuple.__new__(Clock, fields), the very value
    # Clock(*fields) gives, without the Python frame of its generated __new__
    clock = config.clock
    return Scenario(
        config=config,
        alice_clock=tuple.__new__(Clock, (0.0, clock.quantization)),
        bob_clock=tuple.__new__(Clock, (clock.t0, clock.quantization)),
        scheduler=Scheduler(config.channel.tau),
        ledger=KeyLedger.generate(config.key_bits, config.seed),
    )
