"""The runtime state one protocol run operates on.

A Scenario holds the validated config it was built from, which the
protocols and attacks read their parameters from, and the state derived
deterministically from it: both parties' clocks, the scheduled channel and
the shared key ledger. Scenarios are isolated values; any number of them
can run concurrently as long as each is driven by one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .auth import KeyLedger
from .channel import ChannelState, ClockState, Scheduler
from .line import Party

if TYPE_CHECKING:  # harness imports this module
    from .harness import ScenarioConfig


@dataclass
class Scenario:
    config: ScenarioConfig
    clocks: dict[Party, ClockState]
    channel: ChannelState
    scheduler: Scheduler
    ledger: KeyLedger
    # line-modification attack state (consulted by the BEP simulation)
    r_wire_schedule: list[tuple[float, float]] = field(default_factory=list)
    # per-run artifacts (residual curves, sample traces) for reporting
    diagnostics: dict = field(default_factory=dict)

    @property
    def quantum(self) -> float:
        """Clock quantum used for tolerance arithmetic (1 us fallback when
        quantization is disabled)."""
        return self.config.clock.quantization or 1e-6


def make_scenario(config: ScenarioConfig) -> Scenario:
    """Assemble the honest scenario of config; its attacks are installed
    afterwards (ScenarioConfig.build_scenario does both).

    Alice holds the master clock; Bob's clock is off by the constant
    clock.t0. Both channel directions carry the same honest delay
    channel.tau.
    """
    tau = config.channel.tau
    channel_state = ChannelState(delay_a_to_b=tau, delay_b_to_a=tau)
    return Scenario(
        config=config,
        clocks={Party.ALICE: ClockState(Party.ALICE, 0.0), Party.BOB: ClockState(Party.BOB, config.clock.t0)},
        channel=channel_state,
        scheduler=Scheduler(channel_state),
        ledger=KeyLedger.generate(config.key_bits, config.seed),
    )
