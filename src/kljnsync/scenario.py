"""The runtime state one protocol run operates on.

A Scenario bundles the line physics, both parties' clocks, the scheduled
channel, the shared key ledger, and the configs the protocols read their
parameters from, all derived deterministically from a single seed.
Scenarios are isolated values; any number of them can run concurrently as
long as each is driven by one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .auth import KeyLedger
from .channel import ChannelState, ClockState, Scheduler
from .config import ChannelConfig, ClockConfig, ProtocolConfig
from .line import LineConfig, Party


@dataclass
class Scenario:
    line: LineConfig
    clock_config: ClockConfig
    channel_config: ChannelConfig
    protocol_config: ProtocolConfig
    seed: int
    clocks: dict[Party, ClockState]
    channel: ChannelState
    scheduler: Scheduler
    ledger: KeyLedger
    # line-modification attack state (consulted by the BEP simulation)
    r_wire_schedule: list[tuple[float, float]] = field(default_factory=list)
    # passive eavesdropper observations, appended per BEP when installed
    passive_log: Optional[list] = None
    # per-run artifacts (residual curves, sample traces) for reporting
    diagnostics: dict = field(default_factory=dict)

    def clock(self, party: Party) -> ClockState:
        return self.clocks[party]

    @property
    def quantum(self) -> float:
        """Clock quantum used for tolerance arithmetic (1 us fallback when
        quantization is disabled)."""
        return self.clock_config.quantization or 1e-6


def make_scenario(
    line: LineConfig,
    *,
    seed: int,
    protocol: ProtocolConfig,
    clock: ClockConfig = ClockConfig(),
    channel: ChannelConfig = ChannelConfig(),
    key_bits: int = 8192,
) -> Scenario:
    """Assemble an honest scenario; adversaries are installed afterwards.

    Alice holds the master clock; Bob's clock is off by the constant
    clock.t0. Both channel directions carry the same honest delay
    channel.tau.
    """
    channel_state = ChannelState(delay_a_to_b=channel.tau, delay_b_to_a=channel.tau)
    return Scenario(
        line=line,
        clock_config=clock,
        channel_config=channel,
        protocol_config=protocol,
        seed=seed,
        clocks={Party.ALICE: ClockState(Party.ALICE, 0.0), Party.BOB: ClockState(Party.BOB, clock.t0)},
        channel=channel_state,
        scheduler=Scheduler(channel_state),
        ledger=KeyLedger.generate(key_bits, seed),
    )
