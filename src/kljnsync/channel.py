"""Per-party clocks and a deterministic message channel.

Absolute time is a real-valued quantity owned by the scheduler. Each party
reads it through its own clock, which differs from absolute time by a
constant offset (the master clock's offset is zero). Messages cross the
channel with a per-direction propagation delay and may be intercepted by
adversary hooks that rewrite, delay, or drop them in flight; every hook
action is recorded in the event log, so no mutation is silent.

Event processing is single-threaded and fully ordered: envelopes deliver in
(deliver_time, insertion_order), making whole runs reproducible byte for
byte.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError, LivelockError
from .line import Party


def quantize(t: float, resolution: Optional[float]) -> float:
    """Round a timestamp to the clock resolution; None or 0 disables."""
    if not resolution:
        return t
    return round(t / resolution) * resolution


@dataclass
class ClockState:
    """local_time = absolute_time + offset_t0; the master has offset 0."""

    party: Party
    offset_t0: float = 0.0

    def local_time(self, absolute: float) -> float:
        return absolute + self.offset_t0

    def absolute_time(self, local: float) -> float:
        return local - self.offset_t0


class Direction(enum.Enum):
    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


@dataclass(slots=True)
class Envelope:
    payload: object
    sent_absolute: float
    deliver_absolute: float
    direction: Direction
    dropped: bool = False
    # the payload's digest, taken once when the scheduler sends it and
    # again only when a hook substitutes the payload
    digest: str = "-"

    def __post_init__(self):
        if self.deliver_absolute < self.sent_absolute:
            raise ConfigError("envelope: deliver_absolute precedes sent_absolute")


@dataclass
class ChannelState:
    delay_a_to_b: float
    delay_b_to_a: float
    hooks: list = field(default_factory=list)

    def __post_init__(self):
        if self.delay_a_to_b < 0 or self.delay_b_to_a < 0:
            raise ConfigError("channel delays must be >= 0")

    def delay(self, direction: Direction) -> float:
        return self.delay_a_to_b if direction is Direction.A_TO_B else self.delay_b_to_a


class EventRecord(NamedTuple):
    absolute: float
    kind: str
    direction: str
    digest: str


def payload_digest(payload: object) -> str:
    canon = getattr(payload, "canonical_bytes", None)
    blob = canon() if callable(canon) else repr(payload).encode()
    return hashlib.sha256(blob).hexdigest()


def format_event_log(log: list[EventRecord]) -> str:
    """One event per line: absolute time, direction, kind, payload digest."""
    return "".join(f"{rec.absolute:.9f} {rec.direction} {rec.kind} {rec.digest}\n" for rec in log)


class Scheduler:
    """Single-threaded event queue over one channel.

    Handlers passed to run_until_idle may send new envelopes; ties in
    delivery time break by insertion order. A configurable event budget
    guards against livelock.
    """

    def __init__(self, channel: ChannelState, event_budget: int = 1_000_000):
        self.channel = channel
        self.event_budget = event_budget
        self.log: list[EventRecord] = []
        self._queue: list[tuple[float, int, Envelope]] = []
        self._seq = 0

    def record(self, absolute: float, kind: str, direction: str = "-", digest: str = "-") -> None:
        """Log an event; digest is its payload's payload_digest, "-" for none."""
        self.log.append(EventRecord(absolute, kind, direction, digest))

    def send(self, payload: object, direction: Direction, now_absolute: float) -> Optional[Envelope]:
        """Schedule a message; adversary hooks may rewrite, delay, or drop it.

        Returns the scheduled envelope, or None when a hook dropped it
        (drops are recorded, never raised).
        """
        env = Envelope(
            payload=payload,
            sent_absolute=now_absolute,
            deliver_absolute=now_absolute + self.channel.delay(direction),
            direction=direction,
            digest=payload_digest(payload),
        )
        self.record(now_absolute, "send", direction.value, env.digest)

        for hook in self.channel.hooks:
            before_payload = env.payload
            before_deliver = env.deliver_absolute
            result = hook(env, self)
            if result is None:
                self.record(env.deliver_absolute, "attack-drop", direction.value, env.digest)
                return None
            env = result
            if env.payload is not before_payload:
                env.digest = payload_digest(env.payload)
                self.record(env.sent_absolute, "attack-substitute", direction.value, env.digest)
            if env.deliver_absolute != before_deliver:
                self.record(env.sent_absolute, "attack-delay", direction.value, env.digest)
            # hooks cannot push delivery before the send instant
            if env.deliver_absolute < env.sent_absolute:
                env.deliver_absolute = env.sent_absolute

        heapq.heappush(self._queue, (env.deliver_absolute, self._seq, env))
        self._seq += 1
        return env

    def run_until_idle(self, on_deliver: Callable[["Scheduler", Envelope], None]) -> list[EventRecord]:
        processed = 0
        while self._queue:
            processed += 1
            if processed > self.event_budget:
                raise LivelockError(f"event budget of {self.event_budget} exceeded")
            _, _, env = heapq.heappop(self._queue)
            self.record(env.deliver_absolute, "deliver", env.direction.value, env.digest)
            on_deliver(self, env)
        return self.log

    def deliveries(self) -> list[EventRecord]:
        return [rec for rec in self.log if rec.kind == "deliver"]
