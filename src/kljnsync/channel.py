"""The parties' clocks and a deterministic message channel.

Absolute time is a real-valued quantity owned by the scheduler. Each party
reads it through its own Clock: Alice's is the master and reads absolute
time; Bob's reads it plus a constant offset (Scenario.bob_clock). Messages
cross the channel with one honest propagation delay in either direction
and may be intercepted by adversary hooks that rewrite, delay, or drop
them in flight; only hooks make the channel asymmetric. Every hook action is recorded in the event
log, so no mutation is silent.

Event processing is single-threaded and fully ordered: envelopes deliver in
(deliver_time, insertion_order), making whole runs reproducible byte for
byte.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError, LivelockError

# the most deliveries one run_until_idle may make: a hook that keeps
# resending what it sees would otherwise never let the queue drain
EVENT_BUDGET = 1_000_000


# The clocks and event records a run builds are made with
# tuple.__new__(Type, fields): the very value Type(*fields) gives, without
# the Python frame of the NamedTuple's generated __new__.
class Clock(NamedTuple):
    """A party's clock: absolute time plus offset, rounded to steps of
    resolution seconds (0 disables the rounding)."""

    offset: float
    resolution: float

    def read(self, t: float) -> float:
        """The clock's reading at absolute time t."""
        local = t + self.offset
        if not self.resolution:
            return local
        return round(local / self.resolution) * self.resolution

    def corrected(self, estimate: float) -> Clock:
        """The clock with an estimate of its offset taken off."""
        return tuple.__new__(Clock, (self.offset - estimate, self.resolution))


class Direction(enum.Enum):
    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


@dataclass(slots=True)
class Envelope:
    payload: object
    sent_absolute: float
    deliver_absolute: float
    direction: Direction
    # the payload's digest, given by its sender or taken once when the
    # scheduler sends it, and again only when a hook substitutes the payload
    digest: str = "-"

    def __post_init__(self):
        if self.deliver_absolute < self.sent_absolute:
            raise ConfigError("envelope: deliver_absolute precedes sent_absolute")


class EventRecord(NamedTuple):
    absolute: float
    kind: str
    direction: str
    digest: str


def payload_digest(payload: object) -> str:
    """The hex SHA-256 of payload's canonical_bytes(), or of its repr. A
    payload that keeps its hash offers a copy of the state as sha256(),
    which is read instead of hashing the payload again."""
    kept = getattr(payload, "sha256", None)
    if kept is not None:
        return kept().hexdigest()
    canon = getattr(payload, "canonical_bytes", None)
    blob = canon() if callable(canon) else repr(payload).encode()
    return hashlib.sha256(blob).hexdigest()


def format_event_log(log: list[EventRecord]) -> str:
    """One event per line: absolute time, direction, kind, payload digest."""
    return "".join([f"{absolute:.9f} {direction} {kind} {digest}\n" for absolute, kind, direction, digest in log])


class Scheduler:
    """Single-threaded event queue over one channel whose honest one-way
    delay is tau in either direction.

    hooks are called in order on every envelope sent (see send). Handlers
    passed to run_until_idle may send new envelopes; ties in delivery time
    break by insertion order. EVENT_BUDGET guards against livelock.
    """

    def __init__(self, tau: float):
        self.tau = tau
        self.hooks: list[Callable[[Envelope], Optional[Envelope]]] = []
        self.log: list[EventRecord] = []
        self._queue: list[tuple[float, int, Envelope]] = []
        self._seq = 0

    def record(self, absolute: float, kind: str, direction: str = "-", digest: str = "-") -> None:
        """Log an event; digest is its payload's payload_digest, "-" for none."""
        self.log.append(tuple.__new__(EventRecord, (absolute, kind, direction, digest)))

    def send(
        self, payload: object, direction: Direction, now_absolute: float, digest: Optional[str] = None
    ) -> Optional[Envelope]:
        """Schedule a message; adversary hooks may rewrite, delay, or drop it.

        digest is payload_digest(payload) when the sender has it already, as
        one that has just hashed the payload for its tag does; it is only
        logged. Returns the scheduled envelope, or None when a hook dropped it
        (drops are recorded, never raised).
        """
        # _value_ is the member's value, read without the call Enum's value
        # property makes; the send and deliver records are appended here,
        # one call less each than through record
        leg = direction._value_
        if digest is None:
            digest = payload_digest(payload)
        env = Envelope(payload, now_absolute, now_absolute + self.tau, direction, digest)
        self.log.append(tuple.__new__(EventRecord, (now_absolute, "send", leg, digest)))

        for hook in self.hooks:
            before_payload = env.payload
            before_deliver = env.deliver_absolute
            result = hook(env)
            if result is None:
                self.record(env.deliver_absolute, "attack-drop", leg, env.digest)
                return None
            env = result
            if env.payload is not before_payload:
                env.digest = payload_digest(env.payload)
                self.record(env.sent_absolute, "attack-substitute", leg, env.digest)
            if env.deliver_absolute != before_deliver:
                self.record(env.sent_absolute, "attack-delay", leg, env.digest)
            # hooks cannot push delivery before the send instant
            if env.deliver_absolute < env.sent_absolute:
                env.deliver_absolute = env.sent_absolute

        heapq.heappush(self._queue, (env.deliver_absolute, self._seq, env))
        self._seq += 1
        return env

    def run_until_idle(self, on_deliver: Callable[[Envelope], None]) -> list[EventRecord]:
        queue, log, processed = self._queue, self.log, 0
        while queue:
            processed += 1
            if processed > EVENT_BUDGET:
                raise LivelockError(f"event budget of {EVENT_BUDGET} exceeded")
            env = heapq.heappop(queue)[2]
            record = (env.deliver_absolute, "deliver", env.direction._value_, env.digest)
            log.append(tuple.__new__(EventRecord, record))
            on_deliver(env)
        return self.log
