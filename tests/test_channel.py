import hashlib

import numpy as np
import pytest

from kljnsync import channel
from kljnsync.channel import Clock, Direction, Envelope, Scheduler, format_event_log
from kljnsync.errors import ConfigError, LivelockError
from kljnsync.harness import load_bundled
from kljnsync.protocols import protocol_a


def test_local_time_is_offset_translation():
    # Alice's stamps read absolute time, Bob's absolute time plus clock.t0
    config = load_bundled("honest_protocol_a")
    q, t0 = config.clock.quantization, config.clock.t0
    sc = config.build_scenario()
    alice, bob = Clock(0.0, q), Clock(t0, q)
    assert (sc.alice_clock, sc.bob_clock) == (alice, bob)
    seen = []  # (message, arrival) of every envelope; the hook passes each on
    sc.scheduler.hooks.append(lambda env: seen.append((env.payload, env.deliver_absolute)) or env)
    protocol_a(sc)
    (stamp, at_bob), (response, at_alice), (share, _) = seen
    assert stamp.t1 == 0.0 and t0 > 1000 * q
    assert response.t1_star == bob.read(at_bob)
    assert response.t2_star == bob.read(at_bob + config.channel.processing_delay)
    assert share.t2 == alice.read(at_alice)


def test_a_clock_rounds_to_its_resolution():
    assert Clock(0.0, 1e-6).read(1.0000004) == pytest.approx(1.0, abs=1e-12)
    assert Clock(0.0, 1e-6).read(1.0000006) == pytest.approx(1.000001, abs=1e-12)
    assert Clock(0.0, 0).read(1.23456789) == 1.23456789
    assert Clock(0.5, 0).read(1.25) == 1.75


def _quantize(t: float, q: float) -> float:
    # the reference a clock's reading must match bit for bit: round to q, 0 disables
    return round(t / q) * q if q else t


def test_a_clock_reads_as_quantizing_offset_time_bit_for_bit():
    rng = np.random.default_rng(33)
    times = np.concatenate(([0.0, 1e-12, 0.5, 1.0, 1e6], rng.uniform(0.0, 1e3, 200), rng.exponential(1e-3, 200)))
    offsets = [0.0, -0.0, 3.5e-5, -3.5e-5, 0.005, -0.002, 1e9, -1e9, *rng.uniform(-1.0, 1.0, 8)]
    for q in (0.0, 1e-12, 1e-9, 1e-6):
        for offset in map(float, offsets):
            clock = Clock(offset, q)
            for t in times.tolist():
                assert clock.read(t).hex() == _quantize(t + offset, q).hex(), (t, offset, q)
            # a correction is the plain subtraction
            estimate = float(rng.uniform(-1e-3, 1e-3))
            assert clock.corrected(estimate) == Clock(offset - estimate, q)


def test_alices_clock_differs_from_the_bare_time_only_at_minus_zero():
    # Alice's read adds her +0.0 offset to the time; with no rounding,
    # -0.0 + 0.0 is +0.0, the one input on which her reading and the bare
    # time differ. No run reads -0.0: every run starts at
    # +0.0, and delays are never negative.
    assert Clock(0.0, 0.0).read(-0.0).hex() == "0x0.0p+0"
    assert _quantize(-0.0, 0.0).hex() == "-0x0.0p+0"
    for q in (1e-12, 1e-9, 1e-6):
        assert Clock(0.0, q).read(-0.0).hex() == _quantize(-0.0, q).hex() == "0x0.0p+0"


def test_honest_send_is_pure_delay():
    sched = Scheduler(0.002)
    env = sched.send("ping", Direction.A_TO_B, 0.0)
    assert env.deliver_absolute == 0.002
    got = []
    sched.run_until_idle(lambda e: got.append(e.payload))
    assert got == ["ping"]
    kinds = [rec.kind for rec in sched.log]
    assert kinds == ["send", "deliver"]


def test_empty_queue_gives_empty_log():
    sched = Scheduler(0.001)
    assert sched.run_until_idle(lambda e: None) == []
    assert format_event_log(sched.log) == ""


def test_delay_hook_composes_additively():
    # Bob sends at 10 ms over a 2 ms channel; Eve adds 4 ms on that leg only
    sched = Scheduler(0.002)

    def eve(env):
        if env.direction is Direction.B_TO_A:
            env.deliver_absolute += 0.004
        return env

    sched.hooks.append(eve)
    env = sched.send("reply", Direction.B_TO_A, 0.010)
    assert env.deliver_absolute == pytest.approx(0.016)
    unharmed = sched.send("fwd", Direction.A_TO_B, 0.010)
    assert unharmed.deliver_absolute == pytest.approx(0.012)
    assert any(rec.kind == "attack-delay" for rec in sched.log)


def test_substitution_hook_logs_original_and_replacement():
    sched = Scheduler(0.002)

    def eve(env):
        env.payload = "forged"
        return env

    sched.hooks.append(eve)
    env = sched.send("genuine", Direction.A_TO_B, 0.0)
    assert env.payload == "forged"
    assert env.deliver_absolute == 0.002  # delivery time untouched
    send_rec = next(r for r in sched.log if r.kind == "send")
    sub_rec = next(r for r in sched.log if r.kind == "attack-substitute")
    assert send_rec.digest != sub_rec.digest


def test_drop_is_recorded_not_raised():
    sched = Scheduler(0.002)
    sched.hooks.append(lambda env: None)
    assert sched.send("gone", Direction.A_TO_B, 0.0) is None
    delivered = []
    sched.run_until_idle(lambda e: delivered.append(e))
    assert delivered == []
    assert any(rec.kind == "attack-drop" for rec in sched.log)


def test_hooks_cannot_break_causality():
    sched = Scheduler(0.002)

    def eve(env):
        env.deliver_absolute = env.sent_absolute - 1.0
        return env

    sched.hooks.append(eve)
    env = sched.send("m", Direction.A_TO_B, 5.0)
    assert env.deliver_absolute >= env.sent_absolute


def test_envelope_validates_causality():
    with pytest.raises(ConfigError):
        Envelope("x", 1.0, 0.5, Direction.A_TO_B)


def test_ties_break_by_insertion_order():
    sched = Scheduler(0.001)
    sched.send("first", Direction.A_TO_B, 0.0)
    sched.send("second", Direction.B_TO_A, 0.0)
    got = []
    sched.run_until_idle(lambda e: got.append(e.payload))
    assert got == ["first", "second"]


def test_identical_runs_give_identical_logs():
    def run():
        sched = Scheduler(0.002)

        def slow_replies(env):  # Eve holds Bob's replies 1 ms longer
            if env.direction is Direction.B_TO_A:
                env.deliver_absolute += 0.001
            return env

        sched.hooks.append(slow_replies)
        sched.send("a", Direction.A_TO_B, 0.0)
        sched.send("b", Direction.B_TO_A, 0.001)
        sched.run_until_idle(lambda e: None)
        return format_event_log(sched.log)

    assert run() == run()


def test_event_log_line_format():
    sched = Scheduler(0.002)
    sched.send("payload", Direction.A_TO_B, 0.25)
    sched.run_until_idle(lambda e: None)
    lines = format_event_log(sched.log).splitlines()
    t, direction, kind, digest = lines[0].split()
    assert t == "0.250000000" and direction == "AtoB" and kind == "send"
    assert len(digest) == 64


def test_livelock_guard(monkeypatch):
    monkeypatch.setattr(channel, "EVENT_BUDGET", 50)
    sched = Scheduler(0.001)

    def echo(env):
        sched.send(env.payload, env.direction, env.deliver_absolute)

    sched.send("loop", Direction.A_TO_B, 0.0)
    with pytest.raises(LivelockError):
        sched.run_until_idle(echo)


class Counted:
    """A payload that counts how often it is encoded."""

    def __init__(self, text):
        self.text, self.encodes = text, 0

    def canonical_bytes(self):
        self.encodes += 1
        return self.text.encode()


def test_a_payload_is_digested_once_from_send_to_delivery():
    sched = Scheduler(0.002)
    payload = Counted("t1")
    env = sched.send(payload, Direction.A_TO_B, 0.0)
    sched.run_until_idle(lambda e: None)
    assert payload.encodes == 1
    send_rec, deliver_rec = sched.log
    assert deliver_rec.digest == send_rec.digest == env.digest
    assert env.digest == hashlib.sha256(b"t1").hexdigest()


def test_a_substituted_payload_is_digested_again():
    sched = Scheduler(0.002)
    forged = Counted("forged")

    def eve(env):
        env.payload = forged
        env.deliver_absolute += 0.001
        return env

    sched.hooks.append(eve)
    sched.send(Counted("genuine"), Direction.A_TO_B, 0.0)
    sched.run_until_idle(lambda e: None)
    assert forged.encodes == 1
    kinds = {rec.kind: rec.digest for rec in sched.log}
    assert kinds["send"] == hashlib.sha256(b"genuine").hexdigest()
    assert kinds["attack-substitute"] == kinds["attack-delay"] == kinds["deliver"]
    assert kinds["deliver"] == hashlib.sha256(b"forged").hexdigest()


def test_a_dropped_payload_logs_the_digest_it_was_sent_with():
    sched = Scheduler(0.002)
    sched.hooks.append(lambda env: None)
    payload = Counted("gone")
    sched.send(payload, Direction.A_TO_B, 0.0)
    assert [rec.digest for rec in sched.log] == [hashlib.sha256(b"gone").hexdigest()] * 2
    assert payload.encodes == 1
