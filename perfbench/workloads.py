"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Every workload is a class built from the benchmark seed. Building it is the
input-generation half of set-up. It offers

  round_size        ops per round; a run attempts whole rounds only
  op(i)             op number i, the part that is timed
  check(i, out, thorough)
                    True when op i passed, False when it failed in the one
                    known way; raises CheckFailed for a wrong output.
                    thorough adds checks too slow to run on every op
  fingerprint(out)  bytes that identify the output, for the re-run check

Inputs cycle through a pool of POOL_ROUNDS rounds, so a faster program
repeats inputs instead of running out of them.

The ops call the program through module attributes (``harness.run_scenario``
and so on), never through names bound at import, so the traced run's
wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from kljnsync import auth, bepfile, harness, line

POOL_ROUNDS = 4096
# The sub-sample-offset ops of combined_2k fail through a fault in the
# alignment search; their inputs come from this fixed stream, so they are
# the same whatever the benchmark seed.
FIXED_SEED = 20220518


class CheckFailed(Exception):
    """An op's output broke a property the method must have."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _digest(*blobs) -> bytes:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob.encode() if isinstance(blob, str) else blob)
    return h.digest()


class Combined2k:
    """``ScenarioConfig.from_dict -> run_scenario -> canonical_json`` on the
    bundled honest_combined shape: one 2000-sample BEP, protocol C, then the
    protocol-B probe, with a fresh scenario seed and Bob's clock offset by a
    whole number of samples in [-25, 25].

    The last op of every round adds a fraction of a sample in [0.2, 0.8] to
    the offset. ``residual_curve`` tries only whole-sample shifts, so the
    program flags these honest runs ("no shift explains the data"); they
    count as failed. They do the same work as the others.
    """

    name = "combined_2k"
    round_size = 4
    max_shift = 25

    def __init__(self, seed: int):
        self.base = harness.load_bundled("honest_combined").raw
        self.fs = harness.ScenarioConfig.from_dict(self.base).line_config().sample_rate
        rng = np.random.default_rng(seed)
        self.seeds = rng.integers(0, 2**31, size=(POOL_ROUNDS, self.round_size - 1))
        self.shifts = rng.integers(-self.max_shift, self.max_shift + 1, size=self.seeds.shape)
        fixed = np.random.default_rng(FIXED_SEED)
        self.sub_seeds = fixed.integers(0, 2**31, size=POOL_ROUNDS)
        self.sub_shifts = fixed.integers(-self.max_shift, self.max_shift + 1, size=POOL_ROUNDS)
        self.sub_fracs = fixed.uniform(0.2, 0.8, size=POOL_ROUNDS)

    def case(self, i: int) -> tuple[int, float, bool]:
        """(scenario seed, Bob's offset t0 in seconds, sub-sample?) of op i."""
        r, slot = divmod(i, self.round_size)
        r %= POOL_ROUNDS
        if slot == self.round_size - 1:
            samples = self.sub_shifts[r] + self.sub_fracs[r]
            return int(self.sub_seeds[r]), float(samples / self.fs), True
        return int(self.seeds[r, slot]), float(self.shifts[r, slot] / self.fs), False

    def op(self, i: int):
        seed, t0, _ = self.case(i)
        doc = dict(self.base, seed=seed, clock=dict(self.base["clock"], t0=t0))
        report = harness.run_scenario(harness.ScenarioConfig.from_dict(doc))
        return report, report.canonical_json()

    def check(self, i: int, out, thorough: bool = False) -> bool:
        report = out[0]
        _, t0, sub_sample = self.case(i)
        res = report.result
        cfg = report.config
        if sub_sample and res["attack_flag"]:
            # the known fault: no whole-sample shift gets under the threshold
            _require(
                res["residual"] is not None and res["residual"] > cfg["protocol"]["residual_threshold"],
                f"op {i}: sub-sample offset flagged for another reason: {res['detail']}",
            )
            return False
        quantum = cfg["clock"]["quantization"]
        _require(not res["attack_flag"] and res["auth_ok"], f"op {i}: honest run flagged: {res['detail']}")
        shifts, residuals = np.asarray(report.series["residual_curve"]).T
        best = shifts[int(np.argmin(residuals))]
        _require(
            abs(best + t0) <= (1.0 + 1e-9) / self.fs,
            f"op {i}: residual minimum at {best:.3e} s, expected -t0 = {-t0:.3e} s",
        )
        _require(
            abs(res["t0_est"]) <= cfg["protocol"]["t0_tol_quanta"] * quantum,
            f"op {i}: probe offset {res['t0_est']:.3e} s is not zero",
        )
        _require(
            abs(res["tau_est"] - cfg["channel"]["tau"]) <= cfg["protocol"]["tau_tol_quanta"] * quantum,
            f"op {i}: probe delay {res['tau_est']:.6e} s is not the nominal {cfg['channel']['tau']}",
        )
        _require(res["residual"] < 1e-4, f"op {i}: residual {res['residual']:.3e} not below 1e-4")
        _require(
            report.key_bits_consumed == 256 * 5,
            f"op {i}: {report.key_bits_consumed} key bits consumed, expected {256 * 5}",
        )
        return True

    def fingerprint(self, out) -> bytes:
        return _digest(out[1])


class Records20k:
    """Both parties' records of one simulated 20 000-sample BEP, written and
    read back: ``simulate_bep``; per party ``build_bep_file``, a tag from
    ``hash_message`` + ``encrypt_digest``, ``serialize_bep_file``; then, as
    a receiver with the public API, ``parse_bep_file`` and ``verify``.

    Each op draws a resistor arrangement, a noise seed, a BEP index, a start
    time and Bob's whole-sample clock offset. No search, scheduler or
    harness runs.
    """

    name = "records_20k"
    round_size = 1
    n_samples = 20_000

    def __init__(self, seed: int):
        line_doc = harness.load_bundled("honest_combined").raw["line"]
        fs = line.LineConfig(**line_doc).sample_rate
        self.config = line.LineConfig(**line_doc, bep_duration=self.n_samples / fs)
        rng = np.random.default_rng(seed)
        self.seeds = rng.integers(0, 2**31, size=POOL_ROUNDS)
        self.choices = rng.integers(0, 2, size=(POOL_ROUNDS, 2))
        self.indices = rng.integers(0, 1000, size=POOL_ROUNDS)
        self.starts = rng.uniform(0.0, 10.0, size=POOL_ROUNDS)
        self.offsets = rng.integers(-25, 26, size=POOL_ROUNDS) / fs
        self.tamper_at = rng.integers(0, self.n_samples, size=POOL_ROUNDS)

    def op(self, i: int):
        r = i % POOL_ROUNDS
        choice = (line.ResistorChoice.L, line.ResistorChoice.H)
        seed = int(self.seeds[r])
        records = line.simulate_bep(
            choice[self.choices[r, 0]],
            choice[self.choices[r, 1]],
            self.config,
            seed,
            bep_index=int(self.indices[r]),
            start_absolute=float(self.starts[r]),
            offset_B=float(self.offsets[r]),
        )
        ledger = auth.KeyLedger.generate(2 * 256, seed)
        sent = []
        for meas in records:
            record = bepfile.build_bep_file(meas, self.config)
            tag = auth.encrypt_digest(auth.hash_message(record.payload_bytes()), ledger)
            sent.append((record, tag, bepfile.serialize_bep_file(record, tag)))
        received = []
        for _, _, blob in sent:
            parsed, tag = bepfile.parse_bep_file(blob)
            received.append((parsed, tag, auth.verify(parsed.payload_bytes(), tag, ledger)))
        return sent, received, ledger

    def check(self, i: int, out, thorough: bool = False) -> bool:
        sent, received, ledger = out
        for (record, tag, blob), (parsed, got_tag, ok) in zip(sent, received):
            who = record.party.value
            _require(ok, f"op {i}: {who}'s record fails verify after the round trip")
            _require(got_tag == tag, f"op {i}: {who}'s tag changed in the round trip")
            _require(len(parsed) == self.n_samples, f"op {i}: {who}'s record has {len(parsed)} samples")
            _require(
                parsed == record
                and (parsed.party, parsed.bep_index, parsed.sample_rate, parsed.local_start, parsed.config_digest)
                == (record.party, record.bep_index, record.sample_rate, record.local_start, record.config_digest)
                and np.array_equal(parsed.voltage_samples, record.voltage_samples)
                and np.array_equal(parsed.current_samples, record.current_samples),
                f"op {i}: {who}'s parsed record differs from the built one",
            )
            # Every op: one byte of the payload's second half flipped. The
            # thorough check alters one sample through the public API, so
            # neither depends on the record format.
            payload = bytearray(parsed.payload_bytes())
            payload[len(payload) // 2 + int(self.tamper_at[i % POOL_ROUNDS]) % (len(payload) // 2)] ^= 1
            _require(not auth.verify(bytes(payload), tag, ledger), f"op {i}: {who}'s altered payload passes verify")
            if thorough:
                index = int(self.tamper_at[i % POOL_ROUNDS])
                volts = parsed.voltage_samples.copy()
                volts[index] += 1.0 + abs(volts[index])
                forged = dataclasses.replace(parsed, voltage_samples=volts)
                received_forgery, _ = bepfile.parse_bep_file(bepfile.serialize_bep_file(forged, tag))
                changed = np.flatnonzero(received_forgery.voltage_samples != parsed.voltage_samples)
                _require(list(changed) == [index], f"op {i}: the forgery altered samples {changed[:5]}")
                _require(
                    not auth.verify(received_forgery.payload_bytes(), tag, ledger),
                    f"op {i}: {who}'s record with sample {index} altered passes verify",
                )
        alice, bob = received[0][0], received[1][0]
        _require(
            (alice.party, bob.party) == (line.Party.ALICE, line.Party.BOB), f"op {i}: parties out of order"
        )
        _require(
            np.array_equal(alice.current_samples, bob.current_samples),
            f"op {i}: the parties' currents differ",
        )
        i_r = alice.current_samples * self.config.R_wire
        error = np.max(np.abs(alice.voltage_samples - bob.voltage_samples - i_r))
        rms = float(np.sqrt(np.mean(i_r**2)))
        _require(
            error <= 1e-6 * rms,
            f"op {i}: U_cA - U_cB misses I*R_wire by {error:.3e} (rms of I*R_wire {rms:.3e})",
        )
        return True

    def fingerprint(self, out) -> bytes:
        return _digest(*(blob for _, _, blob in out[0]))


class TwowaySweep:
    """``sweep()`` over ``clock.t0`` with ten seeded values in [-10, 10] ms
    and ``seed_policy="per-value"``, for each of four bundled two-way
    scenarios; every report is rendered with ``canonical_json``, as
    ``kljnsync sweep`` writes it. 40 scenario runs; no noise, records or
    search.
    """

    name = "twoway_sweep"
    round_size = 1
    scenarios = ("honest_protocol_a", "honest_protocol_b", "delay_attack_b", "substitution_attack_b")
    n_values = 10

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        scenario_seed = int(rng.integers(0, 2**31))
        self.configs = [
            harness.ScenarioConfig.from_dict(dict(harness.load_bundled(name).raw, seed=scenario_seed))
            for name in self.scenarios
        ]
        self.t0 = rng.uniform(-0.01, 0.01, size=(POOL_ROUNDS, self.n_values))

    def op(self, i: int):
        values = self.t0[i % POOL_ROUNDS].tolist()
        swept = []
        for config in self.configs:
            reports = harness.sweep(config, "clock.t0", values, seed_policy="per-value")
            swept.append([(report, report.canonical_json()) for report in reports])
        return values, swept

    def check(self, i: int, out, thorough: bool = False) -> bool:
        values, swept = out
        for name, runs in zip(self.scenarios, swept):
            _require(len(runs) == len(values), f"op {i}: {name} swept {len(runs)} values")
            for t0, (report, _) in zip(values, runs):
                res, cfg = report.result, report.config
                where = f"op {i}: {name} at t0={t0:.6e}"
                _require(cfg["clock"]["t0"] == t0, f"{where}: report carries t0={cfg['clock']['t0']}")
                if name == "substitution_attack_b":
                    _require(res["attack_flag"] and not res["auth_ok"], f"{where}: substitution not caught")
                    continue
                shift = 0.0
                if name == "delay_attack_b":
                    shift = cfg["attacks"][0]["delta"] / 2.0
                tol = (1.0 + 1e-6) * cfg["clock"]["quantization"]
                _require(not res["attack_flag"], f"{where}: flagged: {res['detail']}")
                _require(
                    abs(res["t0_est"] - (t0 - shift)) <= tol,
                    f"{where}: t0_est {res['t0_est']:.9e}, expected {t0 - shift:.9e}",
                )
                _require(
                    abs(res["tau_est"] - (cfg["channel"]["tau"] + shift)) <= tol,
                    f"{where}: tau_est {res['tau_est']:.9e}, expected {cfg['channel']['tau'] + shift:.9e}",
                )
        return True

    def fingerprint(self, out) -> bytes:
        return _digest(*(text for runs in out[1] for _, text in runs))


WORKLOADS = {w.name: w for w in (Combined2k, Records20k, TwowaySweep)}
