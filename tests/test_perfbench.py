"""The benchmark still runs against the program: its traced run wraps
program functions by name, and its workloads read ScenarioConfig.raw and
.line_config(), so renaming any of them breaks it."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the bytes the parties hand to the channel in each workload's self-test
# rounds: a payload counted twice or encoded afresh moves them
WIRE_BYTES = {"combined_2k": 257792, "records_20k": 640242, "twoway_sweep": 6800}

# per op of round 0, as the benchmark's tracer counts them at the names it
# wraps: tags made, envelopes sent and attack actions logged. A call that
# went round one of those names would drop out of its count, and the
# per-layer figures of earlier benchmark runs would no longer compare.
TRACED_COUNTS = {
    "twoway_sweep": {"auth.tags": 90, "channel.envelopes": 120, "adversaries.actions": 20},
    "combined_2k": {"auth.tags": 5, "channel.envelopes": 5, "adversaries.actions": 0},
    "records_20k": {"auth.tags": 2, "channel.envelopes": 0, "adversaries.actions": 0},
}


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    wire = {name: int(n) for name, n in re.findall(r"^selftest (\w+): .* wire (\d+) B$", done.stdout, re.M)}
    assert wire == WIRE_BYTES, done.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(TRACED_COUNTS))
def test_a_traced_round_counts_what_it_did(name, monkeypatch):
    # in this process, as the benchmark's self-test runs round 0
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run as bench
    import tracing
    import workloads

    work, _ = bench.set_up(name, 1)
    run, tracer = bench.Run(work, workloads.CheckFailed), tracing.Tracer()
    run.fingerprints(0, tracer)
    assert not run.errors
    layers = tracer.metrics(1.0, 0.0, tracer)
    assert {key: layers[key][0] for key in TRACED_COUNTS[name]} == TRACED_COUNTS[name]
