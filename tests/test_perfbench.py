"""The benchmark still runs against the program: its traced run wraps
program functions by name, and its workloads read ScenarioConfig.raw and
.line_config(), so renaming any of them breaks it."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the bytes the parties hand to the channel in each workload's self-test
# rounds: a payload counted twice or encoded afresh moves them
WIRE_BYTES = {"combined_2k": 257792, "records_20k": 640242, "twoway_sweep": 6800}


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    wire = {name: int(n) for name, n in re.findall(r"^selftest (\w+): .* wire (\d+) B$", done.stdout, re.M)}
    assert wire == WIRE_BYTES, done.stdout[-2000:]
