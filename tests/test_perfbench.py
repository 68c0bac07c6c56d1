"""The benchmark still runs against the program: its traced run wraps
program functions by name, and its workloads read ScenarioConfig.raw and
.line_config(), so renaming any of them breaks it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
