"""The acceptance gate: every criterion must pass at its stated tolerance.

Each test prints its own pass/fail line so a plain pytest run doubles as
the acceptance report; `kljnsync verify` executes the same list.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kljnsync
from kljnsync import acceptance
from kljnsync.acceptance import CRITERIA, ks_2samp


# each criterion's detail with its trailing timing cut off, as numpy 2.4.6
# gave it; like the pinned report digests, the round-off figures (criterion
# 6's residuals) hold within one numpy major
DETAILS = {
    1: "max |dev| 1.05 SE, lag-0 within 0.16%",
    2: "(10 us, 10 ms) exact; range note present",
    3: "worst error 6.94e-18s over 1000 pairs",
    4: "16 protocol/leg/delta combinations exact, all unflagged",
    5: "100/100 message, 100/100 file substitutions flagged; 0/10000 forgeries verified",
    6: "100/100 within 1 sample (worst 0.000), max residual 6.61e-26; sub-sample 50/50 (worst 0.000), "
    "beyond 100 samples 10/10 (worst 0.000), max residual 6.48e-26",
    7: "100/100 wire changes flagged (min residual 0.096, >= 964x honest bound; detection boundary ~15% "
    "at threshold 0.01); delays of 4+ quanta all caught",
    8: "KS p = 0.523; Eve accuracy 0.493 in 0.5 +- 0.047 (n = 1010); agreement 1010/1010",
    9: "A detects {}; B detects {Substitute}; C+Combined detects all three",
    10: "12 bundled scenarios byte-identical",
}


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"criterion_{c.number:02d}" for c in CRITERIA])
def test_acceptance_criterion(criterion):
    passed, detail = criterion.run()
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion.number}: {criterion.name} - {detail}")
    assert passed, f"criterion {criterion.number} ({criterion.name}): {detail}"
    assert re.sub(r"[,;] \d+\.\ds$", "", detail) == DETAILS[criterion.number]


def _flip(result):
    return result._replace(attack_flag=not result.attack_flag)


def _late(result):
    return result._replace(t0_est=result.t0_est + 2e-12)


@pytest.mark.parametrize(
    "criterion, label, change, says",
    [
        (acceptance.criterion_9_attack_matrix, "B/AsymDelay", _flip, "attack_flag True, expected False"),
        (acceptance.criterion_9_attack_matrix, "C+Combined/LineMod(wire)", _flip, "attack_flag False, expected True"),
        (acceptance.criterion_4_delay_algebra, "B/BtoA/0.004", _flip, "attack_flag True, expected False"),
        (acceptance.criterion_4_delay_algebra, "A/AtoB/0.001", _late, "(t0_est, tau_est) = "),
    ],
    ids=["c9_flag_raised", "c9_flag_missed", "c4_flag_raised", "c4_estimate_off"],
)
def test_a_row_that_misses_fails_its_criterion_and_is_named(monkeypatch, criterion, label, change, says):
    # every other row still passes, so the detail names this one row alone
    run = acceptance._run
    labels = []

    def changed(row):
        labels.append(row.label)
        return change(run(row)) if row.label == label else run(row)

    monkeypatch.setattr(acceptance, "_run", changed)
    passed, detail = criterion()
    assert labels.count(label) == 1
    assert not passed
    assert detail.startswith(f"{label}: {says}") and "; " not in detail


# (x, y, statistic, p) with the statistic and p-value that scipy 1.17.1's
# stats.ks_2samp(x, y, method="exact") gave for these samples
_rng = np.random.default_rng
KS_PINNED = {
    "equal_sizes": (_rng(1).standard_normal(50), _rng(2).standard_normal(50) + 0.3, 0.26, 0.06779471096995852),
    "unequal_sizes": (
        _rng(3).standard_normal(37), _rng(4).standard_normal(64) + 0.2, 0.22381756756756757, 0.15957074703262064,
    ),
    "ties": (_rng(5).integers(0, 6, 40), _rng(6).integers(0, 6, 55), 0.14545454545454545, 0.6511021051936617),
    "p_near_0.01": (
        _rng(7).standard_normal(80), _rng(8).standard_normal(120) + 0.26, 0.23333333333333334, 0.009411055801037339,
    ),
    "identical_ecdfs": ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], 0.0, 1.0),
    "disjoint": ([0.0, 1.0, 2.0], [5.0, 6.0, 7.0, 8.0], 1.0, 0.05714285714285715),
}


@pytest.mark.parametrize("case", KS_PINNED)
def test_ks_2samp_matches_the_exact_scipy_values(case):
    x, y, statistic, p = KS_PINNED[case]
    got_statistic, got_p = ks_2samp(x, y)
    assert got_statistic == statistic
    assert abs(got_p - p) < 1e-13


_WITHOUT_SCIPY = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import kljnsync
for info in pkgutil.iter_modules(kljnsync.__path__):
    importlib.import_module("kljnsync." + info.name)
from kljnsync import acceptance
results = []
def recording(x, y, ks=acceptance.ks_2samp):
    results.append(ks(x, y))
    return results[-1]
acceptance.ks_2samp = recording
passed, detail = acceptance.criterion_8_security_identity()
print(json.dumps({"passed": passed, "detail": detail, "ks": results}))
"""


def test_the_package_and_criterion_8_run_without_scipy():
    # criterion 8's 511 x 511 populations: scipy 1.17.1 gave statistic
    # 0.050880626223091974 and exact p 0.5230965742394403
    src = str(Path(kljnsync.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout)
    assert out["passed"], out["detail"]
    assert "KS p = 0.523;" in out["detail"]
    [(statistic, p)] = out["ks"]
    assert statistic == 0.050880626223091974
    assert abs(p - 0.5230965742394403) < 1e-13
