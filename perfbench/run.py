#!/usr/bin/env python3
"""Benchmark of kljnsync: three closed-loop workloads, one thread, one process.

    python3 perfbench/run.py --workload combined_2k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a kljnsync checkout: it imports the package from
the checkout's src/ and nowhere else, and exits with status 2 when that is
missing. A run sets up (imports plus seeded inputs, repeated in fresh
interpreters), warms up on round 0, then runs whole rounds of ops back to
back for --seconds, timing each op alone and checking its output between
ops, outside the timed interval. It finally re-runs round 0, which must
reproduce its outputs byte for byte, and counts the bytes the parties hand
to the channel on that round. Times are reported at a reference speed (see
Reference); the measured ones go to the results file.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (tracing.py) with the
tracing overhead. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the same object, with more
detail, is written under perfbench/results/.
"""

import os

# one thread everywhere: numpy's FFT and BLAS pools would add their own noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("combined_2k", "records_20k", "twoway_sweep")  # the classes are in workloads.py
SETUP_REPEATS = 5  # setup_s is the median over this many set-ups
REFERENCE_S = 0.005  # Reference.seconds() at the reference speed
TAIL_BEYOND = 10  # the tail percentile printed has at least this many ops beyond it


def set_up(workload: str, seed: int):
    """Import the program from the checkout and build the workload's seeded
    inputs. Returns (workload, seconds taken)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kljnsync

    if Path(kljnsync.__file__).resolve().parent != SRC / "kljnsync":
        raise ImportError(f"kljnsync imported from {kljnsync.__file__}, not from {SRC}")
    import workloads

    work = workloads.WORKLOADS[workload](seed)
    return work, time.perf_counter() - start


def set_up_elsewhere(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, at the reference speed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def tail(times: list[float]) -> tuple[int, float] | None:
    """(p, p-th percentile) for the highest whole percentile with at least
    TAIL_BEYOND ops beyond it, or None when there are too few ops."""
    n = len(times)
    if n < 4 * TAIL_BEYOND:
        return None
    p = int(100 * (1 - TAIL_BEYOND / n))
    return p, statistics.quantiles(times, n=100)[p - 1]


class Reference:
    """A fixed computation that does not use kljnsync, timed next to every op.

    On a shared virtual machine (the figures in README.md come from a
    2-vCPU Xeon VM) throughput changes in phases lasting seconds that move
    every layer of the program, a plain numpy FFT and the interpreter
    together by up to about 1.6x, and a 30 s run does not cross enough of
    them to average them out. Every time the benchmark reports is therefore
    given at the reference speed: measured seconds times REFERENCE_S over
    the time this computation took beside them, the mean of its timings
    just before and just after the op. It mixes what the program spends
    its time on: FFTs, array arithmetic, decimal formatting, JSON, hashing
    and interpreted loops.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.random.default_rng(0).standard_normal(4096)
        self.doc = {"a": [1.5, 2.5, {"b": "c" * 20}] * 20, "seed": 1}
        self.blob = bytes(range(256)) * 256
        self.seconds()  # first-call costs

    def seconds(self) -> float:
        np, x = self.np, self.x
        start = time.perf_counter()
        for _ in range(8):
            np.fft.irfft(np.fft.rfft(x))
        for _ in range(40):
            np.sum((x[1:] * 0.3 - x[:-1]) ** 2)
        for _ in range(30):
            json.loads(json.dumps(self.doc, sort_keys=True))
        np.char.mod("%.11e", x[:1000])
        for _ in range(4):
            hashlib.sha256(self.blob).digest()
        total = 0
        for i in range(5000):
            total += i * i
        return time.perf_counter() - start

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed,
        from the median of three timings."""
        return REFERENCE_S / statistics.median(self.seconds() for _ in range(3))


class Run:
    """One workload's ops, with their checks and tallies."""

    def __init__(self, work, check_failed):
        self.work = work
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, i: int, tracer=None):
        """Run op i. Returns (seconds, output), the output None when the op
        raised."""
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            out = self.work.op(i)
        except Exception as exc:  # the run goes on: a raising op is a failed op and a wrong result
            out = None
            self.errors.append(f"op {i} raised {type(exc).__name__}: {exc}")
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        return seconds, out

    def check(self, i: int, out, thorough=False, tally=True) -> None:
        passed = False
        if out is not None:
            try:
                passed = self.work.check(i, out, thorough=thorough)
            except self.check_failed as exc:
                self.errors.append(str(exc))
                passed = True  # a wrong output is not a failed op; it makes the run incorrect
        if tally:
            self.attempted += 1
            self.failed += not passed

    def ops(self, r: int) -> range:
        return range(r * self.work.round_size, (r + 1) * self.work.round_size)

    def fingerprints(self, r: int, tracer=None, around=contextlib.nullcontext) -> list:
        """Run round r untimed and untallied, each op inside around(),
        checked thoroughly outside it; returns the fingerprints of its
        outputs."""
        prints = []
        for i in self.ops(r):
            with around():
                seconds, out = self.op(i, tracer)
            self.check(i, out, thorough=True, tally=False)
            prints.append(None if out is None else self.work.fingerprint(out))
            if tracer is not None:
                tracer.end_op(seconds)
        return prints


def measure(args):
    """One benchmark run; returns (result line, detail for the results file)."""
    work, setup_raw = set_up(args.workload, args.seed)
    import tracing
    import workloads

    reference = Reference()
    setups = [setup_raw * reference.scale()]
    setups += [set_up_elsewhere(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    run = Run(work, workloads.CheckFailed)
    expected = run.fingerprints(0)
    gc.collect()

    # A traced run alternates untraced and traced rounds, so both see the
    # same mix of the machine's phases.
    tracer = tracing.Tracer() if args.trace else None
    raw = {False: [], True: []}  # traced? -> measured op seconds
    scaled = {False: [], True: []}  # the same at the reference speed
    ref_times = []
    sample_spans = []
    r = 0
    before = reference.seconds()
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and r % 2 == 1
        for i in run.ops(r):
            if traced and tracer.ops == 0:
                tracer.spans = []  # keep the spans of the first traced op
            seconds, out = run.op(i, tracer if traced else None)
            after = reference.seconds()
            raw[traced].append(seconds)
            scaled[traced].append(seconds * 2.0 * REFERENCE_S / (before + after))
            ref_times.append(after)
            before = after
            if traced:
                tracer.end_op(seconds)
                if tracer.spans is not None:
                    sample_spans, tracer.spans = tracer.spans, None
            run.check(i, out)
        r += 1
        if time.perf_counter() >= deadline and (tracer is None or r % 2 == 0):
            break

    # Counts are taken on a re-run of round 0, whose inputs depend on the
    # seed alone, so they repeat exactly however many ops the loop ran.
    counts = {"wire_bytes": 0}
    counter = tracing.Tracer() if tracer is not None else None
    if run.fingerprints(0, counter, lambda: tracing.counting_wire(counts)) != expected:
        run.errors.append("re-running round 0 did not reproduce its outputs byte for byte")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(scaled[False]) / sum(scaled[False]), "1/s"),
            "op_ms_p50": (1e3 * statistics.median(scaled[False]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "wire_kb_per_op": (counts["wire_bytes"] / work.round_size / 1e3, "kB"),
        }
    else:
        overhead = statistics.fmean(scaled[True]) / statistics.fmean(scaled[False]) - 1.0
        metrics = tracer.metrics(REFERENCE_S / statistics.median(ref_times), overhead, counter)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    timed = tracer is not None
    worst = tail(scaled[timed])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_samples": setups,
        "timed_ops": len(scaled[timed]),
        "op_ms_tail": None if worst is None else {"percentile": worst[0], "ms": 1e3 * worst[1]},
        "measured_op_ms_p50": 1e3 * statistics.median(raw[timed]),
        "measured_ops_per_s": len(raw[timed]) / sum(raw[timed]),
        "reference_ms_p50": 1e3 * statistics.median(ref_times),
        "errors": run.errors[:20],
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    if tracer is not None:
        origin = sample_spans[0][3] if sample_spans else 0.0
        detail["sample_op_spans"] = [
            {"name": name, "layer": layer, "parent": parent,
             "start_ms": 1e3 * (t0 - origin), "end_ms": 1e3 * (t1 - origin)}
            for name, layer, parent, t0, t1 in sample_spans
        ]
    return result, detail


def report(result: dict, detail: dict) -> None:
    """Print every metric by name and unit, write the results file, and end
    standard output with the result line."""
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"{detail['timed_ops']} timed ops  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    if detail["op_ms_tail"] is not None:
        print(f"  op ms at p{detail['op_ms_tail']['percentile']}: {detail['op_ms_tail']['ms']:.6g} "
              f"(of {detail['timed_ops']} ops; not a gated metric)")
    for error in detail["errors"]:
        print(f"  error: {error}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    name = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    (RESULTS / name).write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(result))


def selftest() -> int:
    """Round 0 of every workload, untraced, then again traced while the
    wire is counted, with every check."""
    ok = True
    for name in WORKLOADS:
        work, setup_raw = set_up(name, 1)
        import tracing
        import workloads

        run = Run(work, workloads.CheckFailed)
        expected = run.fingerprints(0)
        tracer = tracing.Tracer()
        counts = {"wire_bytes": 0}
        if run.fingerprints(0, tracer, lambda: tracing.counting_wire(counts)) != expected:
            run.errors.append("re-running round 0 did not reproduce its outputs byte for byte")
        layers = tracer.metrics(1.0, 0.0, tracer)
        missing = [key for key, _ in tracing.PER_LAYER if key not in layers]
        if missing:
            run.errors.append(f"traced run lacks {missing}")
        if counts["wire_bytes"] <= 0:
            run.errors.append("no bytes reached the channel")
        ok &= not run.errors
        print(f"selftest {name}: {'ok' if not run.errors else 'FAILED'}  set-up {setup_raw:.3f} s  "
              f"{2 * work.round_size} ops  {tracer.op_s / tracer.ops * 1e3:.1f} ms per traced op  "
              f"wire {counts['wire_bytes']} B")
        for error in run.errors:
            print(f"  error: {error}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="a few checked ops of every workload")
    parser.add_argument("--setup-only", action="store_true", help="print the set-up time and exit")
    args = parser.parse_args(argv)
    if not (args.selftest or args.workload):
        parser.error("--workload is required")
    try:
        if args.selftest:
            return selftest()
        if args.setup_only:
            setup_raw = set_up(args.workload, args.seed)[1]
            print(f"{setup_raw * Reference().scale():.9f}")
            return 0
        report(*measure(args))
    except ImportError as exc:
        print(f"perfbench: cannot import kljnsync from {SRC}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
