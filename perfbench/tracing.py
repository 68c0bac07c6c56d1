"""Per-layer tracing for the benchmark's traced runs, and the wire counter.

A Tracer wraps kljnsync's public functions on the names their callers look
up (``kljnsync.protocols.residual_curve`` is what ``protocol_c`` calls, and
``kljnsync.line.generate_with_guard`` is what ``simulate_bep`` calls). It
is installed only around the ops of a traced round and removed again before
their outputs are checked, so the program itself is never changed and the
untraced rounds run it bare.

Each wrapped call is a span. Its self time, the call's duration minus the
spans nested in it, is added to the span's layer, so a layer's time does not
include the layers it calls. Counts are taken at the same wrappers.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from kljnsync import auth, bepfile, channel, harness, line, protocols

# per-layer metrics of a traced run: (name, unit), each per op
TIMES = (
    "noise.synth",
    "line.solve",
    "bepfile.build",
    "bepfile.encode",
    "bepfile.parse",
    "auth.hash",
    "channel.send",
    "channel.deliver",
    "protocols.search",
    "protocols.exchange",
    "protocols.twoway",
    "protocols.verdict",
    "scenario.make",
    "harness.config",
    "harness.report",
    "harness.json",
)
COUNTS = (
    ("noise.samples", "count"),
    ("bepfile.bytes", "bytes"),
    ("auth.tags", "count"),
    ("auth.key_bits", "bits"),
    ("channel.envelopes", "count"),
    ("protocols.search_points", "count"),
    ("adversaries.actions", "count"),
    ("harness.report_bytes", "bytes"),
)
PER_LAYER = (
    tuple((f"{layer}_ms", "ms") for layer in TIMES)
    + COUNTS
    + (("trace.unattributed_ms", "ms"), ("trace.overhead_pct", "%"))
)


class Patches:
    """Attribute replacements that can all be undone at once."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _overlap_points(shifts_s: np.ndarray, file_ref, file_other) -> int:
    """Samples compared over all candidate shifts: for each shift, the
    reference samples whose counterpart lies inside the other record."""
    fs = file_ref.sample_rate
    shifts = np.asarray(shifts_s) * fs
    base = (file_ref.local_start - file_other.local_start) * fs
    first = np.maximum(0.0, np.ceil(shifts - base))
    last = np.minimum(len(file_ref) - 1.0, np.floor(len(file_other) - 1.0 + shifts - base))
    return int(np.maximum(last - first + 1.0, 0.0).sum())


class Tracer:
    """Self time per layer and counts per layer, summed over traced ops.

    ``install()`` before an op and ``uninstall()`` after it; ``end_op`` adds
    the op's wall time, so time no span covers is reported as unattributed.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_s = 0.0
        self.ops = 0
        self.spans: list | None = None  # filled for one sample op
        self._stack = [[None, 0.0, None]]  # frames: layer, child seconds, span id
        self._patches = Patches()

    # -- spans -----------------------------------------------------------

    def span(self, layer: str, fn):
        stack, self_s = self._stack, self.self_s
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if self.spans is not None:
                span_id = len(self.spans)
                self.spans.append([name, layer, stack[-1][2], perf_counter(), None])
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                self_s[layer] += elapsed - frame[1]
                if span_id is not None:
                    self.spans[span_id][4] = perf_counter()

        return traced

    def _counted(self, fn, count):
        """fn, with count(counts, result, *args) called after each call."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, result, *args, **kwargs)
            return result

        return counted

    def _encoder(self, fn):
        """BepFile.payload_bytes, counting the bytes of encodings that ran
        rather than came from the record's cache."""
        counts = self.counts

        @functools.wraps(fn)
        def payload_bytes(record):
            fresh = getattr(record, "_payload_cache", None) is None
            blob = fn(record)
            if fresh:
                counts["bepfile.bytes"] += len(blob)
            return blob

        return payload_bytes

    def _delivery(self, fn):
        """Scheduler.run_until_idle whose delivery handler is a span of the
        caller's layer, so channel.deliver is the scheduler's own time."""
        stack = self._stack

        @functools.wraps(fn)
        def run_until_idle(scheduler, on_deliver):
            caller = stack[-2][0]  # the frame under this call's own span
            return fn(scheduler, self.span(caller, on_deliver))

        return run_until_idle

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        p = self._patches
        Scheduler, BepFile, Config = channel.Scheduler, bepfile.BepFile, harness.ScenarioConfig

        def wrap(owner, attr, layer, count=None):
            fn = getattr(owner, attr)
            if count is not None:
                fn = self._counted(fn, count)
            p.set(owner, attr, self.span(layer, fn) if layer else fn)

        def add(key, amount):
            def count(counts, *_args, **_kwargs):
                counts[key] += amount(*_args, **_kwargs)
            return count

        wrap(line, "generate_with_guard", "noise.synth", add("noise.samples", lambda res, *a, **k: len(res)))
        for owner in (line, protocols):
            wrap(owner, "simulate_bep", "line.solve")
        for owner in (bepfile, protocols):
            wrap(owner, "build_bep_file", "bepfile.build")
        for attr in ("payload_bytes", "canonical_bytes"):
            p.set(BepFile, attr, self.span("bepfile.encode", self._encoder(getattr(BepFile, attr))))
        wrap(bepfile, "serialize_bep_file", "bepfile.encode")
        wrap(bepfile, "parse_bep_file", "bepfile.parse")
        for owner in (auth, protocols):
            wrap(owner, "hash_message", "auth.hash")
            wrap(owner, "verify", "auth.hash")
            wrap(owner, "encrypt_digest", "auth.hash", self._count_tag)
        wrap(Scheduler, "send", "channel.send", add("channel.envelopes", lambda *a, **k: 1))
        p.set(Scheduler, "run_until_idle", self.span("channel.deliver", self._delivery(Scheduler.run_until_idle)))
        wrap(Scheduler, "record", None, self._count_action)
        wrap(
            protocols, "residual_curve", "protocols.search",
            add("protocols.search_points", lambda res, ref, other, *a, **k: _overlap_points(res[0], ref, other)),
        )
        wrap(protocols, "exchange_files", "protocols.exchange")
        for owner, attr in ((harness, "protocol_a"), (harness, "protocol_b"), (protocols, "protocol_b")):
            wrap(owner, attr, "protocols.twoway")
        for attr in ("protocol_c", "combined_check"):
            wrap(harness, attr, "protocols.verdict")
        for attr in ("make_scenario", "install"):
            wrap(harness, attr, "scenario.make")
        p.set(Config, "from_dict", classmethod(self.span("harness.config", Config.from_dict.__func__)))
        for attr in ("canonical_dict", "build_scenario"):
            wrap(Config, attr, "harness.config")
        wrap(harness, "sweep", "harness.config")
        wrap(harness, "run_scenario", "harness.report")
        wrap(harness.RunReport, "canonical_json", "harness.json", add("harness.report_bytes", lambda res, *a, **k: len(res)))

    def uninstall(self) -> None:
        self._patches.undo()

    @staticmethod
    def _count_tag(counts, tag, *_args, **_kwargs) -> None:
        counts["auth.tags"] += 1
        counts["auth.key_bits"] += tag.span.length

    @staticmethod
    def _count_action(counts, _result, _scheduler, _absolute, kind, *_args, **_kwargs) -> None:
        if kind.startswith("attack-"):
            counts["adversaries.actions"] += 1

    def end_op(self, seconds: float) -> None:
        self.op_s += seconds
        self.ops += 1

    def metrics(self, scale: float, overhead: float, counter: "Tracer") -> dict:
        """Per-op layer metrics: times from this tracer, multiplied by
        scale; counts from counter, a tracer run over a fixed set of ops;
        overhead, the traced ops' extra time over the untraced ones, as a
        fraction."""
        n = max(self.ops, 1)
        out = {f"{layer}_ms": (1e3 * scale * self.self_s.get(layer, 0.0) / n, "ms") for layer in TIMES}
        for key, unit in COUNTS:
            out[key] = (counter.counts.get(key, 0) / max(counter.ops, 1), unit)
        out["trace.unattributed_ms"] = (1e3 * scale * (self.op_s - sum(self.self_s.values())) / n, "ms")
        out["trace.overhead_pct"] = (100.0 * overhead, "%")
        return out


@contextmanager
def counting_wire(counts: dict):
    """Count in counts["wire_bytes"] the bytes the parties hand to the
    channel: a record as ``serialize_bep_file`` writes it with its tag, a
    message as its canonical bytes plus its tag."""
    send, serialize = channel.Scheduler.send, bepfile.serialize_bep_file

    def size(payload) -> int:
        if isinstance(payload, protocols.FileTransfer):
            return len(serialize(payload.file, payload.tag))
        tag = payload.tag.to_bytes() if payload.tag is not None else b""
        return len(payload.canonical_bytes()) + len(tag)

    def counted_send(scheduler, payload, *args, **kwargs):
        counts["wire_bytes"] += size(payload)
        return send(scheduler, payload, *args, **kwargs)

    def counted_serialize(*args, **kwargs):
        blob = serialize(*args, **kwargs)
        counts["wire_bytes"] += len(blob)
        return blob

    patches = Patches()
    patches.set(channel.Scheduler, "send", counted_send)
    patches.set(bepfile, "serialize_bep_file", counted_serialize)
    try:
        yield counts
    finally:
        patches.undo()
