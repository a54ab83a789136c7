"""Call counting and span recording for the benchmark's calls into qoslink.

A Recorder sits between the benchmark and the library.  Every call goes
through ``Recorder.call(module, fn, ...)``, which counts it against the
module and, when tracing is on, records a span around it.  Spans stay in
memory; the caller writes them out when the run ends.

Self time of a span is its duration minus the part of it that its child
spans cover.  The benchmark only sees module boundaries from outside, so
a call from ``throughput`` into ``sources`` is ``throughput`` self time.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("sources", "channel", "throughput", "energy", "queuesim", "cli")


class Recorder:
    """Counts calls and failures per module; records spans when tracing."""

    def __init__(self, run_id: str, tracing: bool):
        self.run_id = run_id
        self.tracing = tracing
        self.spans = []
        self.calls = Counter()
        self.failed = Counter()
        self.errors = []
        self._stack = []

    @contextmanager
    def span(self, module: str, function: str):
        """A span around the block; a no-op when tracing is off."""
        if not self.tracing:
            yield
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "module": module,
            "function": function,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, module: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), counted against ``module``.

        An exception counts as a failed operation, is recorded and
        re-raised, so the caller decides whether the pass can go on.
        """
        self.calls[module] += 1
        try:
            with self.span(module, fn.__name__):
                return fn(*args, **kwargs)
        except Exception as exc:
            self.reject(module, f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            raise

    def reject(self, module: str, message: str) -> None:
        """Marks one operation of ``module`` as failed (raised, exited
        non-zero or failed a correctness check)."""
        self.failed[module] += 1
        self.errors.append(f"{module}: {message}")

    def check(self, module: str, ok: bool, message: str) -> None:
        if not ok:
            self.reject(module, message)


def self_times(spans) -> dict:
    """Per-module self time in seconds over a list of span records.

    Spans come from one thread, so children never overlap and the part of
    a span they cover is the sum of their durations."""
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run_id"], s["parent"])
            covered[key] = covered.get(key, 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get((s["run_id"], s["id"]), 0.0)
        out[s["module"]] = out.get(s["module"], 0.0) + own
    return out


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """In-process cost of one span in seconds: the median over repeats of
    a traced minus an untraced ``Recorder.call`` of an empty function."""

    def loop(tracing: bool) -> float:
        rec = Recorder("span-cost", tracing)
        t0 = time.perf_counter()
        for _ in range(calls):
            rec.call("cost", _empty)
        return (time.perf_counter() - t0) / calls

    return statistics.median(loop(True) - loop(False) for _ in range(repeats))


def _empty() -> None:
    pass
