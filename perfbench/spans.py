"""Spans, self time, percentiles and the host-speed sentinel.

Spans are recorded by the benchmark around its calls into the library;
nothing inside ``repro`` is instrumented.  A span has a name, a start
and an end (``time.perf_counter`` seconds), a parent span and the id
of the op it belongs to.  Spans stay in memory and are written as
Chrome-trace JSON when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager


class Span:
    """One timed interval around a call into a layer."""

    __slots__ = ("sid", "name", "op", "parent", "start", "end")

    def __init__(self, sid: tuple, name: str, op: tuple,
                 parent: tuple | None, start: float) -> None:
        self.sid = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans kept in memory; a disabled recorder keeps none.

    ``span`` is a context manager that yields the :class:`Span` (or
    ``None`` when disabled).  Spans nest by a stack, so one recorder
    serves one thread; the serve-mix clients each own one.  Span and op
    ids are ``(tid, n)`` pairs, unique across the recorders of a run.
    """

    def __init__(self, enabled: bool, tid: int = 0) -> None:
        self.enabled = enabled
        self.tid = tid
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_op = 0

    def new_op(self) -> tuple:
        self._next_op += 1
        return (self.tid, self._next_op)

    @contextmanager
    def span(self, name: str, op: tuple = (0, 0)):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span((self.tid, len(self.spans)), name,
                      parent.op if parent is not None else op,
                      parent.sid if parent is not None else None,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()


def children_of(spans: list[Span]) -> dict[tuple, list[Span]]:
    """Direct children of every span, by parent id."""
    children: dict[tuple, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[tuple, float]:
    """Self time of every span: its duration minus the part of it
    that its direct children cover."""
    children = children_of(spans)
    return {
        span.sid: span.duration - covered(
            [(c.start, c.end) for c in children.get(span.sid, [])],
            span.start, span.end)
        for span in spans}


def check_self_time_identity(spans: list[Span],
                             tolerance: float = 1e-9) -> list[str]:
    """For every root span (an op), the self times of the root and of
    all its descendants must add up to the root's wall time.  Returns
    one message per op that breaks the identity."""
    own = self_times(spans)
    roots = {span.sid: span for span in spans if span.parent is None}
    totals = {sid: 0.0 for sid in roots}
    by_id = {span.sid: span for span in spans}
    for span in spans:
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        totals[root.sid] += own[span.sid]
    problems = []
    for sid, root in roots.items():
        if abs(totals[sid] - root.duration) > tolerance * max(
                1.0, root.duration):
            problems.append(
                f"op {root.op} ({root.name}): self times sum to "
                f"{totals[sid]:.9f}s, wall {root.duration:.9f}s")
    return problems


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, median duration, median and total self
    time."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    table = {}
    for name, group in sorted(by_name.items()):
        table[name] = {
            "calls": len(group),
            "median_s": statistics.median(s.duration for s in group),
            "median_self_s": statistics.median(own[s.sid] for s in group),
            "total_self_s": sum(own[s.sid] for s in group),
        }
    return table


def format_layer_table(table: dict[str, dict]) -> str:
    lines = [f"{'span':<28}{'calls':>7}{'median s':>12}"
             f"{'self med s':>12}{'self total s':>14}"]
    for name, row in table.items():
        lines.append(f"{name:<28}{row['calls']:>7}"
                     f"{row['median_s']:>12.6f}"
                     f"{row['median_self_s']:>12.6f}"
                     f"{row['total_self_s']:>14.6f}")
    return "\n".join(lines)


def chrome_trace(recorders: list[SpanRecorder],
                 process_name: str) -> dict:
    """Chrome-trace (Perfetto-loadable) document of every span."""
    starts = [s.start for r in recorders for s in r.spans]
    origin = min(starts) if starts else 0.0
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": process_name}}]
    for recorder in recorders:
        for span in recorder.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": recorder.tid,
                "name": span.name,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"op": "%d.%d" % span.op,
                         "span": "%d.%d" % span.sid,
                         "parent": None if span.parent is None
                         else "%d.%d" % span.parent}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, recorders, process_name: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(recorders, process_name), handle,
                  separators=(",", ":"))


#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank ``q`` percentile (0 < q < 1), or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count for which :func:`percentile` reports."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n


#: Iterations of the host-speed sentinel loop.
CALIB_ITERATIONS = 300_000


def host_calib_ops_per_s() -> float:
    """Iterations per second of a fixed pure-Python loop.

    It normalises nothing; it shows how fast the host ran this
    interpreter when the run started and ended.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return CALIB_ITERATIONS / elapsed
