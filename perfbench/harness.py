"""Workload-independent parts of the benchmark: spans, statistics, the loop.

Nothing here imports the program, so the statistics and the span
bookkeeping can be tested on their own.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

# Fewest samples that must lie above a reported tail percentile.
MIN_SAMPLES_BEYOND = 10


class CheckFailed(Exception):
    """An op produced a wrong answer."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- statistics

def percentile(samples, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in 0..100, got {q}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples, q: float):
    """(value, samples beyond it), or (None, count) when too few lie beyond."""
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    return (value if beyond >= MIN_SAMPLES_BEYOND else None), beyond


def median(samples) -> float:
    return percentile(samples, 50.0)


# --------------------------------------------------------------------- spans

@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None  # index into Tracer.spans
    op_id: int | str | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


class NullTracer:
    """Tracing off: calls go straight through."""

    def span(self, name: str, op_id=None):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Keeps every span in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op_id=None):
        parent = self._open[-1] if self._open else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent].op_id
        index = len(self.spans)
        record = Span(name, self.clock(), parent=parent, op_id=op_id)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, busy seconds); busy is self time, so nesting never double counts."""
        totals: dict[str, tuple[int, float]] = {}
        for s, busy in zip(self.spans, self_times(self.spans)):
            calls, total = totals.get(s.name, (0, 0.0))
            totals[s.name] = (calls + 1, total + busy)
        return totals

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op_id": s.op_id} for s in self.spans]


# ----------------------------------------------------------- host speed

# On a shared VM the host's speed drifts by up to a third over seconds as
# neighbours load the machine.  A fixed kernel timed next to each op measures
# that speed, and timings are scaled to the speed at which the kernel takes
# REFERENCE_NOMINAL_S.  The kernel mixes a pure-Python loop with small numpy
# calls: on a shared 2-vCPU Xeon VM that mix tracked the drift of all four
# workloads better than either part alone (see README.md).
REFERENCE_NOMINAL_S = 0.001
_REFERENCE_MATRIX = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)
_REFERENCE_MATRIX = _REFERENCE_MATRIX + _REFERENCE_MATRIX.conj().T


def reference_kernel() -> float:
    total = 0
    for i in range(3_500):
        total += i * i
    h = _REFERENCE_MATRIX
    for _ in range(8):
        np.linalg.eigvalsh(h)
        np.kron(h, h[:2, :2])
        total += np.abs(h @ h).max()
    return total


def timed_reference(clock=time.perf_counter, kernel=reference_kernel) -> float:
    """Median of three timed runs of the kernel, so that one stall is ignored."""
    times = []
    for _ in range(3):
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return sorted(times)[1]


def at_reference_speed(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / reference_s


# ---------------------------------------------------------------------- loop

@dataclass
class LoopResult:
    """Every attempted op: its wall time, the reference time around it, success."""

    op_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    elapsed_s: float = 0.0
    errors: list[str] = field(default_factory=list)  # the first few failures

    def add(self, seconds: float, reference_s: float, error: str | None) -> None:
        self.op_s.append(seconds)
        self.reference_s.append(reference_s)
        self.ok.append(error is None)
        if error is not None and len(self.errors) < 5:
            self.errors.append(error)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def verified(self) -> int:
        return self.ok.count(True)

    def latencies_s(self, scaled: bool) -> list[float]:
        """Times of the verified ops, wall or at reference speed."""
        return [at_reference_speed(s, r) if scaled else s
                for s, r, ok in zip(self.op_s, self.reference_s, self.ok) if ok]

    def throughput(self, scaled: bool) -> float:
        """Verified ops per second of op time; failed ops spend time and count for nothing."""
        busy = sum(at_reference_speed(s, r) if scaled else s
                   for s, r in zip(self.op_s, self.reference_s))
        return self.verified / busy


def run_op(op, state, tracer, op_id, clock=time.perf_counter) -> tuple[float, str | None]:
    """Run one op inside its span; returns its wall time and the failure, if any."""
    t0 = clock()
    try:
        with tracer.span("bench.op", op_id=op_id):
            op(state, tracer, op_id)
    except Exception as exc:  # noqa: BLE001 - a failing op is counted, the run goes on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return clock() - t0, (f"op {op_id}: {type(exc).__name__}: {exc} "
                              f"({os.path.basename(where.filename)}:{where.lineno})")
    return clock() - t0, None


def closed_loop(op, state, tracer, seconds: float, first_op: int = 0,
                clock=time.perf_counter, kernel=reference_kernel) -> LoopResult:
    """One client: the next op starts when the previous one has returned.

    The reference kernel runs before the first op and after every op; each op
    is paired with the mean of the two reference times around it.
    """
    result = LoopResult()
    start = clock()
    before = timed_reference(clock, kernel)
    op_id = first_op
    while True:
        seconds_taken, error = run_op(op, state, tracer, op_id, clock)
        after = timed_reference(clock, kernel)
        result.add(seconds_taken, 0.5 * (before + after), error)
        before = after
        op_id += 1
        if clock() - start >= seconds:
            break
    result.elapsed_s = clock() - start
    return result
