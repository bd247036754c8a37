"""Reference-time clock, layer-call log and spans for the benchmark.

On a host whose cores are shared, speed can change by half within a second,
and raw host times of the same code then spread by 30% from run to run.
While running, `Clock` runs a fixed pure-Python calibration loop about every
CAL_EVERY seconds and measures how fast the host runs interpreted code at that
moment. An interval-timer signal marks a calibration as due, and the next
layer call runs it first; only inside a call already LONG_GAP seconds past
the last calibration does the signal handler calibrate at once, so short
calls are never interrupted and long ones are still sampled. Every duration the benchmark reports is host time
scaled by that speed: reference seconds, the time the work would take on a
host that runs the calibration loop at REFERENCE_RATE iterations per second.
Calibration intervals themselves count as zero reference time.

`Recorder.call` wraps every call into an rvtag layer. It logs the call's
name, host start and end, and counts calls and errors per layer. With tracing on, it also
keeps a span per call and per enclosing `span` block: id, parent id, name,
unit id, host start and end.
"""

from __future__ import annotations

import json
import signal
from bisect import bisect_right
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

CAL_ITERATIONS = 4000
CAL_EVERY = 0.025
LONG_GAP = 0.1
# Roughly the calibration speed of a 2-vCPU Xeon VM when its host is idle,
# so reference seconds read close to host seconds there.
REFERENCE_RATE = 3.0e6

SPAN_FIELDS = ("id", "parent", "name", "unit", "start", "end")


def _calibration_loop(iterations: int) -> int:
    """Interpreter-shaped work: list and dict traffic and masked integer
    arithmetic, like an emulator's dispatch loop but using no rvtag code."""
    regs = [0] * 32
    memory = {}
    for i in range(iterations):
        value = regs[i & 31] + i
        regs[(i * 7) & 31] = (value * 2654435761) & 0xFFFFFFFFFFFFFFFF
        memory[i & 255] = memory.get((i + 1) & 255, 0) ^ value
    return regs[0]


class Clock:
    """Calibration points and the host-to-reference time mapping. The lists
    only grow, so a calibration from the timer signal never invalidates a
    mapping the main code is computing for an earlier time."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.speeds = []
        self.cumulative = []  # reference seconds at each calibration's end
        self.due = False
        self._busy = False

    def calibrate(self) -> None:
        if self._busy:  # a timer signal arrived during a calibration
            return
        self._busy = True
        try:
            start = perf_counter()
            _calibration_loop(CAL_ITERATIONS)
            end = perf_counter()
            speed = CAL_ITERATIONS / (end - start) / REFERENCE_RATE
            reached = 0.0
            if self.ends:
                gap = start - self.ends[-1]
                reached = self.cumulative[-1] + gap * (self.speeds[-1] + speed) / 2
            self.starts.append(start)
            self.ends.append(end)
            self.speeds.append(speed)
            self.cumulative.append(reached)
            self.due = False
        finally:
            self._busy = False

    def _on_timer(self, _signum, _frame):
        if perf_counter() - self.ends[-1] >= LONG_GAP:
            self.calibrate()
        else:
            self.due = True

    def tick(self) -> None:
        """Run a calibration the timer has marked as due."""
        if self.due:
            self.calibrate()

    @contextmanager
    def running(self):
        """Calibrate now, every CAL_EVERY seconds while inside, and at exit."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.calibrate()

    def reference(self, t: float) -> float:
        """Reference seconds from the end of the first calibration to host
        time t, with speed interpolated linearly between calibrations. t must
        not be later than the last calibration that has completed, except
        after the clock has stopped running."""
        i = bisect_right(self.ends, t) - 1
        if i < 0:
            return min(t - self.starts[0], 0.0) * self.speeds[0]
        elapsed = t - self.ends[i]
        if i + 1 >= len(self.cumulative):
            return self.cumulative[i] + elapsed * self.speeds[i]
        gap = self.starts[i + 1] - self.ends[i]
        elapsed = min(elapsed, gap)
        speed_now = self.speeds[i] + (self.speeds[i + 1] - self.speeds[i]) * elapsed / gap
        return self.cumulative[i] + elapsed * (self.speeds[i] + speed_now) / 2

    def seconds(self, start: float, end: float) -> float:
        return self.reference(end) - self.reference(start)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    def __init__(self, clock: Clock):
        self.clock = clock
        self.log = []
        self.calls = Counter()
        self.errors = Counter()
        self.tracing = False
        self.spans = []
        self._stack = []
        self.unit = None

    def call(self, name: str, fn, *args, **kwargs):
        self.clock.tick()
        layer = layer_of(name)
        self.calls[layer] += 1
        span_id = self._open(name) if self.tracing else None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            end = perf_counter()
            self.log.append((name, start, end))
            if span_id is not None:
                self._close(span_id, start, end)

    @contextmanager
    def span(self, name: str, unit=None):
        """Group the layer calls made inside; a no-op with tracing off."""
        if not self.tracing:
            yield
            return
        outer_unit = self.unit
        if unit is not None:
            self.unit = unit
        span_id = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(span_id, start, perf_counter())
            self.unit = outer_unit

    def _open(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, name, self.unit, 0.0, 0.0])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id, start, end):
        self._stack.pop()
        self.spans[span_id][4:6] = [start, end]

    def seconds_by_name(self) -> dict:
        """Reference seconds per call name over the log."""
        totals = defaultdict(float)
        for name, start, end in self.log:
            totals[name] += self.clock.seconds(start, end)
        return totals

    def self_seconds(self, first: int, last: int) -> dict:
        """Reference self time per layer over spans [first, last): each span's
        duration minus its children's, summed by the layer prefix of its name."""
        durations = {span[0]: self.clock.seconds(span[4], span[5])
                     for span in self.spans[first:last]}
        own = dict(durations)
        for span_id, parent, *_ in self.spans[first:last]:
            if parent in own:
                own[parent] -= durations[span_id]
        totals = defaultdict(float)
        for span_id, _parent, name, *_ in self.spans[first:last]:
            totals[layer_of(name)] += own[span_id]
        return totals

    def write_spans(self, path) -> None:
        """Spans with start and end in reference seconds."""
        rows = [[i, parent, name, unit, self.clock.reference(start), self.clock.reference(end)]
                for i, parent, name, unit, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": SPAN_FIELDS, "time": "reference seconds",
                       "spans": rows}, handle)
