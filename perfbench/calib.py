"""Wall-clock calibration against the host's current speed.

On a shared host the same work takes 30-50 % longer in one run than in
another, and the speed drifts within a run on a scale of seconds.  The
untimed parts of a run therefore time a fixed pure-Python reference
loop at the edges of every timed interval, and each interval's wall
time is scaled by ``NOMINAL_S / loop time`` (the mean of its two
edges).  The result is *reference seconds*: the time the work would
take on a host that runs the reference loop in exactly ``NOMINAL_S``.
A slower program still reads slower; a slower host does not.
"""

from __future__ import annotations

import time

#: duration of one :func:`reference_loop` at the reference speed
NOMINAL_S = 0.0028
#: loops per speed probe; the probe keeps the fastest
LOOPS = 3
#: wall seconds between speed probes inside a timed stream
CHUNK_S = 0.25


def reference_loop() -> int:
    """Small-dictionary updates and integer arithmetic, the kind of work
    the program's hot paths do."""
    table = {}
    total = 0
    for i in range(20000):
        table[i & 1023] = i
        total += table[i & 511]
    return total


def speed_factor() -> float:
    """``NOMINAL_S`` over the current loop time (below 1 while the host
    runs slower than the reference)."""
    best = float("inf")
    for _ in range(LOOPS):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return NOMINAL_S / best


class Meter:
    """Times a stream in chunks of about :data:`CHUNK_S` seconds,
    probing the host speed between chunks."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ref_s = 0.0
        #: blocking-call durations, in reference seconds
        self.calls = []
        self._pending = []
        self._factor = speed_factor()
        self._start = time.perf_counter()

    def call(self, seconds: float) -> None:
        self._pending.append(seconds)

    def between(self) -> None:
        """Called between blocking calls; closes a chunk when due."""
        if time.perf_counter() - self._start >= CHUNK_S:
            self._close()

    def end(self) -> None:
        self._close()

    def _close(self) -> None:
        wall = time.perf_counter() - self._start
        before = self._factor
        self._factor = speed_factor()
        factor = (before + self._factor) / 2
        self.wall_s += wall
        self.ref_s += wall * factor
        self.calls.extend(seconds * factor for seconds in self._pending)
        self._pending = []
        self._start = time.perf_counter()


def timed_setup(build):
    """Run *build*; return ``(result, wall seconds, reference seconds)``."""
    before = speed_factor()
    start = time.perf_counter()
    result = build()
    wall = time.perf_counter() - start
    factor = (before + speed_factor()) / 2
    return result, wall, wall * factor
