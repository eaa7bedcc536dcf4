"""A fixed reference kernel that measures how fast the machine runs Python now.

On a shared host the speed of CPU-bound Python shifts by up to 1.6x, both
from second to second and for minutes at a time, and the guest sees none
of it as stolen time.  No statistic of a 40 s run averages that away.
The benchmark therefore samples the machine's speed while the program
runs: an interval timer interrupts the main thread every INTERVAL_S, and
the signal handler runs one short chunk of this kernel and records how
long it took.  An operation's time, less the chunks run inside it, is
divided by how much slower than NOMINAL_CHUNK_S its chunks ran, which
rescales it to a machine of fixed speed.

The kernel does the kind of work latsets does (calls through function
objects, list comprehensions, building sets, membership tests, tuples of
coordinatewise minima) and imports nothing from latsets, so a change to
latsets cannot change it.
"""

from __future__ import annotations

import signal
import time

# Time one chunk takes, run back to back, on the machine the benchmark was
# tuned on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7) in a quiet phase;
# rescaled times are seconds of that machine.
NOMINAL_CHUNK_S = 0.00015
INTERVAL_S = 0.005
MIN_CHUNKS = 20  # an operation shorter than this many chunks borrows earlier ones

_MASKS = [(i * 2654435761) & 0xFFFF for i in range(1, 21)]
_TUPLES = [tuple((m >> (2 * j)) & 3 for j in range(4)) for m in _MASKS]


def _and(a, b):
    return a & b


def _tmin(a, b):
    return tuple(map(min, a, b))


def chunk() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0
    for val in _MASKS:
        meets = [_and(val, b) for b in _MASKS]
        seen = set(meets)
        total += len(seen) + sum(1 for v in meets if v in seen)
    for val in _TUPLES[:4]:
        total += len({_tmin(val, b) for b in _TUPLES})
    return total


def timed_chunks(seconds: float) -> list:
    """Run chunks one after another for `seconds`, and at least MIN_CHUNKS;
    returns their times."""
    times: list = []
    end = time.perf_counter() + seconds
    while len(times) < MIN_CHUNKS or time.perf_counter() < end:
        t = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - t)
    return times


def slowdown(times: list) -> float:
    """How many times slower than nominal the chunks with these times ran."""
    return sum(times) / len(times) / NOMINAL_CHUNK_S


class Speedometer:
    """While entered, runs a chunk every INTERVAL_S from a SIGALRM handler
    and keeps the chunk times.  Main thread only."""

    def __init__(self):
        self.times: list = timed_chunks(0)
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while a chunk runs is dropped
            return
        self._busy = True
        try:
            t = time.perf_counter()
            chunk()
            self.times.append(time.perf_counter() - t)
        finally:
            self._busy = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.times)

    def rescale(self, seconds: float, since: int) -> tuple:
        """Rescale `seconds` of wall time that began at chunk `since`:
        returns (the time less its chunks, at nominal speed; the slowdown)."""
        inside = self.times[since:]
        window = self.times[min(since, len(self.times) - MIN_CHUNKS):]
        factor = slowdown(window)
        return (seconds - sum(inside)) / factor, factor
