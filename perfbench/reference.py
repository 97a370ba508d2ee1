"""A fixed piece of exact arithmetic that measures the machine's speed.

A shared host can change speed by tens of percent, and switch between a
fast and a slow phase within a second. Timing this reference while the ops
run, in the same process, lets each op's latency be rescaled to a fixed
machine speed: the speed at which one reference call takes REFERENCE_S
seconds. The reference is rational Gaussian elimination on small integer
matrices, the library's own kind of work, and it lives here so that no
change to the library can alter it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005
_SIZE = 8
_REPEATS = 6
_RNG = random.Random(0x5EED)
_MATRIX = tuple(
    tuple(Fraction(_RNG.randint(-3, 3)) for _ in range(_SIZE)) for _ in range(_SIZE)
)


def _det(a) -> Fraction:
    m = [list(row) for row in a]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            result = -result
        result *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return result


def sample(repeats: int = _REPEATS) -> float:
    """Seconds taken by one reference call, timed over ``repeats``
    determinants and scaled to a full call."""
    start = time.perf_counter()
    for _ in range(repeats):
        _det(_MATRIX)
    return (time.perf_counter() - start) * _REPEATS / repeats


class Sampler:
    """Short reference samples every ``interval_s`` of wall time, taken
    from a timer signal, so that they fall inside long ops too.

    The handler runs between the op's bytecodes; ``spent`` is the time the
    handler has taken so far, which callers subtract from op latencies.
    ``samples`` receives (start time, reference seconds) pairs.
    """

    REPEATS = 2

    def __init__(self, samples: list, interval_s: float):
        self.samples = samples
        self.interval_s = interval_s
        self.spent = 0.0

    def _take(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, sample(self.REPEATS)))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def local_factors(samples, spans, margin_s: float) -> list[float]:
    """Per-op multipliers to reference speed.

    ``samples`` are (start time, seconds) pairs in time order and
    ``spans[k]`` is (start, end) of op k. An op's factor comes from the mean
    of the samples taken during it or within ``margin_s`` of it (the last
    sample before it if there are none), so that each op is rescaled by the
    machine's speed while it ran, not over the whole run.
    """
    times = [t for t, _ in samples]
    factors = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - margin_s)
        hi = bisect.bisect_right(times, end + margin_s)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(times) - 1)
            hi = lo + 1
        factors.append(REFERENCE_S / statistics.fmean(s for _, s in samples[lo:hi]))
    return factors
