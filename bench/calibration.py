"""Machine-speed calibration for the benchmark's end-to-end timings.

On a shared 2-vCPU virtual machine, other tenants change how fast the
same code runs: one `verify all` request took 8.6 s and, six minutes
later, 5.0 s.  No statistic taken inside a 30-second run can remove a
drift that slow.  The benchmark therefore also times a fixed kernel of
its own every ``SAMPLE_EVERY_S`` of the run, and reports times scaled to
a machine on which the kernel takes ``REFERENCE_MS``:

    scaled = measured * REFERENCE_MS / median(kernel times of the run)

The kernel does what geoverify's hot paths do: Python arithmetic on small
objects holding 4-vectors and 4x4 arrays, and small ``einsum``
contractions over a working set of several MB (the program's geometry
cache holds about 5 MB).  A kernel without that working set followed the
program's speed worse than no scaling at all.  It shares no code with
geoverify, so a change to the program cannot move it.

Samples are taken from a ``SIGALRM`` handler, so they also fall inside
long requests; the time the handler takes is subtracted from the request
it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 35.0  # about the kernel's time on the machine the baseline was taken on
SAMPLE_EVERY_S = 0.5


class _Jet:
    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __mul__(self, o):
        cross = np.outer(self.g, o.g)
        cross = cross + cross.T
        return _Jet(self.v * o.v, self.v * o.g + o.v * self.g, self.v * o.h + o.v * self.h + cross)

    def __add__(self, o):
        return _Jet(self.v + o.v, self.g + o.g, self.h + o.h)


_rng = np.random.default_rng(7)
_A = _Jet(1.0, 0.1 * _rng.standard_normal(4), 0.1 * _rng.standard_normal((4, 4)))
_B = _Jet(0.5, 0.1 * _rng.standard_normal(4), 0.1 * _rng.standard_normal((4, 4)))
_E = _rng.standard_normal((4, 4))
_POOL = [_rng.standard_normal((4, 4, 4, 4, 4)) for _ in range(1024)]  # 8 MB, visited in a fixed shuffled order
_ORDER = _rng.permutation(len(_POOL))


def kernel_ms() -> float:
    """Time one run of the fixed kernel, in ms."""
    t0 = time.perf_counter()
    acc = _A
    for n, i in enumerate(_ORDER):
        if n % 4 == 0:
            acc = _A
        acc = acc * _B + _A
        np.einsum("ia,mabcd->mibcd", _E, _POOL[i])
    return (time.perf_counter() - t0) * 1e3


class Calibrator:
    """Context manager that samples the kernel every SAMPLE_EVERY_S of wall time."""

    def __init__(self):
        self.samples: list[float] = []  # kernel times, ms
        self.paused_s = 0.0  # wall time spent in the kernel; request timers subtract it

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(kernel_ms())
        self.paused_s += time.perf_counter() - t0

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return REFERENCE_MS / statistics.median(self.samples)
