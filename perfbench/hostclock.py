"""Interval timing scaled to a fixed reference host speed.

The benchmark host is shared: the same pure-Python loop runs at full
speed for a while, then up to twice as slow for several seconds, then
fast again.  Runs of a few tens of seconds therefore differ by 20-40% in
plain wall time, with no change to the code.

A :class:`HostClock` samples the host's speed by timing a short
calibration kernel: while sampling is on, every ``PERIOD_S`` from a
timer signal, so that a call lasting seconds is sampled inside too, and
after an interval that has too few probes near it.  An interval's wall
time, less the time spent in probes inside it, is scaled by
``reference / mean(probe times near it)``.  The result is still in seconds:
the time the interval would have taken with the kernel running at its
reference speed.

The kernel does the kind of arithmetic that dominates the workload,
because a slowdown hits different instruction mixes differently: field
multiplications for ``bn254``, and hashing, dict inserts and small tuples
for ``toy``.  It is plain Python and uses nothing from sevdel, so no
change to the program moves it.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
from contextlib import contextmanager

# BN254 base-field prime; any 254-bit modulus would do.
_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583


def field_kernel() -> int:
    x, y = _P - 12345, _P // 3
    for _ in range(1_500):
        x = x * y % _P
    return x


def mixed_kernel() -> int:
    x, y = _P - 12345, _P // 3
    seen = {}
    for i in range(300):
        x = x * y % _P
        seen[hashlib.sha256(x.to_bytes(32, "big")).digest()[:9]] = (i, x)
    for _ in range(150):
        x = x * x % _P
    return x


# kernel and its time in seconds on a quiet host (2-vCPU KVM guest,
# Python 3.11, plain ints)
KERNELS = {"bn254": (field_kernel, 0.87e-3), "toy": (mixed_kernel, 0.52e-3)}

# Contention changes within tenths of a second, so probes are short and
# frequent: about 3% of the time.
PERIOD_S = 0.025
# An interval is scaled by the mean of the probes that ended inside it or
# up to WINDOW_S before it.  With fewer than MIN_PROBES there, one more is
# taken at its end.
WINDOW_S = 0.25
MIN_PROBES = 2


class HostClock:
    def __init__(self, group: str):
        self.kernel, self.reference = KERNELS[group]
        self.probes: list[tuple[float, float]] = []   # (start, end) of each probe
        self._probing = False

    def probe(self) -> None:
        if self._probing:
            return
        self._probing = True
        try:
            t0 = time.perf_counter()
            self.kernel()
            self.probes.append((t0, time.perf_counter()))
        finally:
            self._probing = False

    @contextmanager
    def sampling(self):
        """Probe every PERIOD_S from SIGALRM while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn):
        """Run ``fn()``; return its result and its scaled duration in seconds."""
        first = len(self.probes)
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        # a timer probe runs between two bytecodes, so none straddles t0 or t1
        inside = sum(e - s for s, e in self.probes[first:] if t0 <= s and e <= t1)
        window = []
        for s, e in reversed(self.probes):
            if e < t0 - WINDOW_S:
                break
            if e <= t1:
                window.append(e - s)
        if len(window) < MIN_PROBES:
            self.probe()
            window.append(self.probes[-1][1] - self.probes[-1][0])
        return out, (t1 - t0 - inside) * self.reference / statistics.fmean(window)

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 is a quiet host."""
        return statistics.median(e - s for s, e in self.probes) / self.reference
