"""The machine's momentary speed, probed from inside the benchmark's thread.

A small shared host runs the benchmark's one thread at a speed that swings
by half or more for seconds at a time.  Process CPU time swings with it (the
thread is not waiting, it runs slower), so CPU time is no cure, and a probe
on another core does not follow this one.  A ``SpeedProbe`` therefore
interrupts the thread itself every ``PERIOD_S`` seconds (``SIGALRM``) and,
between two bytecodes of whatever runs, times a fixed piece of pure-Python
work of one to three milliseconds.  ``normalize`` turns a wall interval
into the time it would have taken at the nominal probe time: each stretch
between probes is scaled by the nominal probe time over the probe time
around it (a running median of ``SMOOTH`` probes, so one disturbed probe
does not count).  The probes' own time is left out.

The probe is pure Python because most of the jobs' time is interpreter time
(Fraction and Python-int arithmetic, object arrays, per-call overhead).
Large int64 array eliminations (small primes) follow it less well; adding
an int64 array part to the probe follows those better but Q jobs worse.
The module imports only ``bisect``, ``math``, ``signal`` and ``time`` (no
numpy, fractions or statistics), so the probe can run in a fresh
interpreter around an import that is being timed without importing
anything ahead of it.
"""

from __future__ import annotations

import bisect
import signal
import time
from math import gcd

PERIOD_S = 0.1
SMOOTH = 9
# The probe time of the machine the benchmark was defined on (a 2-vCPU KVM
# guest) in its fast state.  A normalized time is a wall time at this speed.
NOMINAL_PROBE_S = 0.0014


def median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)


def probe_work():
    """Fixed pure-Python work: exact fraction sums in small objects, a
    dict, and a sort of a list too large for the first cache levels."""
    acc = _Ratio(0, 1)
    for i in range(1, 200):
        acc = acc + _Ratio(i, i + 7)
    table = {}
    for i in range(1500):
        table[i % 31] = table.get(i % 31, 0) + i * i
    keys = [(i * 7919) % 40009 for i in range(6000)]
    keys.sort()
    return acc, table, keys


class SpeedProbe:
    """Probes on a timer while entered; ``normalize`` uses what it saw.

    Only one can be entered at a time: it owns ``SIGALRM``.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts = []
        self.durations = []
        self._smoothed = []
        self._previous = None

    def _probe(self, _signum=None, _frame=None):
        start = time.perf_counter()
        probe_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def _probe_time_at(self, t):
        """Smoothed probe time of the probe nearest to t."""
        if len(self._smoothed) != len(self.durations):
            half, d = SMOOTH // 2, self.durations
            self._smoothed = [median(d[max(0, i - half) : i + half + 1]) for i in range(len(d))]
        i = bisect.bisect_left(self.starts, t)
        if i == len(self.starts) or (i > 0 and t - self.starts[i - 1] < self.starts[i] - t):
            i -= 1
        return self._smoothed[i]

    def normalize(self, start, end):
        """Seconds that the interval [start, end) of perf_counter time would
        have taken at the nominal probe time, without the probes inside it."""
        if not self.starts:
            raise ValueError("no probe was taken")
        total, t = 0.0, start
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        for i in range(lo, hi + 1):
            stop = self.starts[i] if i < hi else end
            if stop > t:
                total += (stop - t) * NOMINAL_PROBE_S / self._probe_time_at((t + stop) / 2)
            if i < hi:
                t = max(t, self.starts[i] + self.durations[i])
        return total

    def summary(self):
        d = self.durations
        return {"probes": len(d), "probe_median_s": median(d), "probe_min_s": min(d), "probe_max_s": max(d)}
