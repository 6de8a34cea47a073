"""Host-speed correction of the benchmark's times.

The benchmark runs on shared virtual machines whose CPU throughput switches
between states about 1.5x apart within tens of milliseconds, with the load
of other guests on the host, and drifts over minutes.  Raw wall times of
the same code then spread by 20-35 % between runs, which hides any change
smaller than that.

While a timed phase runs, `SpeedClock` samples the host's speed: every
`interval` seconds of wall time a SIGALRM handler runs `kernel()`, a fixed
piece of pure-Python work (method calls, object allocation, dict updates and
integer arithmetic, the interpreter work that juliadim's run time is made
of), and records how long it took.  A sample's speed is
KERNEL_NOMINAL_S over that duration.  `correct()` turns a wall-time interval
into the seconds the same work takes on a nominal host, one that runs the
kernel in KERNEL_NOMINAL_S:

    (wall - time spent in the sampler) * mean speed of the samples taken
                                         within PAD_S of the interval

Samples come often and the window is narrow because the speed changes
within tens of milliseconds, and most operations take about a millisecond:
with a 20 ms interval and a 0.1 s window the median latency of the same
batches still spread by 10 %.  Of the kernels tried on repeated identical
batches (this one, Fraction arithmetic, 1200-bit and 8000-bit integer
arithmetic), this one tracked the program best on `inverse` and as well as
any on `curves`: it cut the batch-to-batch
coefficient of variation from 22 % to 4 % on `inverse` and from 12 % to
2 % on `curves`.

The mean of speeds (not of durations) is used because the samples are
uniform in wall time, so it is the mean rate at which work got done.
KERNEL_NOMINAL_S is about the kernel's time on a 2-vCPU Intel Xeon guest
with Python 3.11, so corrected times there are close to wall times.  The
sampler takes about 3 % of the run at the default interval; its own time
is taken out of every interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.005
PAD_S = 0.02
KERNEL_NOMINAL_S = 0.15e-3
SETUP_BURST = 20            # a set-up takes about 0.1 s


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def step(self, x: int) -> "_Pair":
        return _Pair(self.b, (self.a * x + 1) & 0xFFFFFFFF)


def kernel() -> int:
    acc, table, pair = 0, {}, _Pair(1, 2)
    for i in range(150):
        table[i % 17] = table.get(i % 17, 0) + i * 3
        acc += (i * i) % 13
        pair = pair.step(i)
        acc += pair.a % 7
    return acc


class WallClock:
    """Plain wall time: for traced runs, where sampler time would land in
    the spans."""

    spent = 0.0

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent

    def interval_since(self, mark: tuple) -> tuple:
        """(start, end, seconds spent in the sampler) since `mark`."""
        t0, spent0 = mark
        return t0, time.perf_counter(), self.spent - spent0

    def correct(self, interval: tuple) -> float:
        t0, t1, spent = interval
        return t1 - t0 - spent


class SpeedClock(WallClock):
    """Samples the host's speed while it is entered; see the module doc."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list = []       # perf_counter at the start of each sample
        self.speeds: list = []
        self.spent = 0.0            # seconds spent in the sampler so far
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:              # a signal that lands inside the handler
            return
        self._busy = True
        t = time.perf_counter()
        kernel()
        d = time.perf_counter() - t
        self.times.append(t)
        self.speeds.append(KERNEL_NOMINAL_S / d)
        self.spent += d
        self._busy = False

    def burst(self, n: int) -> None:
        """n samples back to back, for intervals too short for the timer."""
        for _ in range(n):
            self.sample()

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - PAD_S)
        hi = bisect.bisect_right(self.times, t1 + PAD_S)
        if lo == hi:                # no sample near: the nearest on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if lo == hi:
            raise RuntimeError("perfbench: no speed samples were taken")
        return statistics.fmean(self.speeds[lo:hi])

    def correct(self, interval: tuple) -> float:
        """Seconds on the nominal host for an `interval_since` result; call it
        after the phase, so that samples on both sides of the interval count."""
        t0, t1, spent = interval
        return (t1 - t0 - spent) * self.speed(t0, t1)


def time_setup(setup) -> float:
    """Corrected seconds of one call of `setup()`, bracketed by bursts of
    samples because a set-up is short."""
    with SpeedClock() as clock:
        clock.burst(SETUP_BURST)
        mark = clock.mark()
        setup()
        interval = clock.interval_since(mark)
        clock.burst(SETUP_BURST)
    return clock.correct(interval)
