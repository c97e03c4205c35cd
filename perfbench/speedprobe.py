"""Samples the speed of the CPU while a pass runs.

The machine the benchmark runs on may be shared with other work.  On the
machine the figures in DESIGN.md come from, the same pure-Python loop ran
up to 1.8x slower in some spells than in others, and a spell lasted from
seconds to minutes, so the raw wall time of a pass moved by as much.

`SpeedProbe` runs a fixed reference loop every PERIOD_S seconds of wall
time, from a timer signal, and times each run.  The samples are spread
evenly over the pass, so REF_S * mean(1 / sample) is the CPU's mean speed
over the pass, relative to a CPU on which the loop takes REF_S.  A pass's
wall time times that speed is its wall time on that reference CPU.
`sample_speed` takes the same measure right after a set-up probe, which
is too short for a timer.  The loop does not touch the package, so no
change to the package moves it.
"""

import signal
import statistics
import time

PERIOD_S = 0.05
REF_S = 0.001  # the loop's nominal time; it took 0.6-1.0 ms on the machine in DESIGN.md


def reference():
    """A fixed mix of small-int, tuple, dict and big-int work."""
    table = {}
    acc = 0
    for i in range(4000):
        acc += (i * i) % 7
        table[i & 255] = (i, acc)
    x = 3 ** 400
    for i in range(40):
        x = (x * 7 + i) % (1 << 1200)
    return acc + x


class SpeedProbe:
    """Times `reference` every PERIOD_S seconds between start() and stop()."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # wall time taken by the probe itself

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        return _speed(self.samples)


def sample_speed(runs=20):
    """The CPU's speed now, from `runs` back-to-back runs of the loop."""
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - t0)
    return _speed(samples)


def _speed(samples):
    """Mean speed over the samples, relative to the reference CPU."""
    return REF_S * statistics.fmean(1 / s for s in samples)
