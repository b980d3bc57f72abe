"""Host-speed probe: a fixed stdlib loop timed inside the measured process.

The benchmark host is shared, and its speed drifts: on a shared 2-vCPU
virtual machine a 20 000-letter ``code_orbit`` took 0.23 s in fast phases
and 0.50 s in slow ones, and those phases last from seconds to minutes,
so repeating work inside a run does not average them out.  A probe loop
timed on the same thread at the same moment slows down by the same
factor (the ratio of the two stayed within about 10 %).  A probe in a
side process does not: it runs on the other vCPU, whose load is its own.

So a timer signal runs the probe every PERIOD_S on the measured thread,
and every timed interval is reported as

    (interval - probe time inside it) * REFERENCE_PROBE_S / probe time

where the last probe time is taken from the samples around the interval:
the result reads as seconds on a host whose probe takes REFERENCE_PROBE_S.
The probe uses only the standard library (Fraction and int arithmetic),
so a change to iet3 never moves it; it costs about 2 % of the run.  The
raw times are kept in the run's record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

#: typical probe time inside a run on the host this was written on
REFERENCE_PROBE_S = 0.0065
PERIOD_S = 0.25
#: probe samples within this distance of an interval describe it
WINDOW_S = 1.0


def probe() -> None:
    x = Fraction(1, 3)
    acc = 0
    for i in range(500):
        x = (x * 3 + Fraction(i, 7)) % 5
        acc += i * i % 7


class SpeedProbe:
    """Samples the probe from a timer signal between ``__enter__`` and
    ``__exit__``; ``spent`` is the probe time so far, which callers
    subtract from the intervals they time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        # the probe's allocations must not set off a collection of the
        # measured code's garbage, whose cost would be charged to the probe
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append((start, took))
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def probe_time(self, start: float, end: float) -> float:
        """The probe's time around [start, end]: the median of nearby samples
        for a short interval, a trimmed mean over a long one."""
        near = sorted(d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S)
        if not near:
            raise RuntimeError("no host-speed probe sample near a timed interval")
        if len(near) < 10:
            return statistics.median(near)
        cut = len(near) // 10
        return statistics.fmean(near[cut:len(near) - cut])

    def scaled(self, start: float, end: float, busy: float) -> float:
        """busy seconds of [start, end] in reference-host seconds."""
        return busy * REFERENCE_PROBE_S / self.probe_time(start, end)
