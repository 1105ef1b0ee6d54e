"""Host-speed meter interleaved with the measured work.

A shared VM's speed drifts by 10 to 20% over tens of seconds, and a probe
timed on another core, or only before and after a 40-s computation, does
not follow it.  ``Pace`` interleaves a short fixed reference computation
with the work on the same core: an interval timer fires every INTERVAL_S
and its signal handler times one probe between two bytecodes of whatever
is running.  A measured stretch then has its probes' time taken out
(``work``) and is taken to reference speed by REFERENCE_PROBE_S over the
mean probe time of the same stretch (``factor``).  A change to ellfam
changes the work and not the probe, so it moves a scaled time as it moves
wall time.

The probe is a plain interpreter loop on small integers.  Timed next to
cold catalog builds (2-core x86 VM, Python 3.11) whose work ranged over
35% from run to run, its mean followed the build time with correlation
0.98 and left a 7% range; a big-integer and Fraction probe left 11%, and
dict-heavy or cache-missing probes left 19 to 38%.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.25
REFERENCE_PROBE_S = 0.006  # nominal time of one probe


def probe() -> float:
    """Seconds taken by a fixed loop of small-integer arithmetic."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s = (s + i * i) % 1000003
    return time.perf_counter() - t0


class Pace:
    """Probes every INTERVAL_S of wall time between start() and stop()."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        d = probe()
        self.probes.append(d)
        self.spent += d
        self._busy = False

    def start(self) -> "Pace":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.probes)

    def work(self, mark) -> float:
        """Wall seconds since the mark, less the probes run in them."""
        t, spent, _ = mark
        return time.perf_counter() - t - (self.spent - spent)

    def factor(self, mark) -> float:
        """REFERENCE_PROBE_S over the mean probe since the mark (the last
        probe if none ran since)."""
        window = self.probes[mark[2]:] or self.probes[-1:]
        return REFERENCE_PROBE_S / statistics.mean(window)
