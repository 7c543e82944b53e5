"""The machine's pace: how fast this CPU runs plain Python at each moment.

On a shared host the same code runs up to half again slower for seconds at
a time, and CPU time slows with it (the neighbours slow the core itself; the
kernel reports almost no steal).  Raw timings of one commit then differ by
more between runs than most changes to the program would move them.

:class:`Pace` measures that speed alongside the program, in the same thread.
A timer signal runs a fixed probe, a few hundred microseconds of dict,
tuple and ``Fraction`` work, every ``PERIOD_S`` seconds; the probe's
duration is the machine's current pace.  :meth:`Pace.clock` turns a
``time.perf_counter`` reading into a *paced* clock.  Between two probes the
paced clock runs at ``REFERENCE_PROBE_S`` over the mean duration of those
two probes for the share of the time the process spent in user mode, and
at real speed for the share it spent in the kernel; it stands still while
a probe runs.  Kernel time is left as it is because it barely follows the
probe: on repeated ``polylog`` queries, 43 % of whose time is spent in the
kernel (page faults on fresh numpy arrays), pacing the whole time
over-corrected, and pacing only user time cut the spread of their timings
from 0.085 to 0.028 (raw: 0.127).  A duration on the paced clock is the
time the same work would take on a machine whose probe takes
``REFERENCE_PROBE_S``, with the probes themselves taken out.
"""

from __future__ import annotations

import gc
import resource
import signal
import time
from fractions import Fraction

import numpy

PERIOD_S = 0.02
#: the probe's duration at this repository's reference speed: the median
#: over many passes on a 2-CPU Intel Xeon at 2.0 GHz
REFERENCE_PROBE_S = 5e-4


#: the probe's table lives as long as the process: a table made afresh on
#: every probe would take and give back heap memory at moments that depend
#: on the timer, and the program's allocations would land differently
_TABLE: dict = {}


def _probe():
    table = _TABLE
    total = Fraction(0)
    for i in range(600):
        key = (i % 17, i % 5, (i * 7) % 11)
        table[key] = table.get(key, 0) ^ i
        if i % 8 == 0:
            total += Fraction(i + 1, i % 7 + 1)
    return len(table), total


class Pace:
    """Probes the machine's pace between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        # per probe: start, end, then user and kernel CPU seconds before
        # it and after it
        self.probes: list[tuple] = []
        self._previous = None
        self._starts = self._ends = self._at = self._rate = None

    def _measure(self, *_):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the pace
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.probes.append((start, end, before.ru_utime, before.ru_stime,
                            after.ru_utime, after.ru_stime))
        if collecting:
            gc.enable()

    def start(self) -> None:
        for _ in range(5):  # warm the probe's code and data
            _probe()
        self._measure()
        self._previous = signal.signal(signal.SIGALRM, self._measure)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._measure()
        probes = numpy.array(self.probes)
        durations = probes[:, 1] - probes[:, 0]
        # gap k runs from the end of probe k to the start of probe k + 1
        self._starts, self._ends = probes[:-1, 1], probes[1:, 0]
        user = numpy.maximum(probes[1:, 2] - probes[:-1, 4], 0.0)
        kernel = numpy.maximum(probes[1:, 3] - probes[:-1, 5], 0.0)
        busy = user + kernel
        user_share = numpy.divide(user, busy, out=numpy.ones_like(busy), where=busy > 0)
        paced = REFERENCE_PROBE_S / ((durations[:-1] + durations[1:]) / 2)
        self._rate = user_share * paced + (1 - user_share)
        lengths = numpy.maximum(self._ends - self._starts, 0.0) * self._rate
        self._at = numpy.concatenate(([0.0], numpy.cumsum(lengths)))

    def clock(self, t):
        """The paced clock at ``perf_counter`` reading(s) ``t``, which lie
        between :meth:`start` and :meth:`stop`."""
        t = numpy.asarray(t, dtype=float)
        k = numpy.clip(numpy.searchsorted(self._starts, t, side="right") - 1,
                       0, len(self._starts) - 1)
        inside = numpy.clip(t - self._starts[k], 0.0, self._ends[k] - self._starts[k])
        return self._at[k] + inside * self._rate[k]

    def median_probe_s(self) -> float:
        return float(numpy.median([probe[1] - probe[0] for probe in self.probes]))
