"""A wall clock corrected for the load of a shared host.

On a host whose cores are shared with other machines, the same Python code
runs up to about 1.8 times slower while a neighbour is busy, in spells of
seconds to minutes.  Wall times of the same work then spread by a quarter
from run to run, which hides the changes a benchmark is meant to show.

The sampler measures the host's speed while the program runs: every
`INTERVAL_S` a timer signal runs a fixed reference loop, which shares no
code with coxart, and records how long it took.  The time of a stretch of
work is then scaled by how much slower than `REFERENCE_S` the reference ran
during that stretch:

    corrected = (wall - sampling time) * REFERENCE_S / median reference time

which is the wall time the work would take on a core that runs the
reference in `REFERENCE_S`.  A change to coxart changes `wall` and not the
reference, and shows in full.  The time the handler spends is taken out of
`wall`, so sampling itself adds nothing.  The handler runs in the main
thread between bytecodes, so it samples while pure-Python code runs, which
is all of coxart.

On the machine the benchmark was made on, the logarithms of a round's wall
time and of its mean reference time correlate at 0.86 with slope 0.99, so
the reference slows down as the program does.  The median, not the mean, of
the samples is used: now and then a single sample takes far longer than the
others (in about one run in five there, for reasons not found), and a mean
over a round then read up to five times too slow.  Scaling to a fixed
`REFERENCE_S`, and not to the fastest sample of each run, keeps the noise of
that one sample out of the result.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL_S = 0.01
#: about the reference's time on an idle core of the reference machine
#: (Intel Xeon at 2.1 GHz, Python 3.11.7); it fixes the scale only
REFERENCE_S = 150e-6

_TABLE = {i: 3 * i for i in range(64)}


def reference():
    """A fixed stretch of interpreter work, about 0.15 ms on an idle core;
    it allocates no container, so it never starts the garbage collector."""
    table, acc = _TABLE, 0
    for i in range(1500):
        acc += table[i & 63] + (i ^ acc) % 7
    return acc


class Sampler:
    def __init__(self):
        self.durations = array("d")
        self.spent = 0.0  # seconds inside the handler

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        mid = time.perf_counter()
        self.durations.append(mid - start)
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return time.perf_counter(), len(self.durations), self.spent

    def window(self, mark):
        """(wall time less sampling, median reference time) since mark."""
        t0, n0, spent0 = mark
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        taken = self.durations[n0:]
        return wall, statistics.median(taken)


def corrected(wall, reference_s):
    """Wall time scaled to a reference time of REFERENCE_S."""
    return wall * REFERENCE_S / reference_s
