"""The host's speed, sampled while a job runs.

A shared host does not run a guest at one speed: a fixed loop of Python
code takes from 55 to 75 ms of CPU time within the same minute on the
2-vCPU VM this benchmark was written on, as other guests load the same
cores and memory.  CPU times of the program drift with it, by more than
the bounds of the benchmark.

``SpeedProbe`` runs a fixed piece of reference work, about 6 ms of
interpreted integer, complex, dict, tuple, string and list code, three
times at the start and then every ``interval`` CPU seconds of the job (from a
``SIGPROF`` timer, so that it runs on the job's own thread, between two of
its bytecodes).  ``scaled(cpu_s, taken)`` takes the probes' own time out
of a CPU time and rescales the rest to the speed at which the reference work
takes ``REFERENCE_S``.  This removes most of the drift, not all of it:
the program's code slows less than the reference work in some stretches
and more in others.  A change to the program does not change the
reference work, so it shows in full.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# CPU seconds the reference work takes at the reference speed: the median
# over a quiet minute on the VM named above (Python 3.11).
REFERENCE_S = 0.006

_RNG = random.Random(1)
_MATRIX = [[complex(i, j) / 64 for j in range(20)] for i in range(20)]
_BIG = [_RNG.getrandbits(900) for _ in range(24)]


def reference_work():
    """A fixed mix of the program's kinds of work: small-integer and dict
    code, complex products over nested lists (as in a numeric matrix
    product), allocation of tuples and strings, and products of large
    integers (as in the polynomial kernel)."""
    acc, table = 0, {}
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
        key = (i & 63, acc & 7)
        table[key] = table.get(key, 0) + 1
    cols = list(zip(*_MATRIX))
    product = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in _MATRIX]
    words = {str(i): (i, i * 7, str(i)) for i in range(3000)}
    ordered = sorted(words.values(), key=lambda t: -t[1])
    for a in _BIG:
        for b in _BIG[:20]:
            acc += (a * b) % 1000000007
    return acc, product[0][0], ordered[0], len(table)


class SpeedProbe:
    """Reference-work timings taken while the job runs."""

    def __init__(self, interval=0.2, first=3, enabled=True):
        self.interval = interval
        self.enabled = enabled
        self.samples = []
        self._mark = 0
        for _ in range(first):
            self.sample()

    def sample(self, *_):
        if not self.enabled:
            return
        # while a process-wide CPU timer is armed, the process CPU clock
        # advances only at scheduler ticks; the thread's clock stays exact
        start = time.thread_time()
        reference_work()
        self.samples.append(time.thread_time() - start)

    def start(self):
        if not self.enabled:
            return
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self):
        """Disarm the timer; read the process CPU clock only after this."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def phase(self):
        """The samples taken since the previous call."""
        taken = self.samples[self._mark:]
        self._mark = len(self.samples)
        return taken

    @staticmethod
    def scaled(cpu_s, taken):
        """``cpu_s`` less the probes in ``taken``, at the reference speed;
        ``cpu_s`` as it is when nothing was taken."""
        if not taken:
            return cpu_s
        return (cpu_s - sum(taken)) * REFERENCE_S / statistics.median(taken)
