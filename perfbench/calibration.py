"""The machine's speed while a step runs, for scaling wall times to a reference.

The speed of the 2-core virtual machine this benchmark was written on
drifts by itself, by 30 % and more over minutes and by several percent
within a second, with nothing else running; see README.md.  So a timed
step runs inside a :class:`SpeedProbe`: a timer signal interrupts it every
``INTERVAL`` seconds to time a fixed pure-Python kernel, and once more at
its start and end.  The step's wall time, less the time those samples
took, is multiplied by ``REFERENCE_S`` over the samples' mean.  The kernel
does what nnidist spends its time on (dict and tuple churn, small objects,
`Fraction` arithmetic) and calls nothing of nnidist, so a change to the
program still moves the scaled time and a change of machine speed does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The kernel's mean time inside a step on the reference machine (2 cores,
# Python 3.11.7), so that reference seconds read about as wall seconds there.
# Inside a step a sample takes about twice as long as in a loop of samples.
REFERENCE_S = 500e-6
INTERVAL = 0.02


class _Node:
    __slots__ = ("key", "items")

    def __init__(self, key: int, items: tuple) -> None:
        self.key = key
        self.items = items


def _kernel() -> tuple[int, Fraction]:
    table: dict[int, tuple] = {}
    nodes = []
    total = Fraction(0)
    for i in range(400):
        k = (i * 7919) % 97
        table[k] = table.get(k, ()) + (i,)
        nodes.append(_Node(k, table[k]))
        if i % 8 == 0:
            total += Fraction(k, 4)
    return sum(len(n.items) for n in nodes if n.key & 1), total


class SpeedProbe:
    """Samples the kernel during a block; see the module docstring.

    Inside the block, :meth:`lap` ends one timed part and starts the next.
    """

    def __enter__(self) -> "SpeedProbe":
        self._busy = False
        self._samples: list[float] = []   # kernel times of the current lap
        self._spent = 0.0                 # seconds all samples took
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._lap_at, self._lap_spent = time.perf_counter(), self._spent
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _sample(self) -> None:
        if self._busy:   # a tick that arrives during a sample is dropped
            return
        self._busy = True
        # the cyclic collector stays off, so that a sample times the machine,
        # not a collection over whatever the program keeps alive
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self._samples.append(took)
        self._spent += took
        self._busy = False

    def lap(self) -> tuple[float, float]:
        """(reference seconds, factor) of the part since the block began or the last lap.

        The part's wall time excludes the samples taken during it; its
        speed is the mean of those samples and of the ones that open and
        close it.
        """
        wall = time.perf_counter() - self._lap_at - (self._spent - self._lap_spent)
        self._sample()
        factor = REFERENCE_S / statistics.fmean(self._samples)
        self._samples = self._samples[-1:]   # the closing sample opens the next part
        self._lap_at, self._lap_spent = time.perf_counter(), self._spent
        return wall * factor, factor
