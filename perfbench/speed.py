"""The machine's speed, sampled while the benchmark measures.

On a shared host the processor runs the same code at different speeds
from one second to the next (a pass of ``l41-mystic(1,2)`` takes 0.6 s
or 1.0 s depending on the moment), and CPU time tracks wall time, so no
clock of the process can tell the two apart.  ``SpeedSampler`` measures
the speed itself: while it is active, a timer signal runs a fixed
reference loop of ``Fraction`` arithmetic and dictionary stores every
``PERIOD_S`` seconds and records how long the loop took.  The loop uses
the standard library only, so a change to ncreflect cannot change it.

``scale()`` converts wall seconds measured in the sampled interval into
reference seconds: seconds on a machine where one reference loop takes
``REFERENCE_LOOP_S``.  A program that becomes 10% slower takes 10% more
reference seconds, while a machine that becomes slower does not.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
REFERENCE_LOOP_S = 0.5e-3
_OPERANDS = 32
_ROUNDS = 2


class SpeedSampler:
    """Context manager sampling the reference loop on a ``SIGALRM`` timer.

    It takes one sample on entry, so even an instant body has one.  A
    sample costs about 1% of the sampled interval.  Use it only in the
    main thread, and not while something else uses ``SIGALRM``.
    """

    def __init__(self):
        rng = random.Random(11)
        self._operands = [Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                          for _ in range(_OPERANDS)]
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def _loop(self) -> None:
        clock, xs = time.perf_counter, self._operands
        start = clock()
        table = {}
        for r in range(_ROUNDS):
            acc = xs[0]
            for i, x in enumerate(xs):
                acc = acc * x + xs[i - r - 1]
                table[i] = acc
        self.samples.append(clock() - start)

    def _on_alarm(self, signum, frame) -> None:
        # a signal that arrives during a sample would time the sample too
        if self._busy:
            return
        self._busy = True
        try:
            self._loop()
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._loop()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference seconds per wall second over the sampled interval.

        The program's progress in a moment is proportional to the
        reciprocal of the loop time then, so the reciprocals are
        averaged; a sample slowed by a preemption weighs little.
        """
        return REFERENCE_LOOP_S * statistics.fmean(1 / c for c in self.samples)
