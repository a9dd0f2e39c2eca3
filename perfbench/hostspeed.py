"""CPU-time samples scaled to a nominal host speed.

The machines this benchmark runs on are shared, and their speed is not
constant: on a 2-vCPU VM of a shared Xeon host, every piece of pure Python
code (the program's flows, a dict loop, ``tokenize``, ``json``) ran about
1.75 times slower for spells of a second to half a minute, switching
back and forth throughout.  CPU time slows with wall time, so in these
spells the process is not descheduled; the core itself runs slower.  A spell that
covers most of a run moves any figure taken from raw wall time by far
more than a program change worth catching.

Because the slowdown is the same for all of that code, a short fixed
reference loop timed next to a sample measures it.  A
:class:`HostSpeed` collects raw samples and, every ``segment_s``,
times the reference and scales the samples taken since the previous
reference by ``NOMINAL_REFERENCE_S`` over the mean of the two
references around them.  An adjusted sample reads as the time the same
work takes on a host whose reference takes ``NOMINAL_REFERENCE_S``: the
figure changes with the program, not with its neighbours.  The
reference's own time is never inside a sample.

The host also takes the core away for a millisecond or more at a time.
Those pauses are not a slower core, so no reference sees them, and
they land in whichever sample is running: in 40 s of ``spike_day``
units, 2.3% of the session gaps were more than 0.5 ms longer in wall
time than in CPU time, and the p99 gap read 4.5 ms in wall time against
3.0 ms in CPU time.  The program does no I/O and runs on one thread, so
every sample and reference is read from :func:`clock`, this process's
CPU time, which leaves those pauses out.
"""

from __future__ import annotations

import time
from typing import List

#: The clock every sample and reference is read from.
clock = time.process_time

#: The reference's time on that 2-vCPU Xeon VM, in its
#: fast state.  It is a fixed scale, not a measurement: every run, on any
#: host, reports samples as if the reference took exactly this long.
NOMINAL_REFERENCE_S = 0.00017
#: Time between references.
SEGMENT_S = 0.05
#: The reference is the fastest of this many timings of its loop, so an
#: interrupt inside one of them does not read as a slower host.
REFERENCE_TRIES = 3


def reference_s() -> float:
    """Time a fixed pure-Python loop: dict and integer work, no
    allocation that outlives it, no I/O.  The fastest of
    REFERENCE_TRIES timings."""
    best = float("inf")
    for _ in range(REFERENCE_TRIES):
        table: dict = {}
        started = clock()
        for i in range(2_000):
            key = i & 127
            table[key] = table.get(key, 0) + i
        best = min(best, clock() - started)
    return best


class HostSpeed:
    """Collects raw samples, read from :func:`clock`, and scales them to the nominal host
    speed (see the module docstring).  With ``adjust`` false it times no
    reference and keeps the samples as measured.

    Call :meth:`add` with each sample, :meth:`tick` between samples (it
    times a reference when a segment has passed; the caller's next
    sample must start after it returns), :meth:`add_rest` with time that
    belongs to no sample, and :meth:`flush` once at the end."""

    def __init__(self, adjust: bool = True, segment_s: float = SEGMENT_S) -> None:
        self.adjust = adjust
        self.segment_s = segment_s
        #: Adjusted samples in milliseconds, in the order they were added.
        self.samples_ms: List[float] = []
        #: Adjusted seconds outside the samples.
        self.rest_s = 0.0
        self._pending: List[float] = []
        self._pending_rest = 0.0
        self._reference = reference_s() if adjust else NOMINAL_REFERENCE_S
        self._since = clock()

    @property
    def total_s(self) -> float:
        """Adjusted seconds of all samples and the rest."""
        return sum(self.samples_ms) / 1000.0 + self.rest_s

    def add(self, seconds: float, count: int = 1) -> None:
        """``count`` samples of ``seconds`` each."""
        self._pending.extend([seconds] * count)

    def add_rest(self, seconds: float) -> None:
        self._pending_rest += seconds

    def tick(self) -> None:
        if self.adjust and clock() - self._since >= self.segment_s:
            self.flush()

    def flush(self) -> None:
        """Scale the pending samples by the references around them."""
        reference = reference_s() if self.adjust else NOMINAL_REFERENCE_S
        scale = NOMINAL_REFERENCE_S / ((self._reference + reference) / 2.0)
        self.samples_ms.extend(1000.0 * s * scale for s in self._pending)
        self.rest_s += self._pending_rest * scale
        self._pending, self._pending_rest = [], 0.0
        self._reference = reference
        self._since = clock()
