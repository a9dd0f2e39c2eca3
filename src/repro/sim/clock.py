"""Virtual time source.

All components of the simulated platform share one clock.  Time is a float
number of seconds since simulation start.  The clock only moves forward;
attempting to rewind it is a programming error and raises immediately
rather than silently corrupting causality.
"""

from __future__ import annotations


class ClockError(RuntimeError):
    """Raised on attempts to move virtual time backwards."""


class VirtualClock:
    """A monotonically advancing virtual clock.

    The kernel advances the clock when it dispatches events; components may
    also advance it directly for synchronous costs (e.g. a TPM command that
    blocks the caller) via :meth:`advance`.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta!r}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to an absolute ``timestamp``."""
        if timestamp < self._now:
            raise ClockError(
                f"cannot rewind clock from {self._now!r} to {timestamp!r}"
            )
        self._now = timestamp
        return timestamp

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"

