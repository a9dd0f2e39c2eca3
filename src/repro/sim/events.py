"""Event and event-queue primitives for the simulation kernel.

The queue is a binary heap ordered by (time, sequence).  The sequence
number makes ordering of same-time events deterministic (FIFO in schedule
order), which keeps whole-system runs reproducible under a fixed seed.

Hot-path design (the open-loop load engine dispatches millions of
events per run):

* :class:`Event` is a ``__slots__`` class, not a dataclass — no
  per-instance ``__dict__``, no generated comparison walking fields.
* The heap stores ``(time, seq, event)`` tuples, so every sift
  comparison is a C-level tuple compare over a float and an int; the
  ordering never reaches the Event object itself.  ``seq`` is unique,
  so two entries can never tie into comparing events.

Both choices change wall-clock only: the dispatch order is the same
(time, seq) order the dataclass heap produced, bit for bit.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A callback scheduled at a point in virtual time.

    Attributes
    ----------
    time:
        Absolute virtual time at which the event fires.
    seq:
        Tie-breaker assigned by the queue; preserves schedule order.
    action:
        Zero-argument callable executed when the event is dispatched.
    label:
        Human-readable description, used in traces and error messages.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], Any],
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it at dispatch time."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq}, "
            f"label={self.label!r}, cancelled={self.cancelled})"
        )


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_next_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def push(self, time: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` at absolute virtual ``time``."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, action, label)
        _heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = _heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def pop_due(self, until: Optional[float] = None) -> Optional[Event]:
        """Remove and return the earliest live event with ``time <= until``.

        Returns ``None`` when the queue is empty *or* the earliest live
        event lies beyond ``until`` (it stays queued); use
        :meth:`peek_time` to distinguish.  This is the kernel's combined
        peek-and-pop: one heap traversal per dispatched event instead of
        two.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                _heappop(heap)
                continue
            if until is not None and head[0] > until:
                return None
            return _heappop(heap)[2]
        return None

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        self._heap.clear()
