"""The simulation kernel: an event loop over virtual time.

Design notes
------------
The kernel is deliberately small.  Components interact with it in two ways:

* **Synchronous costs.**  Most of the platform model (TPM commands, SKINIT,
  memory hashing) executes inline in the caller and simply charges time via
  ``simulator.clock.advance(...)``.  This mirrors how those operations block
  the single CPU of the paper's testbed.

* **Asynchronous events.**  The network, human think time, and concurrent
  clients use scheduled events / generator processes (`repro.sim.process`),
  dispatched in deterministic order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricRegistry
from repro.sim.randoms import SeededRng
from repro.sim.tracing import NULL_TRACER, Tracer


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Simulator:
    """Owns the virtual clock, the event queue, metrics and randomness.

    Parameters
    ----------
    seed:
        Master seed for all named random streams (see :class:`SeededRng`).
        Two simulators built with the same seed and the same schedule of
        operations produce bit-identical results.
    trace:
        Optional callable invoked as ``trace(time, label)`` for every
        dispatched event; useful for debugging whole-system runs.
    tracing:
        When True, the simulator records structured spans on
        ``self.tracer`` (see `repro.sim.tracing`).  The default is the
        shared no-op tracer, which costs nothing on the hot paths and
        keeps traced/untraced runs bit-identical.
    crypto_backend:
        Optional crypto backend name (``"pure"`` or ``"accel"``, see
        `repro.crypto.backend`).  Selection is process-global — hash
        primitives have no handle on a simulator — so this is a
        convenience knob for experiment arms; ``None`` (the default)
        leaves the process setting untouched.  Backend choice affects
        wall-clock only; virtual results are bit-identical either way.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Callable[[float, str], None]] = None,
        tracing: bool = False,
        crypto_backend: Optional[str] = None,
    ) -> None:
        if crypto_backend is not None:
            from repro.crypto.backend import set_backend

            set_backend(crypto_backend)
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.metrics = MetricRegistry(clock=self.clock)
        self.rng = SeededRng(seed)
        self.tracer = Tracer(self.clock) if tracing else NULL_TRACER
        self._trace = trace
        self._dispatched = 0
        self._running = False

    def enable_tracing(self) -> Tracer:
        """Switch on span recording (idempotent); returns the tracer.

        Prefer ``Simulator(tracing=True)``: components constructed
        before this call may have captured the no-op tracer (e.g. a
        TpmDevice built from this simulator keeps its own reference).
        """
        if not self.tracer.enabled:
            self.tracer = Tracer(self.clock)
        return self.tracer

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    def schedule(
        self, delay: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.queue.push(self.clock.now + delay, action, label)

    def schedule_at(
        self, time: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute virtual ``time``."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now ({self.clock.now})"
            )
        return self.queue.push(time, action, label)

    def spawn(self, generator: Iterator, label: str = "process") -> "Event":
        """Run a generator-based process (see `repro.sim.process`).

        The generator yields either a float (sleep seconds) or objects with
        a ``resolve(simulator, wake)`` method.
        """

        # Built once per process, not per step — sleep-heavy processes
        # otherwise pay a string format on every yield.
        sleep_label = f"{label}:sleep"

        def step(send_value: Any = None) -> None:
            try:
                yielded = generator.send(send_value)
            except StopIteration:
                return
            if isinstance(yielded, (int, float)):
                self.schedule(float(yielded), step, label=sleep_label)
            elif hasattr(yielded, "resolve"):
                yielded.resolve(self, step)
            else:
                raise SimulationError(
                    f"process {label!r} yielded unsupported value {yielded!r}"
                )

        return self.schedule(0.0, step, label=f"{label}:start")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Dispatch events until the queue drains or ``until`` is reached.

        Events at exactly ``until`` are dispatched.  Returns the number of
        events dispatched by this call.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        dispatched_before = self._dispatched
        # Hot-loop locals: the loop body runs once per event, millions of
        # times in an open-loop load run, so attribute chains are hoisted.
        # ``self.tracer`` is re-read each iteration (an event may call
        # ``enable_tracing``); the clock and queue are stable for the
        # simulator's lifetime.
        clock = self.clock
        pop_due = self.queue.pop_due
        peek_time = self.queue.peek_time
        trace = self._trace
        dispatched = self._dispatched
        budget = dispatched + max_events
        try:
            while True:
                event = pop_due(until)
                if event is None:
                    if until is not None and peek_time() is not None:
                        # Earliest live event lies beyond the horizon.
                        clock.advance_to(until)
                    break
                if event.time > clock._now:
                    clock._now = event.time
                if trace is not None:
                    trace(clock._now, event.label)
                tracer = self.tracer
                if tracer.enabled:
                    with tracer.span("sim.dispatch", label=event.label):
                        event.action()
                else:
                    event.action()
                dispatched += 1
                self._dispatched = dispatched
                if dispatched >= budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway loop"
                    )
        finally:
            self._running = False
        return self._dispatched - dispatched_before

    def run_for(self, duration: float) -> int:
        """Run for ``duration`` virtual seconds from the current time."""
        return self.run(until=self.clock.now + duration)

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over the simulator's lifetime."""
        return self._dispatched

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.clock.now:.6f}, pending={len(self.queue)}, "
            f"dispatched={self._dispatched})"
        )
