"""Discrete-event simulation kernel (system S1).

Every latency-bearing operation in the reproduction — TPM commands, the
SKINIT late launch, network hops, human think time — charges virtual time
on a shared :class:`~repro.sim.clock.VirtualClock` through this kernel.
The paper measured wall-clock seconds on a physical testbed; we measure
deterministic, seedable virtual seconds instead (substitution S1 in
DESIGN.md).

Public API
----------
:class:`Simulator`       — event loop owning the clock and run queue.
:class:`VirtualClock`    — monotonically advancing virtual time source.
:class:`Event`           — a scheduled callback.
:class:`SimProcess`      — generator-based cooperative process.
:class:`LatencyModel`    — distributions used to sample operation latencies.
:class:`MetricRegistry`  — counters / timers / histograms for experiments.
:class:`SeededRng`       — named, reproducible random streams.
:class:`Tracer`          — hierarchical span recording over virtual time.
:class:`TraceAnalyzer`   — critical paths and per-phase span aggregation.
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue
from repro.sim.faults import FaultConfigError, FaultInjector, Window
from repro.sim.kernel import Simulator, SimulationError
from repro.sim.latency import (
    ConstantLatency,
    EmpiricalLatency,
    LatencyModel,
    NormalLatency,
    UniformLatency,
)
from repro.sim.metrics import Counter, Histogram, MetricRegistry, Timer
from repro.sim.process import SimProcess, Sleep, WaitFor
from repro.sim.randoms import SeededRng
from repro.sim.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceAnalyzer,
    Tracer,
    TracingError,
    spans_from_dicts,
    traced,
)

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "Simulator",
    "SimulationError",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "NormalLatency",
    "EmpiricalLatency",
    "MetricRegistry",
    "Counter",
    "Timer",
    "Histogram",
    "SimProcess",
    "Sleep",
    "WaitFor",
    "SeededRng",
    "FaultInjector",
    "FaultConfigError",
    "Window",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceAnalyzer",
    "TracingError",
    "spans_from_dicts",
    "traced",
]
