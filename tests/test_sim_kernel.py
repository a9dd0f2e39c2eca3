"""Unit tests for the discrete-event simulation kernel (S1)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    ConstantLatency,
    EmpiricalLatency,
    NormalLatency,
    SeededRng,
    Simulator,
    SimulationError,
    Sleep,
    UniformLatency,
)
from repro.sim.clock import ClockError, VirtualClock
from repro.sim.events import EventQueue
from repro.sim.latency import scaled


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(1.75)

    def test_advance_rejects_negative(self):
        with pytest.raises(ClockError):
            VirtualClock().advance(-0.1)

    def test_advance_to_rejects_past(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ClockError):
            clock.advance_to(4.9)

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock(start=-1.0)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None, "b")
        queue.push(1.0, lambda: None, "a")
        assert queue.pop().label == "a"
        assert queue.pop().label == "b"

    def test_same_time_fifo(self):
        queue = EventQueue()
        for name in "abc":
            queue.push(1.0, lambda: None, name)
        assert [queue.pop().label for _ in range(3)] == ["a", "b", "c"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, "cancel-me")
        queue.push(2.0, lambda: None, "keep")
        event.cancel()
        assert queue.pop().label == "keep"
        assert queue.pop() is None

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(3.0, lambda: None)
        assert queue.peek_time() == 3.0


class TestPopDueEdgeCases:
    """The kernel's combined peek-and-pop primitive."""

    def test_empty_queue_fast_path(self):
        queue = EventQueue()
        assert queue.pop_due() is None
        assert queue.pop_due(until=1.0) is None
        assert queue.peek_time() is None

    def test_equal_timestamp_fifo_stability(self):
        queue = EventQueue()
        order = []
        for i in range(32):
            queue.push(1.0, lambda i=i: None, label=str(i))
            order.append(str(i))
        popped = []
        while True:
            event = queue.pop_due(until=1.0)
            if event is None:
                break
            popped.append(event.label)
        assert popped == order

    def test_pop_at_exact_boundary_is_inclusive(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None, label="at-boundary")
        queue.push(2.5, lambda: None, label="beyond")
        event = queue.pop_due(until=2.0)
        assert event is not None and event.label == "at-boundary"
        assert queue.pop_due(until=2.0) is None
        assert queue.peek_time() == 2.5

    def test_interleaved_push_during_drain(self):
        """Events pushed from inside a drain loop are popped by the same
        drain when due, in (time, seq) order."""
        queue = EventQueue()
        seen = []

        def spawn(label, at):
            def action():
                seen.append(label)
                if at < 0.5:
                    queue.push(at + 0.1, *spawn_args(f"{label}+", at + 0.1))

            return action

        def spawn_args(label, at):
            return (spawn(label, at), label)

        queue.push(0.1, *spawn_args("a", 0.1))
        queue.push(0.1, *spawn_args("b", 0.1))
        while (event := queue.pop_due(until=1.0)) is not None:
            event.action()
        # Both chains interleave strictly by (time, seq).
        assert seen == ["a", "b", "a+", "b+", "a++", "b++", "a+++", "b+++",
                        "a++++", "b++++"]

    def test_cancelled_events_are_skipped_not_returned(self):
        queue = EventQueue()
        doomed = queue.push(1.0, lambda: None, label="doomed")
        queue.push(1.0, lambda: None, label="kept")
        doomed.cancel()
        event = queue.pop_due(until=1.0)
        assert event is not None and event.label == "kept"
        assert queue.pop_due(until=1.0) is None


class TestSimulator:
    def test_dispatch_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.schedule(0.5, lambda: seen.append(sim.now))
        dispatched = sim.run()
        assert dispatched == 2
        assert seen == [0.5, 1.0]

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert fired == []
        assert sim.now == 2.0
        sim.run()
        assert fired == ["late"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.clock.advance(2.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.5, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_budget_enforced(self):
        """The budget also stops a chain that advances time under a horizon."""
        sim = Simulator(seed=1)

        def tick():
            sim.schedule(0.0001, tick)

        sim.schedule(0.0, tick)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=10.0, max_events=100)

    def test_clocks_advance_to_horizon(self):
        """With work pending past the horizon, each run lands on ``until``."""
        sim = Simulator(seed=1)
        sim.schedule(0.25, lambda: None)
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=0.5) == 1
        assert sim.now == 0.5
        assert sim.run(until=2.0) == 0
        assert sim.now == 2.0

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: sim.run(until=2.0))
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run(until=1.0)

    def test_event_at_exactly_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("end"))
        sim.run(until=1.0)
        assert fired == ["end"]
        assert sim.now == 1.0

    def test_run_for(self):
        sim = Simulator()
        sim.clock.advance(1.0)
        sim.schedule(0.5, lambda: None)
        sim.schedule(10.0, lambda: None)
        sim.run_for(1.0)
        assert sim.now == 2.0

    def test_spawn_process_with_sleeps(self):
        sim = Simulator()
        trace = []

        def process():
            trace.append(sim.now)
            yield 1.0
            trace.append(sim.now)
            yield Sleep(2.0)
            trace.append(sim.now)

        sim.spawn(process())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            rng = sim.rng.stream("x")
            for delay in (rng.random() for _ in range(5)):
                sim.schedule(delay, lambda d=delay: values.append((sim.now, d)))
            sim.run()
            return values

        assert run(99) == run(99)
        assert run(99) != run(100)


class TestSeededRng:
    def test_streams_are_independent(self):
        rng = SeededRng(1)
        a_first = rng.stream("a").random()
        b_first = rng.stream("b").random()
        rng2 = SeededRng(1)
        # Drawing from b before a must not change a's sequence.
        rng2.stream("b").random()
        assert rng2.stream("a").random() == a_first
        assert a_first != b_first

    def test_derive_seed_stable(self):
        assert SeededRng(5).derive_seed("tpm") == SeededRng(5).derive_seed("tpm")
        assert SeededRng(5).derive_seed("tpm") != SeededRng(6).derive_seed("tpm")


class TestLatencyModels:
    def test_constant(self, simulator):
        model = ConstantLatency(0.25)
        assert model.sample(simulator.rng.stream("t")) == 0.25
        assert model.mean() == 0.25

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_bounds(self, simulator):
        model = UniformLatency(0.1, 0.2)
        rng = simulator.rng.stream("u")
        samples = [model.sample(rng) for _ in range(200)]
        assert all(0.1 <= s <= 0.2 for s in samples)
        assert model.mean() == pytest.approx(0.15)

    def test_normal_never_negative(self, simulator):
        model = NormalLatency(mu=0.001, sigma=0.01)
        rng = simulator.rng.stream("n")
        assert all(model.sample(rng) >= 0 for _ in range(500))

    def test_empirical_quantiles(self):
        model = EmpiricalLatency([1.0, 2.0, 3.0, 4.0])
        assert model.quantile(0.0) == 1.0
        assert model.quantile(1.0) == 4.0
        assert model.quantile(0.5) == pytest.approx(2.5)
        assert model.mean() == pytest.approx(2.5)

    def test_empirical_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            EmpiricalLatency([])
        with pytest.raises(ValueError):
            EmpiricalLatency([1.0, -0.5])

    def test_scaled(self, simulator):
        model = scaled(ConstantLatency(0.2), 3.0)
        assert model.sample(simulator.rng.stream("s")) == pytest.approx(0.6)
        assert model.mean() == pytest.approx(0.6)

    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=50))
    def test_empirical_samples_within_range(self, observations):
        import random

        model = EmpiricalLatency(observations)
        rng = random.Random(0)
        low, high = min(observations), max(observations)
        slack = 1e-9 * max(high, 1.0)  # float interpolation fuzz
        for _ in range(20):
            assert low - slack <= model.sample(rng) <= high + slack


class TestMetrics:
    def test_counter(self, simulator):
        counter = simulator.metrics.counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_histogram_summary(self, simulator):
        histogram = simulator.metrics.histogram("h")
        histogram.observe_many([1, 2, 3, 4, 5])
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(3.0)
        assert summary["p50"] == pytest.approx(3.0)
        assert summary["min"] == 1 and summary["max"] == 5

    def test_histogram_empty_raises(self, simulator):
        with pytest.raises(ValueError):
            simulator.metrics.histogram("empty").mean()

    def test_timer_measures_virtual_time(self, simulator):
        timer = simulator.metrics.timer("t")
        with timer:
            simulator.clock.advance(0.7)
        assert timer.histogram.values[0] == pytest.approx(0.7)

    def test_timer_misuse(self, simulator):
        timer = simulator.metrics.timer("t2")
        with pytest.raises(RuntimeError):
            timer.stop()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_snapshot_includes_everything(self, simulator):
        simulator.metrics.counter("a").increment()
        simulator.metrics.histogram("b").observe(1.0)
        snapshot = simulator.metrics.snapshot()
        assert "counter:a" in snapshot and "b" in snapshot

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100))
    def test_histogram_quantiles_monotone(self, values):
        from repro.sim.metrics import Histogram

        histogram = Histogram("prop")
        histogram.observe_many(values)
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        slack = 1e-9 * max(abs(q) for q in quantiles) + 1e-12
        for earlier, later in zip(quantiles, quantiles[1:]):
            assert later >= earlier - slack
