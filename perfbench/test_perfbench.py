"""Tests for the benchmark's own code (not the program's).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed as HS  # noqa: E402
import ledger as LG  # noqa: E402
import run  # noqa: E402
import workloads as WL  # noqa: E402


class FakeClock:
    """Returns the next scripted instant on each call."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
class TestSelfTime:
    def test_nested_spans(self):
        # phase 0..20; outer(a) 1..15 holds inner(b) 2..6 and inner(a) 7..9;
        # a second top-level span of b runs 16..19.
        clock = FakeClock(0, 1, 2, 6, 7, 9, 15, 16, 19, 20)
        ledger = LG.Ledger(clock=clock)

        def inner():
            return "inner"

        def outer():
            ledger.call("b", "b:inner", inner, (), {})
            ledger.call("a", "a:inner", inner, (), {})
            return "outer"

        ledger.start()
        assert ledger.call("a", "a:outer", outer, (), {}) == "outer"
        ledger.call("b", "b:top", inner, (), {})
        phase = ledger.stop()

        assert phase.wall_s == 20
        # a: outer 14 - children 4 - 2 = 8, plus its own inner 2.
        assert phase.self_s == {"a": 10, "b": 7}
        assert phase.covered_s == 17
        assert phase.unattributed_s == 3
        assert sum(phase.self_s.values()) + phase.unattributed_s == phase.wall_s
        assert phase.inclusive_s["a:outer"] == 14
        assert phase.calls == {"a:outer": 1, "b:inner": 1, "a:inner": 1, "b:top": 1}
        by_entry = {span[3]: span for span in phase.spans}
        outer_id = by_entry["a:outer"][0]
        assert by_entry["b:inner"][1] == outer_id
        assert by_entry["a:inner"][1] == outer_id
        assert by_entry["b:top"][1] == 0

    def test_exception_still_closes_the_span(self):
        ledger = LG.Ledger(clock=FakeClock(0, 1, 3, 4))

        def boom():
            raise KeyError("x")

        ledger.start()
        with pytest.raises(KeyError):
            ledger.call("a", "a:boom", boom, (), {})
        phase = ledger.stop()
        assert phase.self_s == {"a": 2}
        assert phase.unattributed_s == 2

    def test_callback_is_caused_by_the_span_that_scheduled_it(self):
        ledger = LG.Ledger()
        held = []

        def action():
            return 42

        action.__module__ = "repro.net.rpc"
        ledger.start()
        ledger.call("sim.kernel", "sim.kernel:schedule",
                    lambda: held.append(ledger.callback(action)), (), {})
        assert held[0]() == 42
        assert ledger.callback(len) is len  # in no layer: left unwrapped
        phase = ledger.stop()
        scheduler, ran = phase.spans
        assert ran[3].startswith("net.rpc:")
        assert ran[2] == scheduler[0]  # cause: the scheduling span
        assert ran[1] == 0  # parent: it ran at top level
        assert phase.self_s["net.rpc"] > 0

    def test_spans_beyond_the_cap_are_counted_not_kept(self):
        ledger = LG.Ledger(span_cap=2)
        ledger.start()
        for _ in range(5):
            ledger.call("a", "a:f", lambda: None, (), {})
        phase = ledger.stop()
        assert len(phase.spans) == 2 and phase.spans_dropped == 3
        assert phase.calls["a:f"] == 5

    def test_phase_cannot_stop_inside_a_span(self):
        ledger = LG.Ledger()
        ledger.start()
        with pytest.raises(RuntimeError):
            ledger.call("a", "a:f", ledger.stop, (), {})


# ----------------------------------------------------------------------
# Wrapping and restoring
# ----------------------------------------------------------------------
def _binding_sites(originals):
    """Every (module, alias) bound to one of ``originals``."""
    sites = {}
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for alias, value in namespace.items():
            if any(value is original for original in originals):
                sites[(name, alias)] = value
    return sites


class TestPatching:
    def test_every_entry_point_resolves_to_a_named_layer(self):
        for entry in LG.ENTRY_POINTS:
            original = LG._resolve(entry.target)[2]
            assert callable(original), entry.target
            assert entry.layer in LG.LAYERS
            assert set(entry.workloads) <= set(WL.WORKLOADS), entry

    def test_install_wraps_every_binding_site_and_restore_puts_originals_back(self):
        originals = [LG._resolve(e.target)[2] for e in LG.ENTRY_POINTS]
        before = _binding_sites(originals)
        methods = {
            (owner, attr): original
            for owner, attr, original in map(
                LG._resolve, (e.target for e in LG.ENTRY_POINTS))
            if isinstance(owner, type)
        }
        import repro.net.messages as messages
        import repro.net.rpc as rpc

        assert rpc.encode_message is messages.encode_message  # a from-import alias
        patches = LG.install(LG.Ledger())
        try:
            assert rpc.encode_message is not before[("repro.net.rpc", "encode_message")]
            assert rpc.encode_message is messages.encode_message
            assert rpc.encode_message.__perfbench_original__ is (
                before[("repro.net.messages", "encode_message")])
            for (owner, attr), original in methods.items():
                assert vars(owner)[attr] is not original
            assert all(
                getattr(sys.modules[name], alias) is not value
                for (name, alias), value in before.items()
            )
        finally:
            patches.restore()
        assert len(patches) == 0
        assert _binding_sites(originals) == before
        for (owner, attr), original in methods.items():
            assert vars(owner)[attr] is original

    def test_wrappers_pass_through_when_not_recording(self):
        from repro.net.messages import decode_message, encode_message

        ledger = LG.Ledger()
        patches = LG.install(ledger)
        try:
            import repro.net.messages as messages

            blob = messages.encode_message({"a": 1})
            assert blob == encode_message({"a": 1})
            assert messages.decode_message(blob) == decode_message(blob)
            ledger.start()
            messages.encode_message({"a": 1})
            phase = ledger.stop()
        finally:
            patches.restore()
        assert phase.calls == {"net.messages:encode_message": 1}
        assert phase.tallies == {"net.messages.encode_bytes": len(blob)}

    def test_planning_candidates_are_counted_after_the_phase(self):
        import repro.bench.loadgen as loadgen

        shape = (loadgen.DiurnalCurve(), [loadgen.FlashCrowd(43_200.0, 30.0, 40.0)])
        plain_rng, traced_rng = random.Random(3), random.Random(3)
        expected = loadgen.plan_arrivals(plain_rng, 50, *shape)
        ledger = LG.Ledger()
        patches = LG.install(ledger)
        try:
            ledger.start()
            planned = loadgen.plan_arrivals(traced_rng, 50, *shape)
            phase = ledger.stop()
        finally:
            patches.restore()
        assert planned == expected
        assert traced_rng.getstate() == plain_rng.getstate()
        counter = LG._CountingRng(random.Random(3))
        loadgen.plan_arrivals(counter, 50, *shape)
        assert phase.tallies["bench.loadgen.accepted"] == len(expected)
        assert phase.tallies["bench.loadgen.candidates"] == counter.candidates
        assert counter.candidates > len(expected)

    def test_traced_device_unit_passes_the_ledger_self_checks(self):
        workload = WL.WORKLOADS["device_flow"]
        plain = workload.build(7)
        workload.run(plain)
        untraced = workload.outcome(plain)

        tracer = run.TracedWorkload(workload, LG.Ledger())
        patches = LG.install(tracer.ledger)
        try:
            unit = tracer.build(7)
            tracer.run(unit)
            traced = tracer.outcome(unit)
        finally:
            patches.restore()
        assert traced.digest == untraced.digest
        metrics = run.layer_metrics(
            tracer.timed, {"setup_accounts_s": 0.0, "keygen_s": 0.0},
            traced.counters, tracer.rsa_ops, 1.0,
        )
        errors = run.ledger_errors("device_flow", tracer, metrics)
        assert errors == []
        assert tracer.spans_checked == 1
        assert metrics["core.client.flows"] == WL.FLOWS_PER_UNIT
        assert metrics["drtm.slb.measure_calls"] > 0

    def test_ledger_errors_flag_a_silent_entry_and_a_nonzero_predicted_zero(self):
        phase = LG.Phase(wall_s=1.0, covered_s=0.5, self_s={"server.journal": 0.5})
        tracer = SimpleNamespace(timed=[phase], setup=[], errors=[], spans_checked=1)
        errors = run.ledger_errors("spike_day", tracer, {"server.journal.appends": 3})
        assert any("recorded no calls" in e for e in errors)
        assert any("server.journal.appends" in e for e in errors)
        tracer.spans_checked = 0
        errors = run.ledger_errors("device_flow", tracer, {})
        assert any("span check did not run" in e for e in errors)

    def _phase(self):
        ledger = LG.Ledger(clock=FakeClock(0, 1, 2, 6, 7, 9, 15, 16, 19, 20))

        def outer():
            ledger.call("b", "b:inner", lambda: None, (), {})
            ledger.call("a", "a:inner", lambda: None, (), {})

        ledger.start()
        ledger.call("a", "a:outer", outer, (), {})
        ledger.call("b", "b:top", lambda: None, (), {})
        return ledger.stop()

    def test_check_phase_passes_a_consistent_phase(self):
        assert LG.check_phase(self._phase()) == []

    def test_check_phase_recomputes_self_time_from_the_spans(self):
        phase = self._phase()
        phase.self_s["a"] -= 1  # the running total lost a second
        phase.self_s["b"] += 1  # ... and gave it to another layer
        errors = LG.check_phase(phase)
        assert any("self time of a" in e for e in errors)
        assert any("self time of b" in e for e in errors)

    def test_check_phase_flags_a_child_outside_its_parent(self):
        phase = self._phase()
        span = phase.spans[0]  # b:inner, 2..6, inside a:outer 1..15
        phase.spans[0] = span[:5] + (16,)
        assert any("not inside its parent" in e for e in LG.check_phase(phase))

    def test_check_phase_flags_negative_times(self):
        phase = self._phase()
        phase.covered_s = phase.wall_s + 1
        phase.self_s["a"] = -1.0
        errors = LG.check_phase(phase)
        assert any("negative unattributed" in e for e in errors)
        assert any("negative self time" in e for e in errors)
        assert any("covered time" in e for e in errors)
        phase.spans_dropped = 1  # without all spans, only the signs are checked
        assert len(LG.check_phase(phase)) == 2


# ----------------------------------------------------------------------
# Names, selection and checks in the runner
# ----------------------------------------------------------------------
class TestRunner:
    def spec(self):
        return run.load_spec()

    def test_benchmark_json_is_valid_and_names_the_workloads(self):
        spec = self.spec()
        assert {w["name"] for w in spec["workloads"]} == set(WL.WORKLOADS)
        names = {m["name"] for m in spec["per_layer"]}
        for layer in LG.LAYERS:
            assert f"{layer}.self_s" in names

    @pytest.mark.parametrize("bad", ["-lead", "has space", "x" * 65, ""])
    def test_bad_metric_names_are_rejected(self, bad):
        spec = copy.deepcopy(self.spec())
        spec["per_layer"][0]["name"] = bad
        with pytest.raises(run.SpecError):
            run.validate_spec(spec)

    def test_duplicates_units_and_directions_are_rejected(self):
        spec = copy.deepcopy(self.spec())
        spec["workloads"].append(dict(spec["workloads"][0]))
        with pytest.raises(run.SpecError, match="duplicate workload"):
            run.validate_spec(spec)
        spec = copy.deepcopy(self.spec())
        spec["per_layer"].append(dict(spec["end_to_end"][0]))
        with pytest.raises(run.SpecError, match="duplicate metric"):
            run.validate_spec(spec)
        spec = copy.deepcopy(self.spec())
        spec["end_to_end"][0]["unit"] = "per second!"
        with pytest.raises(run.SpecError, match="bad unit"):
            run.validate_spec(spec)
        spec = copy.deepcopy(self.spec())
        spec["end_to_end"][0]["better"] = "more"
        with pytest.raises(run.SpecError, match="direction"):
            run.validate_spec(spec)

    def test_unknown_workload_is_refused(self):
        with pytest.raises(SystemExit):
            run.parse_args(["--workload", "nope", "--seed", "1"], list(WL.WORKLOADS))

    def test_emit_insists_on_the_declared_metric_set(self):
        declared = self.spec()["end_to_end"]
        values = {m["name"]: 1.5 for m in declared}
        printed = run.emit(values, declared)
        assert list(printed) == [m["name"] for m in declared]
        assert printed["setup_s"] == {"value": 1.5, "unit": "s"}
        with pytest.raises(run.SpecError):
            run.emit(dict(values, extra=1.0), declared)
        del values["setup_s"]
        with pytest.raises(run.SpecError):
            run.emit(values, declared)

    def test_users_per_s_pools_sessions_over_timed_seconds(self):
        outcomes = [
            WL.Outcome(10, 10, 2.0, [1.0], [], "d"),
            WL.Outcome(30, 29, 6.0, [1.0], [], "d"),
        ]
        assert run.users_per_s(outcomes) == 40 / 8.0

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert run.percentile(values, 0.50) == 50
        assert run.percentile(values, 0.95) == 95
        assert run.percentile(values, 0.99) == 99
        assert run.percentile([7.0], 0.99) == 7.0

    def test_digests_are_compared_per_input_set(self):
        def outcomes(*digests):
            return [WL.Outcome(1, 1, 1.0, [], [], d) for d in digests]

        sets = run.SUBSEEDS
        same = outcomes(*(f"d{i % sets}" for i in range(2 * sets)))
        assert run.digest_errors(same) == []
        assert run.digest_errors(same, same[:3]) == []
        broken = same[:sets] + outcomes("other") + same[sets + 1:]
        assert len(run.digest_errors(broken)) == 1

    def test_unit_seeds_cycle_without_colliding_across_seeds(self):
        seen = {
            run.unit_seed(seed, k) for seed in range(5) for k in range(run.SUBSEEDS)
        }
        assert len(seen) == 5 * run.SUBSEEDS
        assert run.unit_seed(3, 0) == run.unit_seed(3, run.SUBSEEDS)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class TestHostSpeed:
    def test_unadjusted_samples_are_kept_as_measured(self, monkeypatch):
        def no_reference():
            raise AssertionError("an unadjusted run times no reference")

        monkeypatch.setattr(HS, "reference_s", no_reference)
        speed = HS.HostSpeed(adjust=False, segment_s=0.0)
        speed.add(0.002, count=2)
        speed.tick()
        speed.add_rest(0.5)
        speed.flush()
        assert speed.samples_ms == [2.0, 2.0]
        assert speed.rest_s == 0.5
        assert speed.total_s == pytest.approx(0.504)

    def test_samples_scale_by_the_references_around_them(self, monkeypatch):
        nominal = HS.NOMINAL_REFERENCE_S
        references = iter([nominal, 3 * nominal, 1 * nominal])
        monkeypatch.setattr(HS, "reference_s", lambda: next(references))
        speed = HS.HostSpeed(segment_s=0.0)
        speed.add(0.004)
        speed.add_rest(1.0)
        speed.tick()  # references nominal and 3x nominal: twice as slow
        speed.add(0.004)
        speed.flush()  # 3x and 1x: twice as slow again
        assert speed.samples_ms == pytest.approx([2.0, 2.0])
        assert speed.rest_s == pytest.approx(0.5)

    def test_tick_waits_for_a_segment(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            HS, "reference_s", lambda: calls.append(1) or HS.NOMINAL_REFERENCE_S)
        speed = HS.HostSpeed(segment_s=3600.0)
        speed.add(0.001)
        speed.tick()
        assert len(calls) == 1 and speed.samples_ms == []
        speed.flush()
        assert len(calls) == 2 and speed.samples_ms == pytest.approx([1.0])

    def test_reference_is_a_positive_time(self):
        assert 0.0 < HS.reference_s() < 1.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class TestWorkloads:
    def test_churn_counters_include_the_drained_shard(self):
        workload = WL.WORKLOADS["churn_day"]
        unit = workload.build(3)
        workload.run(unit)
        outcome = workload.outcome(unit)
        assert outcome.errors == []
        drained = [shard for shard in unit.shards if shard not in unit.router.shards]
        assert len(drained) == 1 and drained[0].endpoint.requests_served > 0
        assert unit.retired_forwards > 0
        counters = outcome.counters
        assert counters["router.forwards"] == (
            sum(unit.router.forwards_by_shard) + unit.retired_forwards)
        assert counters["provider.requests"] == sum(
            shard.endpoint.requests_served for shard in unit.shards)
        assert counters["journal.appends"] > unit.router.journal_stats()["appends"]
