"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload spike_day --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, its
times scaled to a nominal host speed (see ``hostspeed.py``).
``--trace 1`` runs the workload untraced for half the time, then traced
(every layer entry point wrapped, see ``ledger.py``) for the other half,
and reports the per-layer metrics, the tracing overhead and the ledger
self-checks.  Both modes check the program's outputs and exit non-zero
when a check fails.  The metric names and units printed are exactly
those declared in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import ledger as LG
from hostspeed import HostSpeed, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

#: Set-up samples whose median is ``setup_s``, each in a fresh process
#: and of an input seed of its own (see :func:`setup_seed`): key
#: generation's cost depends on the seed, so the median spans seeds as
#: well as moments.
SETUP_SAMPLES = 7
#: Input seeds of set-up samples start here, apart from the seeds of any
#: run's units.
SETUP_SEED_BASE = 1 << 40
#: Units cycle through this many input sets drawn from the seed; the
#: virtual p95 pools the first of each.
SUBSEEDS = 8
#: Runs of each input set a run makes at least, so that the digests of
#: repeats can be compared.
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 120

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Zero cells the ledger predicts: metric-name prefixes that must read 0
#: on the named workload.
PREDICTED_ZERO = {
    "spike_day": ("server.journal.", "drtm.", "tpm.", "core.client."),
    "churn_day": ("drtm.", "tpm.", "core.client."),
    "device_flow": (),
}


class SpecError(ValueError):
    """BENCHMARK.json breaks the naming rules."""


def validate_spec(spec: dict) -> None:
    """Reject workload and metric names and units outside the rules."""
    names = [w["name"] for w in spec.get("workloads", [])]
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    if not names or not spec.get("end_to_end") or not spec.get("per_layer"):
        raise SpecError("workloads, end_to_end and per_layer must be non-empty")
    for name in names + [m["name"] for m in metrics]:
        if not NAME_RE.match(name):
            raise SpecError(f"bad name {name!r}")
    if len(set(names)) != len(names):
        raise SpecError("duplicate workload name")
    metric_names = [m["name"] for m in metrics]
    if len(set(metric_names)) != len(metric_names):
        raise SpecError("duplicate metric name")
    for metric in metrics:
        if not UNIT_RE.match(metric["unit"]):
            raise SpecError(f"bad unit {metric['unit']!r} for {metric['name']}")
        if metric["better"] not in ("higher", "lower"):
            raise SpecError(f"bad direction for {metric['name']}")


def load_spec(path: Path = SPEC) -> dict:
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    validate_spec(spec)
    return spec


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-unit", type=int, metavar="K",
        help="only set up sample K in this fresh process and print its set-up time",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def emit(metrics: Dict[str, float], spec_metrics: List[dict]) -> Dict[str, dict]:
    """Metrics in declaration order with their units; the computed set
    must be exactly the declared set."""
    declared = [m["name"] for m in spec_metrics]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise SpecError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
    }


# ----------------------------------------------------------------------
# Running units
# ----------------------------------------------------------------------
def unit_seed(seed: int, index: int) -> int:
    """Input seed of a run's unit ``index``: one of SUBSEEDS per seed."""
    return seed * SUBSEEDS + index % SUBSEEDS


def setup_seed(seed: int, index: int) -> int:
    """Input seed of set-up sample ``index``, one no unit uses."""
    return SETUP_SEED_BASE + seed * SETUP_SAMPLES + index


def run_units(workload, seed: int, seconds: float, repeats: int = MIN_REPEATS,
              adjust: bool = True, after_unit=None):
    """Build and run units of ``workload`` until they have taken
    ``seconds`` of wall time and each input set has run ``repeats``
    times, with the outcomes' times scaled to the nominal host speed if
    ``adjust``.  ``after_unit(elapsed)`` is called after each unit with
    the wall seconds the units have taken so far."""
    outcomes = []
    elapsed = 0.0
    while elapsed < seconds or len(outcomes) < repeats * SUBSEEDS:
        started = time.perf_counter()
        # Collect the previous unit's garbage first, so no unit's timed
        # run pays for another's cycles.
        gc.collect()
        unit = workload.build(unit_seed(seed, len(outcomes)))
        workload.run(unit, adjust)
        outcomes.append(workload.outcome(unit))
        del unit
        elapsed += time.perf_counter() - started
        if after_unit is not None:
            after_unit(elapsed)
    return outcomes


def users_per_s(outcomes) -> float:
    """Sessions (device flows) attempted per second of timed work."""
    return sum(o.attempted for o in outcomes) / math.fsum(o.timed_s for o in outcomes)


def setup_child(args, index: int) -> dict:
    """Set-up sample ``index`` in a fresh process (see :func:`setup_only`)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--setup-unit", str(index),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=str(ROOT),
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    share ``q`` of the values at or below it."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def digest_errors(*runs) -> List[str]:
    """Units built from the same input seed must agree on every virtual
    outcome, across repeats and between traced and untraced runs."""
    digests: Dict[int, set] = {}
    for outcomes in runs:
        for index, outcome in enumerate(outcomes):
            digests.setdefault(index % SUBSEEDS, set()).add(outcome.digest)
    return [
        f"virtual outcomes of input set {index} differ across repeats: {sorted(d)}"
        for index, d in sorted(digests.items()) if len(d) != 1
    ]


def session_p95_virtual_s(outcomes) -> float:
    """p95 of the virtual session latencies pooled over one unit of each
    input set, by the program's own histogram."""
    from repro.sim.metrics import Histogram

    pooled = Histogram("perfbench.session_s")
    for outcome in outcomes[:SUBSEEDS]:
        pooled.observe_many(outcome.virtual_s)
    return pooled.quantile(0.95)


def end_to_end(args, workload) -> Tuple[dict, list, List[str]]:
    setup: List[float] = []

    def sample_setup(elapsed: float) -> None:
        # Spread over the run: the machine's speed drifts, and samples
        # taken back to back would all see the same spell.
        due = len(setup) * args.seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and elapsed >= due:
            setup.append(setup_child(args, len(setup))["setup_s"])

    sample_setup(0.0)
    outcomes = run_units(workload, args.seed, args.seconds, after_unit=sample_setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_child(args, len(setup))["setup_s"])

    attempted = sum(o.attempted for o in outcomes)
    completed = sum(o.completed for o in outcomes)
    flow_ms = [ms for o in outcomes for ms in o.flow_ms]
    metrics = {
        "users_per_s": users_per_s(outcomes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "flow_ms_p50": percentile(flow_ms, 0.50),
        "flow_ms_p99": percentile(flow_ms, 0.99),
        "completed_share": completed / attempted,
        "session_p95_virtual_s": session_p95_virtual_s(outcomes),
    }
    errors = [e for o in outcomes for e in o.errors] + digest_errors(outcomes)
    return metrics, outcomes, errors


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _sum(dicts) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(timed, setup_sample, counters, rsa_ops, ratio) -> Dict[str, float]:
    """The per-layer metrics from the traced phases and the program's
    own counters."""
    calls = _sum(p.calls for p in timed)
    inclusive = _sum(p.inclusive_s for p in timed)
    self_s = _sum(p.self_s for p in timed)
    tallies = _sum(p.tallies for p in timed)
    wall = sum(p.wall_s for p in timed)
    covered = sum(p.covered_s for p in timed)

    def calls_of(entry):
        return calls.get(entry, 0)

    def kept(key):
        return counters.get(key, 0)

    events = kept("sim.events")
    hits, misses = kept("verification.hits"), kept("verification.misses")
    metrics = {
        "bench.loadgen.plan_s": inclusive.get("bench.loadgen:plan_arrivals", 0.0),
        "bench.loadgen.candidates_per_arrival": (
            tallies.get("bench.loadgen.candidates", 0)
            / max(tallies.get("bench.loadgen.accepted", 0), 1)
        ),
        "bench.loadgen.setup_accounts_s": setup_sample["setup_accounts_s"],
        "sim.kernel.events": events,
        "sim.kernel.us_per_event": 1e6 * self_s.get("sim.kernel", 0.0) / max(events, 1),
        "net.messages.encode_calls": calls_of("net.messages:encode_message"),
        "net.messages.decode_calls": calls_of("net.messages:decode_message"),
        "net.messages.encode_bytes": tallies.get("net.messages.encode_bytes", 0),
        "core.transaction.canonical_calls": calls_of(
            "core.transaction:Transaction.canonical_bytes"),
        "server.journal.appends": kept("journal.appends"),
        "server.journal.snapshots": kept("journal.snapshots"),
        "server.journal.wal_bytes": kept("journal.wal_bytes"),
        "server.journal.snapshot_bytes": tallies.get(
            "server.journal.snapshot_bytes", 0),
        "server.journal.restores": kept("journal.restores"),
        "server.provider.capture_state_s": inclusive.get(
            "server.provider:ServiceProvider.capture_state", 0.0),
        "server.provider.restore_s": inclusive.get(
            "server.provider:ServiceProvider.restore_from_journal", 0.0),
        "server.provider.requests": kept("provider.requests"),
        "server.provider.denials": kept("provider.denials"),
        "server.rebalance.migrations": kept("rebalance.migrations"),
        "server.rebalance.aborts": kept("rebalance.aborts"),
        "server.rebalance.resumes": kept("rebalance.resumes"),
        "server.rebalance.accounts_moved": kept("rebalance.accounts_moved"),
        "server.invariants.check_s": inclusive.get(
            "server.invariants:InvariantChecker.check", 0.0),
        "server.invariants.violations": kept("invariants.violations"),
        "net.rpc.submits": calls_of("net.rpc:RpcEndpoint.submit"),
        "net.rpc.dead_letters": kept("rpc.dead_letters"),
        "net.rpc.retries": kept("rpc.retransmits"),
        "net.network.packets": kept("net.packets"),
        "net.network.bytes": kept("net.bytes"),
        "server.router.forwards": kept("router.forwards"),
        "server.router.shed": kept("router.shed"),
        "server.router.shard_down_denials": kept("router.shard_down_denials"),
        "server.router.dual_read_redirects": kept("router.dual_read_redirects"),
        "server.verifier.verify_calls": sum(
            calls_of(f"server.verifier:AttestationVerifier.{name}")
            for name in ("verify_signed_confirmation", "verify_quote_confirmation",
                         "verify_confirm_batch")
        ),
        "server.verifier.batch_calls": calls_of(
            "server.verifier:AttestationVerifier.verify_confirm_batch"),
        "server.verifier.cache_hit_ratio": hits / max(hits + misses, 1),
        "server.noncedb.issues": calls_of("server.noncedb:NonceDatabase.issue"),
        "server.noncedb.consumes": calls_of("server.noncedb:NonceDatabase.consume"),
        "crypto.backend.rsa_sign_crt": rsa_ops.get("sign_crt", 0),
        "crypto.backend.rsa_verify": rsa_ops.get("verify", 0),
        "crypto.backend.rsa_modexp": rsa_ops.get("modexp", 0),
        "crypto.backend.keygen_s": setup_sample["keygen_s"],
        "drtm.slb.measure_calls": calls_of("drtm.slb:measured_image"),
        "drtm.session.sessions": calls_of("drtm.session:FlickerSession.run"),
        "tpm.device.commands": calls_of("tpm.device:TpmDevice.execute"),
        "core.client.flows": calls_of(
            "core.client:TrustedPathClient.confirm_transaction"),
        "unattributed_s": wall - covered,
        "traced_wall_s": wall,
        "traced_over_untraced": ratio,
    }
    for layer in LG.LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return metrics


def ledger_errors(workload_name, tracer, metrics) -> List[str]:
    """The ledger's self-checks."""
    timed, errors = tracer.timed, list(tracer.errors)
    if not tracer.spans_checked:
        errors.append("no phase kept all of its spans: the span check did not run")
    calls = _sum([p.calls for p in timed] + [p.calls for p in tracer.setup])
    for entry in LG.ENTRY_POINTS:
        if workload_name in entry.workloads and not calls.get(entry.name):
            errors.append(f"entry point {entry.name} recorded no calls")
    for prefix in PREDICTED_ZERO[workload_name]:
        for name, value in metrics.items():
            if name.startswith(prefix) and value != 0:
                errors.append(f"predicted zero cell {name} = {value}")
    unknown = set().union(*(p.self_s for p in timed)) - set(LG.LAYERS)
    if unknown:
        errors.append(f"self time outside the named layers: {sorted(unknown)}")
    return errors


def write_spans(path: Path, phase) -> None:
    """Write one phase's kept spans, times in ms from the phase start."""
    if not phase.spans:
        return
    origin = phase.spans[0][4]
    for span in phase.spans:
        origin = min(origin, span[4])
    entries = sorted({span[3] for span in phase.spans})
    index = {name: i for i, name in enumerate(entries)}
    rows = [
        [s[0], s[1], s[2], index[s[3]],
         round(1000 * (s[4] - origin), 6), round(1000 * (s[5] - origin), 6)]
        for s in phase.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "columns": ["id", "parent", "cause", "entry", "start_ms", "end_ms"],
            "entries": entries,
            "spans": rows,
            "spans_dropped": phase.spans_dropped,
        }, handle)


class TracedWorkload:
    """A workload whose builds and timed runs are ledger phases.  Each
    phase is checked against its spans as it ends (``errors``;
    ``spans_checked`` counts the timed phases that kept all of their
    spans); only the first timed phase keeps its spans after."""

    def __init__(self, workload, ledger) -> None:
        from repro.crypto.backend import rsa_op_counts

        self.workload, self.ledger = workload, ledger
        self.rsa_op_counts = rsa_op_counts
        self.setup: list = []
        self.timed: list = []
        self.rsa_ops: Dict[str, int] = {}
        self.errors: List[str] = []
        self.spans_checked = 0

    def build(self, seed: int):
        self.ledger.start()
        unit = self.workload.build(seed)
        phase = self.ledger.stop()
        self.errors.extend(LG.check_phase(phase))
        phase.spans = []
        self.setup.append(phase)
        return unit

    def run(self, unit, adjust: bool = False) -> None:
        before = self.rsa_op_counts()
        self.ledger.start()
        self.workload.run(unit, adjust)
        phase = self.ledger.stop()
        for key, value in self.rsa_op_counts().items():
            self.rsa_ops[key] = self.rsa_ops.get(key, 0) + value - before.get(key, 0)
        self.errors.extend(LG.check_phase(phase))
        self.spans_checked += not phase.spans_dropped
        if self.timed:
            phase.spans = []  # keep the first phase's spans only
        self.timed.append(phase)

    def outcome(self, unit):
        return self.workload.outcome(unit)


def traced(args, workload) -> Tuple[dict, list, List[str]]:
    setup_sample = setup_child(args, 0)
    # One repeat per input set each way: traced units are slower, and
    # the run must end within its time limit.  Both halves keep their
    # times as measured: the host-speed reference would land in the
    # ledger's spans.
    half = args.seconds / 2.0
    plain = run_units(workload, args.seed, half, repeats=1, adjust=False)

    ledger = LG.Ledger()
    tracer = TracedWorkload(workload, ledger)
    patches = LG.install(ledger)
    try:
        outcomes = run_units(tracer, args.seed, half, repeats=1, adjust=False)
    finally:
        patches.restore()

    timed = tracer.timed
    counters = _sum(o.counters for o in outcomes)
    ratio = users_per_s(outcomes) / users_per_s(plain)
    metrics = layer_metrics(timed, setup_sample, counters, tracer.rsa_ops, ratio)
    errors = [e for o in outcomes + plain for e in o.errors]
    errors += digest_errors(plain, outcomes)
    errors += ledger_errors(args.workload, tracer, metrics)
    write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", timed[0])
    return metrics, plain + outcomes, errors


def setup_only(args, workload) -> dict:
    """One set-up in this fresh process; traced, it also reports the
    key generation and account set-up time inside it."""
    seed = setup_seed(args.seed, args.setup_unit)
    if not args.trace:
        speed = HostSpeed()
        started = clock()
        workload.build(seed)
        speed.add_rest(clock() - started)
        speed.flush()
        return {"setup_s": speed.rest_s}
    ledger = LG.Ledger()
    patches = LG.install(ledger)
    try:
        ledger.start()
        workload.build(seed)
        phase = ledger.stop()
    finally:
        patches.restore()
    return {
        "setup_s": phase.wall_s,
        "keygen_s": phase.inclusive_s.get("crypto.backend:generate_rsa_keypair", 0.0),
        "setup_accounts_s": phase.inclusive_s.get(
            "bench.loadgen:LoadEngine.setup_accounts", 0.0),
    }


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read {SPEC.name}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.crypto.backend import set_backend

    import workloads as WL

    if set(WL.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: {SPEC.name} and workloads.py name different workloads",
              file=sys.stderr)
        return 2
    set_backend("accel")
    workload = WL.WORKLOADS[args.workload]
    if args.setup_unit is not None:
        print(json.dumps(setup_only(args, workload)))
        return 0

    if args.trace:
        metrics, outcomes, errors = traced(args, workload)
        printed = emit(metrics, spec["per_layer"])
    else:
        metrics, outcomes, errors = end_to_end(args, workload)
        printed = emit(metrics, spec["end_to_end"])
    attempted = sum(o.attempted for o in outcomes)
    for error in errors[:50]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted - sum(o.completed for o in outcomes),
        "metrics": printed,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
