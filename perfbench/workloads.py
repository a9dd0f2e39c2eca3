"""The benchmark's three workloads, composed from the program's public API.

Each workload builds a *unit* from the seed (set-up: world or pool
construction, key generation, account set-up) and then runs it (the
timed work).  Every unit of one seed is built from scratch and does the
same virtual work in the same order, so its digest of virtual outcomes
must be identical to every other unit's (the repeat-determinism check),
and its ``i``-th flow sample always times the same flow or session.

* ``spike_day`` — F6's shape: a diurnal day with a 30 s noon stampede
  at 400x, Zipf-skewed accounts, the default session mix less its
  long-lived sessions, a 2-shard pool with no journal.  Arrival
  planning thins candidates at the stampede's peak rate, so planning
  and the per-message path dominate.
* ``churn_day`` — a journaled pool of ``ChaosBank`` shards starting at
  2, a batch-heavy mix, no flash crowd, a light shard-crash plan and a
  scripted scale-up and drain.  It exercises journal writes, snapshot
  captures, restore reads, migration and batched verification; the
  codec sees few large nested records.
* ``device_flow`` — one client in a closed loop: a fully brought-up
  :class:`TrustedPathWorld`, then sequential 1-cent confirmations, most
  with the sealed-key evidence and every tenth with a TPM quote.  This
  is the paper's own path: late launch, TPM, PAL and the human.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.experiments.chaos import ChaosBank
from repro.bench.loadgen import LOAD_HOST, FlashCrowd, LoadEngine, SessionMix
from repro.bench.world import TrustedPathWorld, WorldConfig
from repro.core.protocol import EVIDENCE_QUOTE, EVIDENCE_SIGNED
from repro.core.transaction import Transaction
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.os.disk import UntrustedDisk
from repro.server.invariants import InvariantChecker
from repro.server.policy import VerifierPolicy
from repro.server.rebalance import ShardPoolManager
from repro.server.router import build_sharded_pool
from repro.sim import Simulator
from repro.sim.faults import FaultInjector, Window

from hostspeed import HostSpeed, clock

# -- spike_day: F6's shape at a population the 2-shard pool absorbs.
SPIKE_USERS = 500
SPIKE = FlashCrowd(start=43_200.0, duration=30.0, multiplier=400.0)
#: The default mix without its long-lived share.  A long-lived session
#: logs in afresh, which invalidates the cookie of every other session of
#: its account; in the stampede on 25 Zipf-skewed accounts some sessions
#: lose their cookie a third time and fail, and no session may fail.
SPIKE_MIX = SessionMix(one_shot=0.6, batch=0.2, long_lived=0.0)

# -- churn_day: sized so that failed sessions stay a small share.
CHURN_USERS = 500
CHURN_DAY_S = 150.0
CHURN_MIX = SessionMix(one_shot=0.3, batch=0.7, long_lived=0.0, batch_size=(4, 12))
#: The light crash plan: each starting shard crashes at these fractions
#: of the day for CHURN_RECOVERY_S.  Scripted rather than drawn, so every
#: seed pays the same journal restores, and light enough that sessions
#: caught by a crash stay well under 5%: the p95 never straddles them.
CHURN_CRASH_AT = ((0.15, 0.55), (0.45, 0.85))
CHURN_RECOVERY_S = 1.0
#: Scale events as fractions of the day.  The second time of each is a
#: retry, taken only if the first attempt did not change the shard count.
CHURN_SCALE_UP_AT = (0.3, 0.4)
CHURN_DRAIN_AT = (0.65, 0.75)

# -- device_flow: flows per unit; every QUOTE_EVERY-th flow uses a quote.
FLOWS_PER_UNIT = 125
QUOTE_EVERY = 10
FLOW_CENTS = 1


@dataclass
class Outcome:
    """What one unit's timed run produced.  Its times are CPU times
    scaled to the nominal host speed (see ``hostspeed.py``), or as
    measured when the run was not adjusted."""

    attempted: int
    completed: int
    #: The timed run's seconds: its flow samples and the time outside them.
    timed_s: float
    #: Milliseconds per flow (device_flow) or per finished session (the
    #: days: wall time since the previous session finished), in the
    #: order the unit produced them.
    flow_ms: List[float]
    #: Virtual latency of each completed session (each flow).
    virtual_s: List[float]
    digest: str
    errors: List[str] = field(default_factory=list)
    #: Counters the program keeps, read after the run for the ledger.
    counters: Dict[str, float] = field(default_factory=dict)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _signing_key(seed: int):
    drbg = HmacDrbg(b"perfbench", personalization=str(seed).encode())
    return generate_rsa_keypair(512, drbg.fork(b"signing"))


class CompletionClock:
    """Simulator trace hook that reads the clock whenever the load
    engine's session log grows, giving each finished session the time
    since the previous one finished.  It only reads; it schedules
    nothing and draws no randomness.  The host-speed reference is timed
    right after a stamp, and the next gap starts after it."""

    def __init__(self) -> None:
        self.log: List[tuple] = []
        self._seen = 0
        self._last = 0.0
        self.speed = HostSpeed(adjust=False)

    def start(self, adjust: bool) -> None:
        self.speed = HostSpeed(adjust)
        self._seen = len(self.log)
        self._last = clock()

    def __call__(self, now: float = 0.0, label: str = "") -> None:
        finished = len(self.log) - self._seen
        if finished:
            self.speed.add((clock() - self._last) / finished, finished)
            self._seen += finished
            self.speed.tick()
            self._last = clock()

    def finish(self) -> None:
        """The time since the last finished session is no session's."""
        self.speed.add_rest(clock() - self._last)
        self.speed.flush()


@dataclass
class DayUnit:
    sim: Simulator
    network: Network
    router: object
    engine: LoadEngine
    clock: CompletionClock
    manager: object = None
    checker: object = None
    #: Every shard the unit ever had, drained ones included.
    shards: list = field(default_factory=list)
    #: Forwards the router counted to shards it has since removed.
    retired_forwards: int = 0
    # Filled by the timed run.
    report: object = None
    extra: tuple = ()
    errors: List[str] = field(default_factory=list)


def _accounting_errors(report, counters) -> List[str]:
    """F6's accounting identity: every arrival ends in exactly one
    bucket, none unfinished, and the registry agrees with the report."""
    errors = []
    buckets = (
        report.dropped_cap + report.sessions_completed
        + report.sessions_failed + report.sessions_unfinished
    )
    if report.arrivals != buckets:
        errors.append(f"arrivals {report.arrivals} != buckets {buckets}")
    if report.sessions_unfinished:
        errors.append(f"{report.sessions_unfinished} sessions unfinished")
    for key, value in (
        ("loadgen.arrivals", report.arrivals),
        ("loadgen.dropped_cap", report.dropped_cap),
        ("loadgen.sessions_completed", report.sessions_completed),
        ("loadgen.sessions_failed", report.sessions_failed),
        ("loadgen.retries", report.retries),
        ("loadgen.relogins", report.relogins),
        ("loadgen.confirms", report.confirms_completed),
    ):
        if counters.get(key, 0) != value:
            errors.append(f"registry {key}={counters.get(key, 0)} != {value}")
    return errors


def _pool_counters(unit: DayUnit) -> Dict[str, float]:
    """The program's counters summed over every shard the unit ever had:
    the router forgets a shard, and its forwards, when it is drained."""
    router, sim, shards = unit.router, unit.sim, unit.shards
    counters = dict(sim.metrics.counters())
    counters["sim.events"] = sim.events_dispatched
    counters["net.packets"] = unit.network.packets_sent
    counters["net.bytes"] = unit.network.bytes_sent
    counters["router.forwards"] = sum(router.forwards_by_shard) + unit.retired_forwards
    counters["provider.denials"] = sum(sum(shard.denials.values()) for shard in shards)
    counters["provider.requests"] = sum(
        shard.endpoint.requests_served for shard in shards
    )
    counters["rpc.retransmits"] = router.endpoint.retransmits + sum(
        shard.endpoint.retransmits for shard in shards
    )
    journal = {"appends": 0, "snapshots": 0, "wal_bytes": 0, "restores": 0}
    for shard in shards:
        for key, value in shard.journal_stats().items():
            journal[key] = journal.get(key, 0) + value
        journal["restores"] += shard.journal_restores
    for key, value in journal.items():
        counters[f"journal.{key}"] = value
    for shard in shards:
        if shard.verification_cache is not None:
            for key, value in shard.verification_cache.stats().items():
                key = f"verification.{key}"
                counters[key] = counters.get(key, 0) + value
    if unit.manager is not None:
        for key, value in unit.manager.totals().items():
            counters[f"rebalance.{key}"] = value
    return counters


class _Day:
    """Shared run of the two open-loop days."""

    name = ""

    def build(self, seed: int) -> DayUnit:
        raise NotImplementedError

    def after_day(self, unit: DayUnit) -> Tuple[tuple, List[str]]:
        """Work after the day inside the timed phase; returns extra
        virtual outcomes for the digest and failed output checks."""
        return (), []

    def run(self, unit: DayUnit, adjust: bool = True) -> None:
        """The timed work: the day, then any recovery and audit."""
        unit.clock.start(adjust)
        unit.report = unit.engine.run_day()
        unit.clock()  # sessions that finished in the day's last event
        unit.extra, unit.errors = self.after_day(unit)
        unit.clock.finish()

    def outcome(self, unit: DayUnit) -> Outcome:
        """Checks, counters and digest of a unit after :meth:`run`."""
        report = unit.report
        counters = _pool_counters(unit)
        errors = _accounting_errors(report, counters) + unit.errors
        digest = _digest(
            report.arrivals, report.dropped_cap, report.sessions_completed,
            report.sessions_failed, report.sessions_unfinished,
            report.confirms_completed, report.retries, report.relogins,
            report.spike_arrivals, report.hot_account_arrivals,
            repr(report.p95_session_s), repr(report.virtual_seconds),
            sorted(unit.sim.metrics.counters().items()),
            unit.sim.events_dispatched, repr(unit.sim.now),
            unit.router.state_digest().hex(),
            unit.extra,
        )
        return Outcome(
            attempted=report.arrivals,
            completed=report.sessions_completed,
            timed_s=unit.clock.speed.total_s,
            flow_ms=unit.clock.speed.samples_ms,
            virtual_s=list(unit.engine.session_hist.values),
            digest=digest,
            errors=errors,
            counters=counters,
        )


class SpikeDay(_Day):
    """F6's noon-stampede day on a 2-shard pool without a journal."""

    name = "spike_day"

    def build(self, seed: int) -> DayUnit:
        clock = CompletionClock()
        sim = Simulator(seed=seed, trace=clock)
        network = Network(sim)
        network.attach(LOAD_HOST, LinkSpec.lan())
        signing_key = _signing_key(seed)
        router = build_sharded_pool(
            sim, network, "pool.spike", VerifierPolicy(),
            shard_count=2, workers_per_shard=1,
        )
        engine = LoadEngine(
            sim, router,
            users=SPIKE_USERS,
            signing_key=signing_key,
            accounts=max(16, min(SPIKE_USERS // 20, 2_000)),
            spikes=[SPIKE],
            mix=SPIKE_MIX,
            max_outstanding=1_000,
        )
        clock.log = engine.session_log
        engine.setup_accounts()
        return DayUnit(sim, network, router, engine, clock, shards=list(router.shards))


class ChurnDay(_Day):
    """A journaled pool through shard crashes, a scale-up and a drain."""

    name = "churn_day"

    def build(self, seed: int) -> DayUnit:
        clock = CompletionClock()
        sim = Simulator(seed=seed, trace=clock)
        network = Network(sim)
        network.attach(LOAD_HOST, LinkSpec.lan())
        signing_key = _signing_key(seed)
        policy = VerifierPolicy()
        disk = UntrustedDisk()
        router = build_sharded_pool(
            sim, network, "pool.churn", policy,
            shard_count=2, workers_per_shard=1,
            provider_factory=ChaosBank,
            journal_disk=disk, snapshot_every=64,
            breaker_reset_s=CHURN_RECOVERY_S / 3,
        )

        unit = DayUnit(sim, network, router, None, clock, shards=list(router.shards))

        def make_shard(host: str):
            network.attach(host, LinkSpec.lan())
            shard = ChaosBank(sim, network, host, policy, workers=1)
            shard.attach_journal(disk)
            unit.shards.append(shard)
            return shard

        remove_shard = router.remove_shard

        def remove_and_keep_forwards(host: str) -> int:
            # Only reads: the router drops the shard's forward count.
            index = [shard.host for shard in router.shards].index(host)
            unit.retired_forwards += router.forwards_by_shard[index]
            return remove_shard(host)

        router.remove_shard = remove_and_keep_forwards
        manager = ShardPoolManager(sim, router, make_shard, intent_disk=disk)
        engine = LoadEngine(
            sim, router,
            users=CHURN_USERS,
            signing_key=signing_key,
            accounts=max(16, min(CHURN_USERS // 20, 400)),
            day_seconds=CHURN_DAY_S,
            mix=CHURN_MIX,
            max_outstanding=400,
            max_attempts=6,
        )
        clock.log = engine.session_log
        engine.setup_accounts()
        unit.engine, unit.manager = engine, manager
        unit.checker = checker = InvariantChecker(router, manager)
        checker.snapshot_baseline()

        injector = FaultInjector(sim, horizon=CHURN_DAY_S, name="churn.faults")
        for shard, fractions in zip(router.shards, CHURN_CRASH_AT):
            injector.add_crash_windows(shard, [
                Window(CHURN_DAY_S * f, CHURN_DAY_S * f + CHURN_RECOVERY_S)
                for f in fractions
            ])
        start_count = len(router.shards)

        def scale_up() -> None:
            if len(router.shards) == start_count:
                manager.scale_up()

        def drain() -> None:
            if len(router.shards) == start_count + 1:
                manager.drain_shard(router.shards[-1].host)

        for frac in CHURN_SCALE_UP_AT:
            sim.schedule_at(
                sim.now + CHURN_DAY_S * frac, scale_up, label="bench.scale_up"
            )
        for frac in CHURN_DRAIN_AT:
            sim.schedule_at(sim.now + CHURN_DAY_S * frac, drain, label="bench.drain")
        return unit

    def after_day(self, unit: DayUnit) -> Tuple[tuple, List[str]]:
        sim, router, manager = unit.sim, unit.router, unit.manager
        for _ in range(2):
            for shard in router.shards:
                if shard.endpoint.crashed:
                    shard.restart()
            sim.run(until=sim.now + 60.0)
        report = unit.checker.check()
        row = report.to_row()
        errors = [f"invariant {v}" for v in row["violations"]]
        if not report.ok and not errors:
            errors.append(f"invariant checks failed: {row['failed']}")
        if manager.totals()["migrations"] < 1:
            errors.append("no migration committed")
        return (row, manager.totals(), len(router.shards)), errors


@dataclass
class DeviceUnit:
    world: TrustedPathWorld
    # Filled by the timed run.
    speed: HostSpeed = field(default_factory=lambda: HostSpeed(adjust=False))
    virtual_s: List[float] = field(default_factory=list)
    executed: int = 0


class DeviceFlow:
    """One client's closed loop of 1-cent confirmations."""

    name = "device_flow"

    def build(self, seed: int) -> DeviceUnit:
        return DeviceUnit(TrustedPathWorld(WorldConfig(seed=seed)).ready())

    def run(self, unit: DeviceUnit, adjust: bool = True) -> None:
        """The timed work: FLOWS_PER_UNIT sequential confirmations, each
        timed from building its transaction to its outcome."""
        world = unit.world
        sim = world.simulator
        unit.speed = speed = HostSpeed(adjust)
        for index in range(FLOWS_PER_UNIT):
            flow_start = clock()
            quote = index % QUOTE_EVERY == QUOTE_EVERY - 1
            mode = EVIDENCE_QUOTE if quote else EVIDENCE_SIGNED
            transaction = Transaction(
                kind="transfer",
                account=world.config.account,
                fields={"to": "bob", "amount": FLOW_CENTS},
            )
            virtual_start = sim.now
            outcome = world.confirm(transaction, mode=mode)
            speed.add(clock() - flow_start)
            unit.virtual_s.append(sim.now - virtual_start)
            unit.executed += outcome.executed
            speed.tick()
        speed.flush()

    def outcome(self, unit: DeviceUnit) -> Outcome:
        """Checks, counters and digest of a unit after :meth:`run`."""
        world, executed = unit.world, unit.executed
        sim = world.simulator
        errors = []
        if executed != FLOWS_PER_UNIT:
            errors.append(f"{FLOWS_PER_UNIT - executed} flows did not execute")
        bank = world.bank
        counters = dict(sim.metrics.counters())
        counters["sim.events"] = sim.events_dispatched
        counters["net.packets"] = world.network.packets_sent
        counters["net.bytes"] = world.network.bytes_sent
        counters["provider.requests"] = bank.endpoint.requests_served
        counters["provider.denials"] = sum(bank.denials.values())
        counters["rpc.retransmits"] = bank.endpoint.retransmits
        for key, value in bank.journal_stats().items():
            counters[f"journal.{key}"] = value
        if bank.verification_cache is not None:
            for key, value in bank.verification_cache.stats().items():
                counters[f"verification.{key}"] = value
        digest = _digest(
            executed, [repr(v) for v in unit.virtual_s], repr(sim.now),
            sorted(sim.metrics.counters().items()), bank.state_digest().hex(),
        )
        return Outcome(
            attempted=FLOWS_PER_UNIT,
            completed=executed,
            timed_s=unit.speed.total_s,
            flow_ms=unit.speed.samples_ms,
            virtual_s=unit.virtual_s,
            digest=digest,
            errors=errors,
            counters=counters,
        )


WORKLOADS = {w.name: w for w in (SpikeDay(), ChurnDay(), DeviceFlow())}
