"""Deterministic, seed-driven fault injection.

Any experiment can subject the simulated world to realistic trouble —
link loss bursts, latency spikes, server worker stalls, transient TPM
command failures — without giving up reproducibility.  The design rule
that makes this safe:

* **All fault windows are precomputed** at plan-build time from a
  dedicated named RNG stream (``rng.stream("faults[:name]")``).
  *Checking* whether a fault is active at some virtual time consumes no
  randomness, so attaching an injector never perturbs the latency/loss
  draws of the underlying models: a run with faults *configured but
  never triggering* is bit-identical to one without the injector, and
  two runs with the same seed see the same faults at the same times.
* The targeted chaos kinds (per-shard crashes, control-plane crashes,
  torn-write journal faults, migration-phase aiming) each draw from a
  **dedicated sub-stream** (``{name}.shard.{host}``, ``{name}.ctl.{host}``,
  ``{name}.torn.{host}``, ``{name}.mig``) instead of the shared plan
  stream, so adding one kind never perturbs another and plans stay
  byte-identical across crypto backends and worker counts.  Migration
  aiming is the one *lazily* drawn kind: its Bernoulli draws happen
  when the coordinator fires a phase hook — still deterministic,
  because phase hooks run in the deterministic event order of the
  control plane.

Hook points (each component opts in explicitly):

* :meth:`Network.attach_faults <repro.net.network.Network.attach_faults>`
  — consults :meth:`burst_loss` / :meth:`latency_factor` per packet.
* :meth:`FaultInjector.stall_workers` — schedules
  :meth:`RpcEndpoint.stall_workers <repro.net.rpc.RpcEndpoint.stall_workers>`
  calls at precomputed times.
* :meth:`FaultInjector.attach_tpm` — installs a ``fault_hook`` on a
  :class:`~repro.tpm.device.TpmDevice` that raises a *transient*
  ``TpmError(TPM_RESULT.RETRY)`` inside precomputed windows; session-
  level recovery (`repro.drtm.session.FlickerSession.run_with_retry`)
  absorbs these.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.kernel import Simulator


class FaultConfigError(ValueError):
    """Invalid fault plan parameters."""


@dataclass(frozen=True)
class Window:
    """One half-open activity interval ``[start, end)`` in virtual time."""

    start: float
    end: float

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


class _WindowSet:
    """Sorted fault windows with O(log n) activity lookup."""

    def __init__(self, windows: List[Window]) -> None:
        self.windows = sorted(windows, key=lambda w: w.start)
        self._starts = [w.start for w in self.windows]

    def active(self, now: float) -> bool:
        index = bisect.bisect_right(self._starts, now) - 1
        return index >= 0 and self.windows[index].active(now)

    def __len__(self) -> int:
        return len(self.windows)


def poisson_windows(
    rng, horizon: float, rate_per_s: float, duration_s: float
) -> List[Window]:
    """Windows whose starts form a Poisson process over ``[0, horizon)``."""
    if horizon <= 0:
        raise FaultConfigError(f"horizon must be positive, got {horizon}")
    if rate_per_s <= 0 or duration_s <= 0:
        raise FaultConfigError(
            f"rate ({rate_per_s}) and duration ({duration_s}) must be positive"
        )
    windows: List[Window] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= horizon:
            break
        windows.append(Window(t, t + duration_s))
    return windows


class FaultInjector:
    """A deterministic fault plan for one simulated world.

    Parameters
    ----------
    simulator:
        Owns the clock and the master seed the plan derives from.
    horizon:
        Virtual-time span over which fault windows are generated.
        Faults never fire past the horizon.
    name:
        Stream-name suffix, so two injectors in one world draw from
        independent streams.
    """

    def __init__(
        self, simulator: Simulator, horizon: float, name: str = "faults"
    ) -> None:
        self.simulator = simulator
        self.horizon = float(horizon)
        self.name = name
        self._rng = simulator.rng.stream(name)
        self._loss_bursts: Dict[str, Tuple[_WindowSet, float]] = {}
        self._latency_spikes: Dict[str, Tuple[_WindowSet, float]] = {}
        self._tpm_windows: _WindowSet = _WindowSet([])
        self.tpm_faults_injected = 0
        self.stalls_scheduled = 0
        self.crashes_scheduled = 0
        self.torn_tails_scheduled = 0
        self.migration_crashes = 0
        #: overlapping windows collapsed by merge, across all plans —
        #: a high count means the configured rate × duration saturates
        #: the horizon and the *effective* fault load is lower than the
        #: parameters suggest.
        self.windows_merged = 0
        #: fault kind -> how many configured plans produced zero windows
        #: (horizon shorter than one mean inter-arrival, typically).
        self.empty_plans: Dict[str, int] = {}
        #: kind -> [[start, end], ...] of every scheduled window, so an
        #: experiment can echo its exact fault plan into an artifact.
        self._plan_log: Dict[str, List[List[float]]] = {}

    def _note_plan(self, kind: str, windows: List[Window]) -> None:
        """A configured fault kind that generated zero windows is a
        silent no-op — make it visible: experiments that *meant* to
        inject trouble can assert ``faults.empty_plan`` stayed zero."""
        self._plan_log[kind] = [[w.start, w.end] for w in windows]
        if windows:
            return
        self.empty_plans[kind] = self.empty_plans.get(kind, 0) + 1
        self.simulator.metrics.counter("faults.empty_plan").increment()

    def describe_plan(self) -> Dict[str, List[List[float]]]:
        """The full fault plan as plain data — every window of every
        configured kind, keyed ``kind:host`` — for artifact echo: a red
        chaos run is reproducible from the artifact alone."""
        return {kind: list(windows) for kind, windows in sorted(self._plan_log.items())}

    def _merge_windows(self, raw: List[Window]) -> List[Window]:
        """Collapse overlapping windows so every crash pairs with
        exactly one restart; merged overlaps are counted."""
        windows: List[Window] = []
        for window in sorted(raw, key=lambda w: w.start):
            if windows and window.start < windows[-1].end:
                windows[-1] = Window(
                    windows[-1].start, max(windows[-1].end, window.end)
                )
                self.windows_merged += 1
                self.simulator.metrics.counter("faults.windows_merged").increment()
            else:
                windows.append(window)
        return windows

    def validate_windows(self, windows: List[Window]) -> None:
        """Eagerly reject windows that could never fire — scheduled at
        or beyond the run horizon — or that are malformed (negative
        start, non-positive duration).  Silently-never-firing windows
        used to make a fault plan look configured while injecting
        nothing."""
        for window in windows:
            if window.start < 0:
                raise FaultConfigError(
                    f"window start must be >= 0, got {window.start}"
                )
            if window.end <= window.start:
                raise FaultConfigError(
                    f"window has non-positive duration: "
                    f"[{window.start}, {window.end})"
                )
            if window.start >= self.horizon:
                raise FaultConfigError(
                    f"window start {window.start} is beyond the run "
                    f"horizon {self.horizon}; it would silently never fire"
                )

    # ------------------------------------------------------------------
    # Link loss bursts
    # ------------------------------------------------------------------
    def add_loss_bursts(
        self,
        host: str,
        rate_per_s: float,
        duration_s: float,
        loss: float = 1.0,
    ) -> List[Window]:
        """During each burst, ``host``'s link drops packets with
        probability ``loss`` on top of its configured steady loss."""
        if not 0.0 < loss <= 1.0:
            raise FaultConfigError(f"burst loss must be in (0, 1], got {loss}")
        windows = poisson_windows(self._rng, self.horizon, rate_per_s, duration_s)
        self._note_plan(f"loss:{host}", windows)
        self._loss_bursts[host] = (_WindowSet(windows), loss)
        return windows

    def burst_loss(self, host: str, now: float) -> float:
        """Extra loss probability on ``host``'s link at ``now`` (0 if none)."""
        entry = self._loss_bursts.get(host)
        if entry is None:
            return 0.0
        windows, loss = entry
        return loss if windows.active(now) else 0.0

    # ------------------------------------------------------------------
    # Latency spikes
    # ------------------------------------------------------------------
    def add_latency_spikes(
        self,
        host: str,
        rate_per_s: float,
        duration_s: float,
        factor: float = 10.0,
    ) -> List[Window]:
        """During each spike, latencies touching ``host`` multiply by
        ``factor`` (bufferbloat / congestion model)."""
        if factor < 1.0:
            raise FaultConfigError(f"spike factor must be >= 1, got {factor}")
        windows = poisson_windows(self._rng, self.horizon, rate_per_s, duration_s)
        self._note_plan(f"latency:{host}", windows)
        self._latency_spikes[host] = (_WindowSet(windows), factor)
        return windows

    def latency_factor(self, host: str, now: float) -> float:
        entry = self._latency_spikes.get(host)
        if entry is None:
            return 1.0
        windows, factor = entry
        return factor if windows.active(now) else 1.0

    # ------------------------------------------------------------------
    # Server worker stalls
    # ------------------------------------------------------------------
    def stall_workers(
        self, endpoint, rate_per_s: float, duration_s: float
    ) -> List[Window]:
        """Schedule GC-pause-style stalls on ``endpoint``: during each
        window no queued request starts service (in-flight work
        completes normally)."""
        windows = poisson_windows(self._rng, self.horizon, rate_per_s, duration_s)
        self._note_plan(f"stall:{endpoint.host}", windows)
        for window in windows:
            self.simulator.schedule_at(
                window.start,
                lambda d=window.end - window.start: endpoint.stall_workers(d),
                label=f"fault:stall:{endpoint.host}",
            )
            self.stalls_scheduled += 1
        return windows

    # ------------------------------------------------------------------
    # Crash-stop host failures
    # ------------------------------------------------------------------
    def add_crashes(
        self, target, rate_per_s: float, duration_s: float
    ) -> List[Window]:
        """Kill ``target`` at each window start and restart it at the
        window end — the crash-stop model: the process is simply gone
        for the window, then comes back (with whatever its durability
        story preserves).

        ``target`` is anything with ``crash()``/``restart()`` — an
        :class:`~repro.net.rpc.RpcEndpoint` or a
        :class:`~repro.server.provider.ServiceProvider` (whose restart
        replays its journal).  Overlapping windows are merged so every
        crash pairs with exactly one restart.  Windows are *relative to
        the current virtual time* — experiments attach crash plans after
        their setup phase has already advanced the clock.
        """
        raw = poisson_windows(self._rng, self.horizon, rate_per_s, duration_s)
        host = getattr(target, "host", "?")
        return self._schedule_crash_windows(target, raw, kind=f"crash:{host}")

    def _schedule_crash_windows(
        self, target, raw: List[Window], *, kind: str
    ) -> List[Window]:
        windows = self._merge_windows(raw)
        host = getattr(target, "host", "?")
        self._note_plan(kind, windows)
        base = self.simulator.clock.now
        for window in windows:
            self.simulator.schedule_at(
                base + window.start, target.crash, label=f"fault:crash:{host}"
            )
            self.simulator.schedule_at(
                base + window.end, target.restart, label=f"fault:restart:{host}"
            )
            self.crashes_scheduled += 1
        return windows

    def add_crash_windows(self, target, windows: List[Window]) -> List[Window]:
        """Schedule an *explicit* crash plan (windows relative to the
        current virtual time).  Unlike the Poisson kinds, the caller
        authored these windows, so they are validated eagerly:
        malformed or beyond-horizon windows raise
        :class:`FaultConfigError` instead of silently never firing."""
        self.validate_windows(windows)
        host = getattr(target, "host", "?")
        return self._schedule_crash_windows(
            target, list(windows), kind=f"crash:{host}"
        )

    # ------------------------------------------------------------------
    # Targeted chaos kinds (dedicated RNG sub-streams)
    # ------------------------------------------------------------------
    def add_shard_crashes(
        self, provider, rate_per_s: float, duration_s: float
    ) -> List[Window]:
        """Crash windows for one shard, drawn from a per-host stream
        (``{name}.shard.{host}``) so each shard's plan is independent
        of every other fault kind and of shard enumeration order."""
        host = getattr(provider, "host", "?")
        rng = self.simulator.rng.stream(f"{self.name}.shard.{host}")
        raw = poisson_windows(rng, self.horizon, rate_per_s, duration_s)
        return self._schedule_crash_windows(provider, raw, kind=f"shard:{host}")

    def add_control_plane_crashes(
        self, target, rate_per_s: float, duration_s: float
    ) -> List[Window]:
        """Crash windows for a control-plane component — the router or
        the :class:`~repro.server.rebalance.ShardPoolManager` — on its
        own stream (``{name}.ctl.{host}``).  The component's
        ``restart()`` carries its recovery story (the manager resolves
        its intent log; the router relearns routes)."""
        host = getattr(target, "host", None) or getattr(
            getattr(target, "router", None), "host", "mgr"
        )
        rng = self.simulator.rng.stream(f"{self.name}.ctl.{host}")
        raw = poisson_windows(rng, self.horizon, rate_per_s, duration_s)
        return self._schedule_crash_windows(target, raw, kind=f"ctl:{host}")

    def add_torn_crashes(
        self,
        provider,
        rate_per_s: float,
        duration_s: float,
        fraction: float = 0.5,
    ) -> List[Window]:
        """Crash windows that land *mid-append*: at each window start
        the shard crashes and its journal's final WAL frame is torn at
        ``fraction`` of its length — the record being written at the
        instant of the crash never became durable.  Restore tolerates
        the torn tail (``journal.torn_tails``); what the run loses is
        that one record's operation, which is exactly the loss a WAL
        permits.  Dedicated stream ``{name}.torn.{host}``."""
        host = getattr(provider, "host", "?")
        if getattr(provider, "journal", None) is None:
            raise FaultConfigError(
                f"torn-write faults need a journal on {host!r}"
            )
        rng = self.simulator.rng.stream(f"{self.name}.torn.{host}")
        raw = poisson_windows(rng, self.horizon, rate_per_s, duration_s)
        windows = self._merge_windows(raw)
        self._note_plan(f"torn:{host}", windows)
        base = self.simulator.clock.now

        def torn_crash() -> None:
            provider.crash()
            provider.journal.tear_tail(fraction)
            self.torn_tails_scheduled += 1

        for window in windows:
            self.simulator.schedule_at(
                base + window.start, torn_crash, label=f"fault:torn:{host}"
            )
            self.simulator.schedule_at(
                base + window.end,
                provider.restart,
                label=f"fault:restart:{host}",
            )
            self.crashes_scheduled += 1
        return windows

    def aim_at_migrations(self, manager, plan: List[dict]) -> None:
        """Aim crashes at exact migration phases via the coordinator's
        phase hooks.  ``plan`` entries are dicts::

            {"phase": "ring_flip",     # one of rebalance.MIGRATION_PHASES
             "victim": "source",       # "source" | "target" | "control"
             "probability": 0.5,       # Bernoulli per phase firing
             "recovery_s": 2.0}        # restart delay after the crash

        Draws come lazily from the dedicated ``{name}.mig`` stream at
        hook-fire time; hooks run in the control plane's deterministic
        event order, so the plan is as reproducible as a precomputed
        one.  A crashed shard restarts via its journal; a crashed
        manager restarts into intent-log recovery."""
        from repro.server.rebalance import MIGRATION_PHASES

        phases = {entry["phase"] for entry in plan}
        unknown = phases - set(MIGRATION_PHASES)
        if unknown:
            raise FaultConfigError(
                f"unknown migration phases: {sorted(unknown)}"
            )
        for entry in plan:
            if entry["victim"] not in ("source", "target", "control"):
                raise FaultConfigError(
                    f"unknown migration victim: {entry['victim']!r}"
                )
            if not 0.0 <= float(entry["probability"]) <= 1.0:
                raise FaultConfigError(
                    f"probability must be in [0, 1]: {entry['probability']}"
                )
        rng = self.simulator.rng.stream(f"{self.name}.mig")

        def hook(phase: str, info: dict) -> None:
            for entry in plan:
                if entry["phase"] != phase:
                    continue
                if rng.random() >= float(entry["probability"]):
                    continue
                recovery_s = float(entry.get("recovery_s", 1.0))
                victim = entry["victim"]
                if victim == "control":
                    self.migration_crashes += 1
                    manager.crash()
                    self.simulator.schedule(
                        recovery_s, manager.restart,
                        label="fault:mig:restart:mgr",
                    )
                    continue
                hosts = info["sources"] if victim == "source" else info["targets"]
                shards = {
                    shard.host: shard for shard in manager.router.shards
                }
                for host in hosts:
                    shard = shards.get(host)
                    if shard is None or shard.endpoint.crashed:
                        continue
                    self.migration_crashes += 1
                    shard.crash()
                    self.simulator.schedule(
                        recovery_s, shard.restart,
                        label=f"fault:mig:restart:{host}",
                    )

        manager.phase_hooks.append(hook)

    # ------------------------------------------------------------------
    # Transient TPM command failures
    # ------------------------------------------------------------------
    def attach_tpm(
        self, tpm, rate_per_s: float, duration_s: float
    ) -> List[Window]:
        """Make ``tpm`` fail every command issued inside precomputed
        windows with a *transient* ``TPM_RESULT.RETRY`` error — the
        glitch class real LPC parts exhibit under brown-out, which a
        robust driver retries."""
        windows = poisson_windows(self._rng, self.horizon, rate_per_s, duration_s)
        self._note_plan("tpm", windows)
        self._tpm_windows = _WindowSet(windows)
        tpm.fault_hook = self._tpm_fault_check
        return windows

    def _tpm_fault_check(self, command: str) -> None:
        from repro.tpm.constants import TpmError, TpmResult

        if self._tpm_windows.active(self.simulator.clock.now):
            self.tpm_faults_injected += 1
            raise TpmError(
                TpmResult.RETRY, f"injected transient fault in {command}"
            )

    def __repr__(self) -> str:
        return (
            f"FaultInjector(horizon={self.horizon}, "
            f"loss_bursts={sorted(self._loss_bursts)}, "
            f"latency_spikes={sorted(self._latency_spikes)}, "
            f"tpm_windows={len(self._tpm_windows)})"
        )
