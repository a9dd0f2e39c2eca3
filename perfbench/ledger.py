"""Outside-in wall-time ledger: spans around calls into each layer.

The ledger never edits the program.  :func:`install` replaces each
listed entry point (a module function or a class method) with a thin
wrapper, at every place the name is bound: the defining module, every
``from X import f`` alias in another ``repro`` module, and the class
dictionary for methods.  Callbacks handed to the kernel, the network and
the RPC layer (event actions, inboxes, RPC handlers, reply callbacks)
are wrapped where they are handed over and attributed to the layer of
the module that defined them, so work run from the event loop lands in
the layer that owns the code rather than in ``sim.kernel``.

Each wrapped call is a span: entry, start, end, the enclosing span
(``parent``, used for self time) and the span that was active when the
call was caused (``cause``: for callbacks, the span that scheduled or
registered them).  A layer's self time is its spans' durations minus
the durations of the wrapped calls nested directly inside them; wall
time covered by no span is ``unattributed``.  Spans are kept in memory
up to a cap and written out by the caller at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layers, each named after the module that implements it.
LAYERS = (
    "bench.loadgen",
    "sim.kernel",
    "net.messages",
    "net.rpc",
    "net.network",
    "server.router",
    "server.provider",
    "server.verifier",
    "server.noncedb",
    "server.journal",
    "server.rebalance",
    "server.invariants",
    "crypto.backend",
    "core.transaction",
    "core.client",
    "drtm.slb",
    "drtm.session",
    "tpm.device",
)

#: Spans beyond this many per phase are aggregated but not kept.
SPAN_CAP = 200_000

DAYS = ("spike_day", "churn_day")
ALL = ("spike_day", "churn_day", "device_flow")


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method of a layer.

    ``target`` is ``"module:qualname"`` with ``qualname`` either a
    function or ``Class.method``.  ``workloads`` names the workloads
    that must record calls into it (the ledger self-check);
    ``callback_arg`` marks a binding site whose positional argument at
    that index (``self`` counted) or keyword of that name is a callback
    to attribute.
    """

    layer: str
    target: str
    workloads: Tuple[str, ...] = ()
    callback_arg: Optional[Tuple[int, str]] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.target.split(':', 1)[1]}"


def _entry(layer, qualname, workloads=(), callback_arg=None, module=None):
    module = module or f"repro.{layer}"
    return EntryPoint(layer, f"{module}:{qualname}", tuple(workloads), callback_arg)


#: The wrapped entry points.  Every one must record calls on each
#: workload listed with it; the list was chosen so that it does.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    _entry("bench.loadgen", "plan_arrivals", DAYS),
    _entry("bench.loadgen", "LoadEngine.setup_accounts", DAYS),
    _entry("bench.loadgen", "LoadEngine.run_day", DAYS),
    _entry("sim.kernel", "Simulator.run", DAYS),
    _entry("sim.kernel", "Simulator.schedule", DAYS, (2, "action")),
    _entry("sim.kernel", "Simulator.schedule_at", DAYS, (2, "action")),
    _entry("net.messages", "encode_message", ALL),
    _entry("net.messages", "decode_message", ALL),
    _entry("net.rpc", "RpcEndpoint.register", ALL, (2, "handler")),
    _entry("net.rpc", "RpcEndpoint.submit", DAYS, (4, "on_response")),
    _entry("net.rpc", "RpcEndpoint.call_sync", ALL),
    _entry("net.network", "Network.set_inbox", DAYS, (2, "inbox")),
    _entry("net.network", "Network.send", DAYS),
    _entry("net.network", "Network.transfer", ALL),
    _entry("server.router", "ProviderRouter.shard_for_account", DAYS),
    _entry("server.router", "ProviderRouter.add_shard", ("churn_day",)),
    _entry("server.router", "ProviderRouter.remove_shard", ("churn_day",)),
    _entry("server.router", "ProviderRouter.complete_migration", ("churn_day",)),
    _entry("server.provider", "ServiceProvider.register_signing_key", DAYS),
    _entry("server.provider", "ServiceProvider.capture_state", ("churn_day",)),
    _entry("server.provider", "ServiceProvider.restore_from_journal", ("churn_day",)),
    _entry("server.provider", "ServiceProvider.crash", ("churn_day",)),
    _entry("server.provider", "ServiceProvider.restart", ("churn_day",)),
    _entry("server.provider", "ServiceProvider.capture_slice", ("churn_day",)),
    _entry("server.provider", "ServiceProvider.install_slice", ("churn_day",)),
    _entry("server.provider", "ServiceProvider.drop_slice", ("churn_day",)),
    _entry("server.verifier", "AttestationVerifier.verify_signed_confirmation", ALL),
    _entry("server.verifier", "AttestationVerifier.verify_confirm_batch", DAYS),
    _entry("server.verifier", "AttestationVerifier.verify_quote_confirmation",
           ("device_flow",)),
    _entry("server.verifier", "VerificationCache.lookup", DAYS),
    _entry("server.noncedb", "NonceDatabase.issue", ALL),
    _entry("server.noncedb", "NonceDatabase.consume", ALL),
    _entry("server.journal", "ProviderJournal.append", ("churn_day",)),
    _entry("server.journal", "ProviderJournal.write_snapshot", ("churn_day",)),
    _entry("server.journal", "ProviderJournal.read_snapshot", ("churn_day",)),
    _entry("server.journal", "ProviderJournal.read_records", ("churn_day",)),
    _entry("server.rebalance", "ShardPoolManager.scale_up", ("churn_day",)),
    _entry("server.rebalance", "ShardPoolManager.drain_shard", ("churn_day",)),
    _entry("server.rebalance", "MigrationIntentLog.append", ("churn_day",)),
    _entry("server.invariants", "InvariantChecker.snapshot_baseline", ("churn_day",)),
    _entry("server.invariants", "InvariantChecker.check", ("churn_day",)),
    _entry("crypto.backend", "rsa_sign_crt", ALL),
    _entry("crypto.backend", "rsa_verify", ALL),
    _entry("crypto.backend", "generate_rsa_keypair", ALL, module="repro.crypto.rsa"),
    _entry("core.transaction", "Transaction.canonical_bytes", ALL),
    _entry("core.client", "TrustedPathClient.confirm_transaction", ("device_flow",)),
    _entry("drtm.slb", "measured_image", ("device_flow",)),
    _entry("drtm.slb", "SecureLoaderBlock.measurement", ("device_flow",)),
    _entry("drtm.session", "FlickerSession.run", ("device_flow",)),
    _entry("tpm.device", "TpmDevice.execute", ("device_flow",)),
)


def layer_of(fn) -> Optional[str]:
    """The layer whose module defined ``fn``, or None."""
    module = getattr(fn, "__module__", None) or ""
    if not module.startswith("repro."):
        return None
    name = module[len("repro."):]
    return name if name in LAYERS else None


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What the ledger recorded between :meth:`Ledger.start` and
    :meth:`Ledger.stop`."""

    wall_s: float = 0.0
    covered_s: float = 0.0
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    inclusive_s: Dict[str, float] = field(default_factory=dict)
    tallies: Dict[str, float] = field(default_factory=dict)
    spans: List[tuple] = field(default_factory=list)
    spans_dropped: int = 0

    @property
    def unattributed_s(self) -> float:
        """Wall time under no span."""
        return self.wall_s - self.covered_s


class Ledger:
    """Span recorder with per-layer self time.

    Only records between :meth:`start` and :meth:`stop`; a wrapper
    called outside a phase just calls through.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        span_cap: int = SPAN_CAP,
    ) -> None:
        self.clock = clock
        self.span_cap = span_cap
        self.recording = False
        self._stack: List[list] = []
        self._next_id = 1
        self._phase = Phase()
        self._started = 0.0
        self._deferred: List[Callable[[], None]] = []

    def start(self) -> None:
        """Begin a phase; the stack must be empty."""
        if self._stack:
            raise RuntimeError("cannot start a phase inside a span")
        self._phase = Phase()
        self.recording = True
        self._started = self.clock()

    def stop(self) -> Phase:
        """End the phase, run the work deferred to its end (outside the
        timing) and return what it recorded."""
        if self._stack:
            raise RuntimeError("cannot stop a phase inside a span")
        phase = self._phase
        phase.wall_s = self.clock() - self._started
        self.recording = False
        while self._deferred:
            self._deferred.pop(0)()
        self._phase = Phase()
        return phase

    def defer(self, work: Callable[[], None]) -> None:
        """Run ``work`` when the phase stops, after its wall time is taken."""
        self._deferred.append(work)

    def current(self) -> int:
        """Id of the innermost open span (0 at top level)."""
        return self._stack[-1][0] if self._stack else 0

    def tally(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to a named count of the current phase."""
        tallies = self._phase.tallies
        tallies[key] = tallies.get(key, 0) + amount

    def call(self, layer: str, entry: str, fn, args, kwargs, cause: int = -1):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            phase = self._phase
            phase.self_s[layer] = phase.self_s.get(layer, 0.0) + duration - frame[1]
            phase.calls[entry] = phase.calls.get(entry, 0) + 1
            phase.inclusive_s[entry] = phase.inclusive_s.get(entry, 0.0) + duration
            if stack:
                stack[-1][1] += duration
            else:
                phase.covered_s += duration
            if len(phase.spans) < self.span_cap:
                phase.spans.append(
                    (span_id, parent, parent if cause < 0 else cause,
                     entry, start, end)
                )
            else:
                phase.spans_dropped += 1

    def callback(self, fn):
        """Wrap a callback so its runs are spans of its own layer, caused
        by the span active now."""
        if not self.recording:
            return fn
        layer = layer_of(fn)
        if layer is None:
            return fn
        entry = f"{layer}:{getattr(fn, '__qualname__', repr(fn))}"
        cause = self.current()
        ledger = self

        def run_callback(*args, **kwargs):
            if not ledger.recording:
                return fn(*args, **kwargs)
            return ledger.call(layer, entry, fn, args, kwargs, cause)

        return run_callback


def check_phase(phase: Phase, tolerance: float = 1e-6) -> List[str]:
    """The phase's bookkeeping against what it recorded.

    No self time and no unattributed time may be negative.  When the
    phase kept all of its spans, each span must lie inside its parent,
    and the self time of each layer and the covered time, recomputed
    from the spans alone (duration minus the durations of the spans
    whose parent it is), must equal the running totals.
    """
    slack = tolerance * max(phase.wall_s, 1.0)
    errors = [
        f"negative self time {value} in {layer}"
        for layer, value in sorted(phase.self_s.items()) if value < -slack
    ]
    if phase.unattributed_s < -slack:
        errors.append(f"negative unattributed time {phase.unattributed_s}")
    if phase.spans_dropped:
        return errors
    bounds = {span[0]: (span[4], span[5]) for span in phase.spans}
    nested: Dict[int, float] = {}
    for span_id, parent, _cause, entry, start, end in phase.spans:
        if not parent:
            continue
        if parent not in bounds:
            errors.append(f"span {span_id} ({entry}) has no recorded parent {parent}")
            continue
        outer_start, outer_end = bounds[parent]
        if start < outer_start or end > outer_end:
            errors.append(f"span {span_id} ({entry}) is not inside its parent")
        nested[parent] = nested.get(parent, 0.0) + end - start
    self_s: Dict[str, float] = {}
    covered = 0.0
    for span_id, parent, _cause, entry, start, end in phase.spans:
        layer = entry.split(":", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + end - start - nested.get(span_id, 0.0)
        if not parent:
            covered += end - start
    for layer in sorted(set(self_s) | set(phase.self_s)):
        recorded, derived = phase.self_s.get(layer, 0.0), self_s.get(layer, 0.0)
        if abs(recorded - derived) > slack:
            errors.append(
                f"self time of {layer}: {recorded} recorded, {derived} from spans"
            )
    if abs(covered - phase.covered_s) > slack:
        errors.append(f"covered time: {phase.covered_s} recorded, {covered} from spans")
    return errors


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
#: Byte counts taken at a call: entry name -> (tally key, measure).
#: ``measure(args, result)`` returns the bytes to add.
BYTE_PROBES: Dict[str, Tuple[str, Callable[[tuple, object], int]]] = {
    "net.messages:encode_message": (
        "net.messages.encode_bytes", lambda args, result: len(result)
    ),
    "server.journal:ProviderJournal.write_snapshot": (
        "server.journal.snapshot_bytes", lambda args, result: len(args[1])
    ),
}


class _CountingRng:
    """Pass-through RNG that counts ``expovariate`` draws: one per
    thinning candidate in :func:`repro.bench.loadgen.plan_arrivals`."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self._expovariate = rng.expovariate
        self.random = rng.random
        self.candidates = 0

    def expovariate(self, rate):
        self.candidates += 1
        return self._expovariate(rate)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_candidates(ledger, plan, rng_state, args, kwargs, accepted) -> None:
    """Replay an arrival plan on a copy of its RNG, counting thinning
    candidates; deferred to the end of the phase so the count costs the
    timed plan nothing."""
    rng = random.Random()
    rng.setstate(rng_state)
    counter = _CountingRng(rng)
    plan(counter, *args[1:], **kwargs)
    ledger.tally("bench.loadgen.candidates", counter.candidates)
    ledger.tally("bench.loadgen.accepted", accepted)


def _make_wrapper(ledger: Ledger, entry: EntryPoint, original):
    layer, name = entry.layer, entry.name
    probe = BYTE_PROBES.get(name)
    callback_arg = entry.callback_arg
    counts_candidates = name == "bench.loadgen:plan_arrivals"

    def wrapper(*args, **kwargs):
        if not ledger.recording:
            return original(*args, **kwargs)
        if callback_arg is not None:
            index, keyword = callback_arg
            if len(args) > index:
                args = args[:index] + (ledger.callback(args[index]),) + args[index + 1:]
            elif keyword in kwargs:
                kwargs[keyword] = ledger.callback(kwargs[keyword])
        if counts_candidates:
            rng_state = args[0].getstate()
        result = ledger.call(layer, name, original, args, kwargs)
        if counts_candidates:
            ledger.defer(functools.partial(
                _count_candidates, ledger, original, rng_state, args, kwargs,
                len(result),
            ))
        if probe is not None:
            ledger.tally(probe[0], probe[1](args, result))
        return result

    functools.update_wrapper(wrapper, original)
    wrapper.__perfbench_original__ = original
    return wrapper


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        owner = getattr(module, class_name)
        if attr not in vars(owner):
            raise LookupError(f"{target}: not defined on {class_name}")
        return owner, attr, vars(owner)[attr]
    return module, qualname, getattr(module, qualname)


class Patches:
    """Installed wrappers; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._saved)


def install(
    ledger: Ledger, entries: Sequence[EntryPoint] = ENTRY_POINTS
) -> Patches:
    """Wrap every entry point at every binding site in the loaded
    modules.  Import the program first: a module imported later picks
    up a wrapper through ``from X import f`` but is not restored by
    :meth:`Patches.restore`."""
    patches = Patches()
    modules = [module for module in list(sys.modules.values()) if module is not None]
    try:
        for entry in entries:
            owner, attr, original = _resolve(entry.target)
            wrapper = _make_wrapper(ledger, entry, original)
            if isinstance(owner, type):
                patches.set(owner, attr, wrapper)
                continue
            for module in modules:
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for alias, value in list(namespace.items()):
                    if value is original:
                        patches.set(module, alias, wrapper)
    except BaseException:
        patches.restore()
        raise
    return patches
