"""A star network with per-link latency and loss.

Hosts register by name; a link spec gives one-way latency and loss
probability between a host and the core.  Two interaction styles:

* :meth:`Network.transfer` — synchronous: charges one-way latency on
  the shared clock and delivers bytes (used by the single-client
  end-to-end experiments, where the world genuinely waits).
* :meth:`Network.send` — asynchronous: schedules delivery to the
  destination's inbox callback (used by the multi-client throughput
  experiment F2).

Randomness is drawn from one stream per *source host*
(``network.<host>``), never from a shared stream: a host's latency and
loss draws depend only on its own sends, so traffic between unrelated
hosts cannot perturb them and a replay of one host's flow stays
aligned whatever else the run does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel, NormalLatency

if TYPE_CHECKING:
    from repro.sim.faults import FaultInjector


class NetworkError(RuntimeError):
    """Delivery failure (unknown host, dropped packet)."""


@dataclass(frozen=True)
class LinkSpec:
    """One host's connection to the core."""

    latency: LatencyModel
    loss_probability: float = 0.0

    @classmethod
    def wan(cls) -> "LinkSpec":
        """A typical consumer WAN path (~25 ms one-way, light jitter)."""
        return cls(latency=NormalLatency(mu=0.025, sigma=0.004))

    @classmethod
    def lan(cls) -> "LinkSpec":
        """Datacenter-adjacent path (~0.5 ms one-way)."""
        return cls(latency=NormalLatency(mu=0.0005, sigma=0.00005))

    @classmethod
    def lossy_wan(cls, loss: float) -> "LinkSpec":
        return cls(latency=NormalLatency(mu=0.025, sigma=0.004), loss_probability=loss)


class Network:
    """The star network connecting clients and service providers."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._links: Dict[str, LinkSpec] = {}
        self._inboxes: Dict[str, Callable[[str, bytes], None]] = {}
        #: Per-host latency/loss RNG stream.
        self._rngs: Dict[str, object] = {}
        self._packets_sent = 0
        self._packets_dropped = 0
        self._bytes_sent = 0
        self.fault_injector: Optional["FaultInjector"] = None

    @property
    def tracer(self):
        return self.simulator.tracer

    # -- traffic stats ------------------------------------------------------
    @property
    def packets_sent(self) -> int:
        return self._packets_sent

    @property
    def packets_dropped(self) -> int:
        return self._packets_dropped

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Subject this network to an injector's loss bursts and latency
        spikes.  Fault activity is looked up against precomputed windows,
        so attaching an injector never perturbs the latency/loss RNG."""
        self.fault_injector = injector

    def attach(
        self,
        host: str,
        link: Optional[LinkSpec] = None,
        inbox: Optional[Callable[[str, bytes], None]] = None,
    ) -> None:
        """Register ``host`` with its link; ``inbox`` receives async sends."""
        if host in self._links:
            raise NetworkError(f"host {host!r} already attached")
        self._links[host] = link or LinkSpec.wan()
        self._rngs[host] = self.simulator.rng.stream(f"network.{host}")
        if inbox is not None:
            self._inboxes[host] = inbox

    def set_inbox(self, host: str, inbox: Callable[[str, bytes], None]) -> None:
        self._require(host)
        self._inboxes[host] = inbox

    def has_inbox(self, host: str) -> bool:
        return host in self._inboxes

    def is_attached(self, host: str) -> bool:
        return host in self._links

    def _require(self, host: str) -> LinkSpec:
        if host not in self._links:
            raise NetworkError(f"unknown host {host!r}")
        return self._links[host]

    def one_way_latency(self, source: str, destination: str) -> float:
        """Sample the one-way latency source → core → destination.

        Both link samples come from the *source* host's stream, so the
        draw sequence follows that host's sends alone.
        """
        src = self._require(source)
        dst = self._require(destination)
        rng = self._rngs[source]
        latency = src.latency.sample(rng) + dst.latency.sample(rng)
        if self.fault_injector is not None:
            now = self.simulator.clock.now
            latency *= max(
                self.fault_injector.latency_factor(source, now),
                self.fault_injector.latency_factor(destination, now),
            )
        return latency

    def _link_loss(self, host: str, link: LinkSpec, now: float) -> float:
        """Effective loss probability on one link, faults included."""
        loss = link.loss_probability
        if self.fault_injector is not None:
            burst = self.fault_injector.burst_loss(host, now)
            if burst > 0.0:
                loss = 1.0 - (1.0 - loss) * (1.0 - burst)
        return loss

    def _maybe_drop(self, source: str, destination: str) -> bool:
        src = self._require(source)
        dst = self._require(destination)
        rng = self._rngs[source]
        now = self.simulator.clock.now
        # Always draw both link probabilities: the number of RNG
        # consumptions must not depend on the first draw's outcome, or
        # enabling loss on one link perturbs every later latency sample
        # and breaks cross-config determinism.
        src_lost = rng.random() < self._link_loss(source, src, now)
        dst_lost = rng.random() < self._link_loss(destination, dst, now)
        if src_lost or dst_lost:
            self._packets_dropped += 1
            return True
        return False

    # -- synchronous -----------------------------------------------------
    def transfer(self, source: str, destination: str, payload: bytes) -> bytes:
        """Deliver ``payload`` synchronously; the caller's time advances
        by the sampled one-way latency.  Raises on a dropped packet so
        callers implement their own retry policy."""
        with self.tracer.span(
            "net.transfer", source=source, destination=destination,
            nbytes=len(payload),
        ) as span:
            # Validate both ends before touching the counters, as in
            # :meth:`send`.
            self._require(source)
            self._require(destination)
            self._packets_sent += 1
            self._bytes_sent += len(payload)
            dropped = self._maybe_drop(source, destination)
            # The sender waits one sampled latency either way: a dropped
            # packet still costs its timeout-ish detection delay.
            latency = self.one_way_latency(source, destination)
            self.simulator.clock.advance(latency)
            span.set("latency_s", latency)
            if dropped:
                span.set("dropped", True)
                raise NetworkError(f"packet {source}->{destination} dropped")
            return payload

    # -- asynchronous ------------------------------------------------------
    def send(self, source: str, destination: str, payload: bytes) -> None:
        """Schedule delivery to the destination's inbox callback."""
        # Validate the destination before touching the counters: a send
        # that never entered the network must not pollute traffic stats.
        self._require(source)
        if destination not in self._inboxes:
            raise NetworkError(f"host {destination!r} has no inbox")
        self._packets_sent += 1
        self._bytes_sent += len(payload)
        # The latency is sampled whether or not the packet survives, so
        # lossy and lossless configs consume identical RNG sequences.
        dropped = self._maybe_drop(source, destination)
        delay = self.one_way_latency(source, destination)
        if dropped:
            return
        inbox = self._inboxes[destination]
        tracer = self.tracer
        if tracer.enabled:
            # The packet is "on the wire" between two simulator events;
            # bracket the flight with an unscoped span.
            span = tracer.begin(
                "net.link", source=source, destination=destination,
                nbytes=len(payload), latency_s=delay,
            )

            def deliver() -> None:
                tracer.finish(span)
                inbox(source, payload)

        else:
            def deliver() -> None:
                inbox(source, payload)

        self.simulator.schedule(
            delay, deliver, label=f"net:{source}->{destination}"
        )
