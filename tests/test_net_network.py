"""Network transfer/latency/loss and RPC endpoints with queueing."""

from __future__ import annotations

import pytest

from repro.net.network import LinkSpec, Network, NetworkError
from repro.net.rpc import RpcEndpoint, RpcError
from repro.sim import ConstantLatency, NormalLatency, Simulator


def _net(simulator, loss=0.0):
    network = Network(simulator)
    network.attach("a", LinkSpec(latency=ConstantLatency(0.010), loss_probability=loss))
    network.attach("b", LinkSpec(latency=ConstantLatency(0.005)))
    return network


class TestNetwork:
    def test_transfer_charges_latency(self, simulator):
        network = _net(simulator)
        before = simulator.now
        network.transfer("a", "b", b"payload")
        assert simulator.now - before == pytest.approx(0.015)

    def test_unknown_host_rejected(self, simulator):
        network = _net(simulator)
        with pytest.raises(NetworkError):
            network.transfer("a", "ghost", b"xyz")
        # The packet never entered the network: nothing is counted.
        assert network.packets_sent == 0
        assert network.bytes_sent == 0
        assert network.packets_dropped == 0
        with pytest.raises(NetworkError):
            network.attach("a")  # duplicate

    def test_loss_raises_and_counts(self, simulator):
        network = _net(simulator, loss=1.0)
        with pytest.raises(NetworkError):
            network.transfer("a", "b", b"x")
        assert network.packets_dropped == 1

    def test_async_send_delivers_later(self, simulator):
        network = _net(simulator)
        received = []
        network.set_inbox("b", lambda source, payload: received.append(
            (source, payload, simulator.now)
        ))
        network.send("a", "b", b"hello")
        assert received == []  # not yet delivered
        simulator.run()
        assert received[0][0] == "a" and received[0][1] == b"hello"
        assert received[0][2] == pytest.approx(0.015)

    def test_send_requires_inbox(self, simulator):
        network = _net(simulator)
        with pytest.raises(NetworkError):
            network.send("a", "b", b"x")

    def test_byte_accounting(self, simulator):
        network = _net(simulator)
        network.transfer("a", "b", b"12345")
        assert network.bytes_sent == 5 and network.packets_sent == 1


def _b_to_c_deliveries(with_a_traffic: bool):
    """Deliveries of 40 ``b -> c`` packets on lossy, jittery links, with
    or without ``a`` sending to ``c`` at the same instants and between."""
    sim = Simulator(seed=21)
    network = Network(sim)
    link = LinkSpec(
        latency=NormalLatency(mu=0.02, sigma=0.005), loss_probability=0.3
    )
    for host in ("a", "b", "c"):
        network.attach(host, link)
    arrivals = {"a": [], "b": []}
    network.set_inbox(
        "c", lambda source, payload: arrivals[source].append((payload, sim.now))
    )
    for i in range(40):
        at = i * 0.1
        if with_a_traffic:
            # Same instant, scheduled first: a's draws come before b's.
            sim.schedule_at(at, lambda: network.send("a", "c", b"noise"))
            sim.schedule_at(at + 0.05, lambda: network.send("a", "c", b"more"))
        sim.schedule_at(at, lambda i=i: network.send("b", "c", b"b%d" % i))
    sim.run()
    return arrivals


class TestPerHostStreams:
    def test_unrelated_traffic_does_not_perturb_a_hosts_draws(self):
        """Latency and loss draws come from the source host's own
        stream, so b's deliveries to c (which packets survive, and when
        each arrives) are the same whether or not a sends too."""
        quiet = _b_to_c_deliveries(with_a_traffic=False)
        busy = _b_to_c_deliveries(with_a_traffic=True)
        assert busy["b"] == quiet["b"]
        # Both draw kinds were exercised: some of b's packets were lost,
        # some arrived with jitter, and a's traffic really flowed.
        assert 0 < len(quiet["b"]) < 40
        delays = {t - 0.1 * int(payload[1:]) for payload, t in quiet["b"]}
        assert len(delays) > 1
        assert quiet["a"] == [] and busy["a"]


class TestRpcSync:
    def _endpoint(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b")
        endpoint.register("double", lambda req: {"value": req["value"] * 2},
                          service_time=0.003)
        endpoint.register("boom", lambda req: (_ for _ in ()).throw(ValueError("x")))
        return endpoint

    def test_call_sync(self, simulator):
        endpoint = self._endpoint(simulator)
        before = simulator.now
        response = endpoint.call_sync("a", "double", {"value": 21})
        assert response["value"] == 42
        # two transfers (0.015 each) + service time
        assert simulator.now - before == pytest.approx(0.033)

    def test_unknown_method(self, simulator):
        endpoint = self._endpoint(simulator)
        with pytest.raises(RpcError):
            endpoint.call_sync("a", "missing", {})
        assert endpoint.requests_failed == 1

    def test_handler_exception_surfaces_as_rpc_error(self, simulator):
        endpoint = self._endpoint(simulator)
        with pytest.raises(RpcError) as err:
            endpoint.call_sync("a", "boom", {})
        assert "ValueError" in str(err.value)

    def test_served_counter(self, simulator):
        endpoint = self._endpoint(simulator)
        endpoint.call_sync("a", "double", {"value": 1})
        endpoint.call_sync("a", "double", {"value": 2})
        assert endpoint.requests_served == 2


class TestRpcQueued:
    def test_single_worker_serializes(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b", workers=1)
        endpoint.register("work", lambda req: {"ok": 1}, service_time=0.1)
        completions = []
        for _ in range(3):
            endpoint.submit(
            "a", "work", {}, lambda r: completions.append(simulator.now)
        )
        simulator.run()
        assert len(completions) == 3
        # Completions are spaced by the service time (single worker).
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        assert all(gap == pytest.approx(0.1, abs=1e-6) for gap in gaps)

    def test_multiple_workers_parallelize(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b", workers=3)
        endpoint.register("work", lambda req: {"ok": 1}, service_time=0.1)
        completions = []
        for _ in range(3):
            endpoint.submit(
            "a", "work", {}, lambda r: completions.append(simulator.now)
        )
        simulator.run()
        spread = max(completions) - min(completions)
        assert spread < 0.01  # all three served concurrently

    def test_queue_peak_tracked(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b", workers=1)
        endpoint.register("work", lambda req: {"ok": 1}, service_time=0.5)
        for _ in range(5):
            endpoint.submit("a", "work", {}, lambda r: None)
        simulator.run()
        assert endpoint.queue_peak >= 3
