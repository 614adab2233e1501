"""Unit tests for the generic request/response dispatcher (repro.net.request)."""

import gc
import random
import weakref
from dataclasses import dataclass

import pytest

from repro.errors import NetworkError
from repro.net.latency import ConstantLatency
from repro.net.request import PendingRequest, RequestDispatcher, RequestFailure
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network

PROTOCOL = "echo"


@dataclass(frozen=True)
class EchoRequest:
    request_id: int
    payload: str = ""

    def byte_size(self) -> int:
        return 16 + len(self.payload)


@dataclass(frozen=True)
class EchoResponse:
    request_id: int
    payload: str = ""
    provider: str = ""

    def byte_size(self) -> int:
        return 16 + len(self.payload)


def build(count=4, latency=0.01):
    sim = Simulator()
    graph = full_mesh(count)
    network = Network(
        simulator=sim,
        graph=graph,
        latency=ConstantLatency(latency),
        rng=random.Random(7),
    )
    names = sorted(graph.nodes)
    return sim, network, names


def echo_server(network, name, *, delay=0.0, sim=None, mutate=None):
    """Register a provider answering every EchoRequest, optionally late."""
    served = []

    def handler(sender, request):
        served.append(request)
        response = EchoResponse(
            request_id=request.request_id, payload=request.payload, provider=name
        )
        if mutate is not None:
            response = mutate(response)

        def reply():
            network.send(name, sender, response, protocol=PROTOCOL)

        if delay and sim is not None:
            sim.schedule(delay, reply)
        else:
            reply()

    network.register(name, handler, protocol=PROTOCOL)
    return served


class TestHappyPath:
    def test_first_provider_answers(self):
        sim, network, names = build()
        echo_server(network, names[1])
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.5
        )
        results = []
        pending = dispatcher.request(
            [names[1], names[2]],
            lambda rid: EchoRequest(request_id=rid, payload="hi"),
        )
        assert isinstance(pending, PendingRequest)
        pending.subscribe(results.append)
        sim.run(2.0)
        assert results and results[0].provider == names[1]
        assert not pending.failed
        assert dispatcher.stats.attempts == 1
        assert dispatcher.stats.responses == 1
        assert dispatcher.stats.timeouts == 0

    def test_validation_errors(self):
        sim, network, names = build()
        dispatcher = RequestDispatcher(names[0], network, sim, protocol=PROTOCOL)
        with pytest.raises(NetworkError):
            dispatcher.request([], lambda rid: EchoRequest(request_id=rid))
        with pytest.raises(NetworkError):
            RequestDispatcher(
                names[0], network, sim, protocol="bad", timeout=0.0
            )

    def test_second_dispatcher_on_same_reply_channel_refused(self):
        """A duplicate dispatcher would silently displace the first's
        response handler (the transport keeps one handler per channel),
        stranding its in-flight requests; construction must refuse."""
        sim, network, names = build()
        RequestDispatcher(names[0], network, sim, protocol=PROTOCOL)
        with pytest.raises(NetworkError, match="already has a handler"):
            RequestDispatcher(names[0], network, sim, protocol=PROTOCOL)
        # Distinct reply channels coexist: the same peer can run one
        # dispatcher per protocol (and another peer is always free).
        RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, reply_protocol="echo-reply"
        )
        RequestDispatcher(names[1], network, sim, protocol=PROTOCOL)


class TestTimeoutThenLateResponse:
    def test_late_response_is_dropped_and_failover_wins(self):
        """A provider that answers after its timeout must not poison the
        request: the failover provider's response wins, and the late one
        is counted and discarded."""
        sim, network, names = build()
        # names[1] answers after 2.0 s — far beyond the 0.5 s timeout.
        echo_server(network, names[1], delay=2.0, sim=sim)
        echo_server(network, names[2])  # prompt
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.5
        )
        results = []
        dispatcher.request(
            [names[1], names[2]],
            lambda rid: EchoRequest(request_id=rid, payload="x"),
        ).subscribe(results.append)
        sim.run(5.0)
        assert len(results) == 1
        assert results[0].provider == names[2]
        assert dispatcher.stats.timeouts == 1
        # The slow provider's answer eventually arrived — late, dropped.
        assert dispatcher.stats.late_responses == 1
        assert dispatcher.stats.attempts == 2

    def test_all_timeouts_resolve_failure(self):
        sim, network, names = build()
        # No servers registered at all: every attempt times out.
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.2
        )
        results = []
        dispatcher.request(
            [names[1], names[2]],
            lambda rid: EchoRequest(request_id=rid),
        ).subscribe(results.append)
        sim.run(2.0)
        assert len(results) == 1
        failure = results[0]
        assert isinstance(failure, RequestFailure)
        assert failure.attempts == (names[1], names[2])
        assert dispatcher.stats.failures == 1


class TestFailoverOrdering:
    def test_providers_tried_in_order(self):
        """Dead providers are walked strictly in the given order before
        the live one answers."""
        sim, network, names = build(count=5)
        served_c = echo_server(network, names[3])
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.2
        )
        results = []
        dispatcher.request(
            [names[1], names[2], names[3]],
            lambda rid: EchoRequest(request_id=rid),
        ).subscribe(results.append)
        sim.run(3.0)
        assert results and results[0].provider == names[3]
        assert dispatcher.stats.timeouts == 2
        assert len(served_c) == 1

    def test_rounds_walk_the_list_again(self):
        sim, network, names = build()
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.1
        )
        results = []
        dispatcher.request(
            [names[1], names[2]],
            lambda rid: EchoRequest(request_id=rid),
            rounds=2,
        ).subscribe(results.append)
        sim.run(3.0)
        failure = results[0]
        assert isinstance(failure, RequestFailure)
        assert failure.attempts == (names[1], names[2], names[1], names[2])

    def test_rejected_response_fails_over_in_order(self):
        """A delivered-but-unacceptable response behaves like a timeout."""
        sim, network, names = build()
        echo_server(
            network,
            names[1],
            mutate=lambda r: EchoResponse(
                request_id=r.request_id, payload="tampered", provider=r.provider
            ),
        )
        echo_server(network, names[2])
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.5
        )
        results = []
        dispatcher.request(
            [names[1], names[2]],
            lambda rid: EchoRequest(request_id=rid, payload="good"),
            accept=lambda response: response.payload == "good",
        ).subscribe(results.append)
        sim.run(3.0)
        assert results and results[0].provider == names[2]
        assert dispatcher.stats.rejected == 1
        assert dispatcher.stats.timeouts == 0


class TestSpoofedResponses:
    def test_third_party_cannot_consume_an_attempt(self):
        """A peer guessing sequential request ids must neither satisfy
        nor burn another provider's outstanding attempt."""
        sim, network, names = build()
        echo_server(network, names[1], delay=0.2, sim=sim)  # honest, slowish
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=1.0
        )
        results = []
        dispatcher.request(
            [names[1]],
            lambda rid: EchoRequest(request_id=rid, payload="real"),
        ).subscribe(results.append)
        # names[3] spray-guesses the first few request ids immediately.
        for rid in range(1, 4):
            network.send(
                names[3],
                names[0],
                EchoResponse(request_id=rid, payload="forged", provider=names[3]),
                protocol=PROTOCOL,
            )
        sim.run(3.0)
        assert results and results[0].payload == "real"
        assert results[0].provider == names[1]
        assert dispatcher.stats.spoofed >= 1
        assert dispatcher.stats.rejected == 0


class TestUnreachableProviders:
    def test_churned_out_provider_fails_over_immediately(self):
        """A provider no longer in the topology must not raise out of the
        dispatcher (or a timer callback) — the next provider is tried at
        once, without burning a timeout."""
        sim, network, names = build()
        echo_server(network, names[2])
        network.remove_peer(names[1])  # churned away after being listed
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.5
        )
        results = []
        dispatcher.request(
            [names[1], names[2]],
            lambda rid: EchoRequest(request_id=rid, payload="hi"),
        ).subscribe(results.append)
        sim.run(2.0)
        assert results and results[0].provider == names[2]
        assert dispatcher.stats.unreachable == 1
        assert dispatcher.stats.timeouts == 0
        # The failover was immediate: well under one timeout elapsed.
        assert sim.now <= 2.0

    def test_all_unreachable_resolves_failure_not_raise(self):
        sim, network, names = build()
        network.remove_peer(names[1])
        network.remove_peer(names[2])
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.5
        )
        results = []
        dispatcher.request(
            [names[1], names[2]],
            lambda rid: EchoRequest(request_id=rid),
        ).subscribe(results.append)
        sim.run(1.0)
        assert results and isinstance(results[0], RequestFailure)
        assert results[0].attempts == (names[1], names[2])
        assert dispatcher.stats.unreachable == 2


class TestSettledRequestIsFreed:
    """A request that has settled is freed by reference counting.

    Its attempt chain used to reach itself through a closure, so every
    request — with whatever its ``make_request`` holds, a whole telemetry
    batch for an exporter — waited for the cyclic collector, which by
    then had promoted it to the oldest generation.
    """

    @pytest.mark.parametrize("answered", [True, False])
    def test_what_make_request_holds_is_freed_without_the_cyclic_collector(
        self, answered
    ):
        sim, network, names = build()

        def handler(sender, request):
            if answered:
                response = EchoResponse(request_id=request.request_id)
                network.send(names[1], sender, response, protocol=PROTOCOL)

        network.register(names[1], handler, protocol=PROTOCOL)
        dispatcher = RequestDispatcher(
            names[0], network, sim, protocol=PROTOCOL, timeout=0.5, rounds=2
        )

        class Batch:
            label = "batch"

        def push() -> tuple[PendingRequest, weakref.ref]:
            # The exporter's shape: the request maker closes over the batch.
            batch = Batch()
            pending = dispatcher.request(
                [names[1]],
                lambda request_id: EchoRequest(request_id=request_id, payload=batch.label),
            )
            return pending, weakref.ref(batch)

        gc.disable()
        try:
            pending, held = push()
            sim.run_until_idle()
            assert pending.resolved
            assert isinstance(pending.value, RequestFailure) is not answered
            assert held() is None
        finally:
            gc.enable()
