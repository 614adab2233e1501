"""Generic request/response with timeout, bounded retry, and failover.

Every request/response protocol in the reproduction faces the same
reliability problem: a provider may be slow, dead, or lying, and a light
client must not hang on any single one.  :class:`RequestDispatcher`
packages the answer once — send to one provider, arm a timeout on the
event simulator, retry down an ordered provider list, accept the answer
only from the provider asked, and ignore responses that arrive after
their attempt was abandoned — on top of the shared
:class:`~repro.net.promise.Promise` primitive.  It is the only request-id
allocator and the only ``request id -> waiter`` table in ``src/``; its
callers are :class:`~repro.waku.store.StoreClient` (13/WAKU2-STORE, one
request per page), :class:`~repro.waku.lightpush.LightPushClient`
(19/WAKU2-LIGHTPUSH, one attempt),
:class:`~repro.offchain.kademlia.KademliaNode` (``FindNode`` /
``FindValue``), :class:`~repro.witness.client.WitnessClient` and
:class:`~repro.telemetry.exporter.TelemetryExporter`.

The dispatcher is payload-agnostic: callers supply ``make_request`` (a
factory embedding the dispatcher-issued request id into their own wire
type) and responses only need to expose a ``request_id`` attribute.  An
optional ``accept`` hook lets the caller treat a *delivered but bad*
response (e.g. a witness that does not fold to an accepted root) exactly
like a timeout: the provider is abandoned and the next one is tried.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import NetworkError
from repro.net.promise import Promise
from repro.net.simulator import EventHandle, Simulator
from repro.net.transport import Network

#: Default per-attempt timeout (simulated seconds).
DEFAULT_TIMEOUT = 0.5


@dataclass(frozen=True)
class RequestFailure:
    """Terminal failure after every provider attempt was exhausted.

    ``attempts`` records the providers tried, in order — the failover
    ordering contract the unit tests pin down.
    """

    reason: str
    attempts: tuple[str, ...] = ()


@dataclass
class RequestStats:
    """Dispatcher-level reliability accounting."""

    requests: int = 0
    attempts: int = 0
    responses: int = 0
    timeouts: int = 0
    #: Responses that arrived after their attempt was abandoned (timeout
    #: already fired, or a later attempt already won) — dropped, never
    #: delivered to the caller.
    late_responses: int = 0
    #: Responses whose sender is not the provider the attempt was sent to
    #: — a third party guessing sequential request ids cannot consume an
    #: attempt or displace the real provider's answer.
    spoofed: int = 0
    #: Attempts whose send failed outright (provider churned out of the
    #: topology, or not adjacent) — failed over without waiting a timeout.
    unreachable: int = 0
    #: Delivered responses the caller's ``accept`` hook refused.
    rejected: int = 0
    failures: int = 0


class PendingRequest(Promise[Any]):
    """Resolves with the provider's response, or a :class:`RequestFailure`."""

    __slots__ = ()

    @property
    def failed(self) -> bool:
        return self.resolved and isinstance(self.value, RequestFailure)


class RequestDispatcher:
    """One peer's outbound request/response machinery for one protocol.

    Owns the (peer, reply channel) inbound handler on the transport, so at
    most one dispatcher exists per protocol per peer.  Enforced at
    construction: a second dispatcher would silently displace the first's
    response handler, stranding its in-flight requests to time out through
    every provider with nothing pointing at the cause.
    """

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        protocol: str,
        reply_protocol: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        rounds: int = 1,
        require_edge: bool = True,
    ) -> None:
        if timeout <= 0:
            raise NetworkError("request timeout must be positive")
        if rounds < 1:
            raise NetworkError("rounds must be >= 1")
        self.peer_id = peer_id
        self.network = network
        self.simulator = simulator
        self.protocol = protocol
        #: Channel responses arrive on.  Defaults to ``protocol`` (one
        #: shared channel, the store/lightpush convention); protocols whose
        #: peers may play *both* roles use a distinct reply channel so the
        #: client's registration does not displace the server's.
        self.reply_protocol = reply_protocol or protocol
        if network.is_registered(peer_id, protocol=self.reply_protocol):
            raise NetworkError(
                f"{peer_id!r} already has a handler on channel "
                f"{self.reply_protocol!r}; one dispatcher per reply channel "
                "per peer — share the existing one"
            )
        self.timeout = timeout
        self.rounds = rounds
        #: ``False`` models overlay dialing (infrastructure services like a
        #: telemetry collector are reached directly, not over mesh links).
        self.require_edge = require_edge
        self.stats = RequestStats()
        self.on_attempt: Callable[[], None] = lambda: None  # an owner's mark, per attempt
        self._request_ids = itertools.count(1)
        #: request id -> (provider asked, delivery closure); dropped on
        #: timeout.  The provider pins who may answer this attempt.
        self._pending: dict[int, tuple[str, Callable[[Any], None]]] = {}
        network.register(peer_id, self._on_response, protocol=self.reply_protocol)

    def request(
        self,
        providers: Sequence[str],
        make_request: Callable[[int], Any],
        *,
        accept: Callable[[Any], bool] | None = None,
        timeout: float | None = None,
        rounds: int | None = None,
    ) -> PendingRequest:
        """Try ``providers`` in order until one delivers an accepted response.

        Each attempt sends ``make_request(fresh_request_id)`` to the next
        provider and arms ``timeout``; the whole ordered list is walked up
        to ``rounds`` times before the promise settles with a
        :class:`RequestFailure`.  A response failing ``accept`` is treated
        like a timeout for failover purposes (the live timer is cancelled
        first, so the provider is charged one attempt, not two).
        """
        if not providers:
            raise NetworkError("need at least one provider")
        per_attempt = self.timeout if timeout is None else timeout
        if per_attempt <= 0:
            raise NetworkError("request timeout must be positive")
        total_rounds = self.rounds if rounds is None else rounds
        pending = PendingRequest()
        self.stats.requests += 1
        plan = [provider for _ in range(total_rounds) for provider in providers]

        def settle(result: Any) -> None:
            # ``attempt`` reaches itself through its closure; dropping that
            # reference once the request is over lets reference counting
            # free the request's state — and whatever ``make_request``
            # holds, such as the batch an exporter pushes — instead of
            # leaving one cycle per request for the cyclic collector.
            nonlocal attempt
            attempt = None
            pending.resolve(result)

        def attempt(cursor: int) -> None:
            if cursor >= len(plan):
                self.stats.failures += 1
                settle(
                    RequestFailure(
                        reason=(
                            f"no provider answered acceptably after "
                            f"{len(plan)} attempts"
                        ),
                        attempts=tuple(plan),
                    )
                )
                return
            provider = plan[cursor]
            request_id = next(self._request_ids)
            self.stats.attempts += 1
            self.on_attempt()
            timer: EventHandle | None = None

            def on_timeout() -> None:
                # Abandon this attempt: a response still in flight for this
                # id is now late and will be dropped on arrival.
                if self._pending.pop(request_id, None) is not None:
                    self.stats.timeouts += 1
                    attempt(cursor + 1)

            def deliver(response: Any) -> None:
                if timer is not None:
                    timer.cancel()
                del self._pending[request_id]
                self.stats.responses += 1
                if accept is not None and not accept(response):
                    self.stats.rejected += 1
                    attempt(cursor + 1)
                    return
                settle(response)

            self._pending[request_id] = (provider, deliver)
            try:
                self.network.send(
                    self.peer_id,
                    provider,
                    make_request(request_id),
                    protocol=self.protocol,
                    require_edge=self.require_edge,
                )
            except NetworkError:
                # Provider churned out of the topology (or is not a
                # neighbor): fail over now instead of burning a timeout —
                # and never let the raise escape a timer callback.
                del self._pending[request_id]
                self.stats.unreachable += 1
                attempt(cursor + 1)
                return
            timer = self.simulator.schedule(per_attempt, on_timeout)

        attempt(0)
        return pending

    # -- inbound ---------------------------------------------------------------

    def _on_response(self, sender: str, response: Any) -> None:
        request_id = getattr(response, "request_id", None)
        if request_id is None:
            return
        entry = self._pending.get(request_id)
        if entry is None:
            # The attempt timed out (or was superseded) before this arrived.
            self.stats.late_responses += 1
            return
        provider, deliver = entry
        if sender != provider:
            # Not who we asked: a guessed request id must neither consume
            # the attempt nor displace the real provider's answer.
            self.stats.spoofed += 1
            return
        deliver(response)
