"""19/WAKU2-LIGHTPUSH — publishing for peers that cannot join the mesh.

The filter protocol (§I) gives bandwidth-limited devices a *receive* path;
lightpush is its publish-side twin in the Waku protocol family: the light
client hands its message to a full relay node, which publishes it into the
mesh and acknowledges.

Interaction with RLN: the *light client* owns the membership and generates
the rate-limit proof (the service node must not learn the client's secret
key), so the message arrives at the service node already carrying its
§III-E bundle.  The service node relays it like any other traffic — its
own validator checks the proof before the mesh sees it, so a light client
cannot use lightpush to bypass spam protection.

Failure contract: a push is one
:class:`~repro.net.request.RequestDispatcher` request of exactly one
attempt — a lost acknowledgement looks like a lost request, so a retry
could publish twice.  No acknowledgement from the service node asked
within :data:`REQUEST_TIMEOUT` hands ``on_error`` a
:class:`~repro.net.request.RequestFailure`; the message may or may not
have reached the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.gossipsub.router import ValidationResult
from repro.net.request import RequestDispatcher, RequestFailure
from repro.net.transport import Network
from repro.waku.message import WakuMessage, proof_verdict
from repro.waku.relay import WakuRelay

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.pipeline.batch_verifier import BatchVerifier

PROTOCOL = "lightpush"
#: Acknowledgement timeout (simulated seconds).  Generous on purpose: the
#: service node acknowledges only after its SERVICE-class proof check,
#: which queues behind relay verdicts on a busy executor.
REQUEST_TIMEOUT = 5.0


@dataclass(frozen=True)
class PushRequest:
    """A light client asking a service node to publish on its behalf."""

    request_id: int
    message: WakuMessage

    def byte_size(self) -> int:
        return 16 + self.message.byte_size()


@dataclass(frozen=True)
class PushResponse:
    """Acknowledgement (or rejection) of a push request."""

    request_id: int
    accepted: bool
    reason: str = ""

    def byte_size(self) -> int:
        return 24 + len(self.reason)


class LightPushNode:
    """Service-node side: validates and publishes on behalf of clients.

    ``validator`` is the same callable the relay's router uses (for
    WAKU-RLN-RELAY peers, the §III-F pipeline); requests failing it are
    rejected without touching the mesh.
    """

    def __init__(
        self,
        relay: WakuRelay,
        network: Network,
        *,
        validator: Callable[[WakuMessage], ValidationResult] | None = None,
        proof_checker: "BatchVerifier | None" = None,
    ) -> None:
        self.relay = relay
        self.network = network
        self.validator = validator
        #: Shared proof-verdict checker, consulted before ``validator``:
        #: a bundle the relay already judged is rejected (or passed on to
        #: the full decision) without fresh pairing work, and a verdict
        #: first computed here warms the relay pipeline's cache.
        self.proof_checker = proof_checker
        self.served = 0
        self.rejected = 0
        network.register(relay.peer_id, self._on_request, protocol=PROTOCOL)

    def _on_request(self, sender: str, request: PushRequest) -> None:
        if not isinstance(request, PushRequest):
            return
        # The pairing check rides the pipeline's executor at SERVICE
        # priority; the publish + acknowledgement happen at verdict
        # time.  A synchronous executor resolves inline (seed path).
        proof_verdict(self.proof_checker, request.message).subscribe(
            lambda ok: self._serve(sender, request, ok)
        )

    def _serve(self, sender: str, request: PushRequest, proof_ok: bool) -> None:
        reason = ""
        if not proof_ok:
            reason = "validation failed: invalid proof"
        elif self.validator is not None:
            result = self.validator(request.message)
            if result is not ValidationResult.ACCEPT:
                reason = f"validation failed: {result.value}"
        if reason:
            self.rejected += 1
        else:
            self.served += 1
            self.relay.publish(request.message)
        self.network.send(
            self.relay.peer_id,
            sender,
            PushResponse(
                request_id=request.request_id, accepted=not reason, reason=reason
            ),
            protocol=PROTOCOL,
        )


class LightPushClient:
    """Light-client side: push messages through a service node."""

    def __init__(self, peer_id: str, network: Network) -> None:
        self.dispatcher = RequestDispatcher(
            peer_id,
            network,
            network.simulator,
            protocol=PROTOCOL,
            timeout=REQUEST_TIMEOUT,
            rounds=1,  # never retried: a second attempt could publish twice
        )

    def push(
        self,
        service_node: str,
        message: WakuMessage,
        on_response: Callable[[PushResponse], None] | None = None,
        on_error: Callable[[RequestFailure], None] | None = None,
    ) -> None:
        def settled(result: PushResponse | RequestFailure) -> None:
            handler = on_error if isinstance(result, RequestFailure) else on_response
            if handler is not None:
                handler(result)

        self.dispatcher.request(
            (service_node,),
            lambda request_id: PushRequest(request_id=request_id, message=message),
            accept=lambda response: isinstance(response, PushResponse),
        ).subscribe(settled)
