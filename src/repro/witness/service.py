"""The server half: resourceful peers answering witness & snapshot queries.

The hybrid architecture of §IV-A gives resourceful peers the full
membership tree and lets light members fetch their Merkle authentication
paths on demand.  :class:`WitnessService` is that role as a
request/response protocol: it owns the ``witness`` channel of one peer,
extracts authentication paths or shard-leaf snapshots from the peer's
group manager, and replies.

Extraction is work over the tree, and on a relay peer it competes
with §III-F validation for the same modeled CPU.  When the service is
given the pipeline's crypto executor it submits every extraction at
:attr:`~repro.exec.executor.Priority.SERVICE` — witness traffic queues
behind relay verdicts (and ahead of background precomputation), so a
witness-request flood cannot starve the mesh the way an invalid-proof
flood once could.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.crypto.field import ZERO
from repro.exec.executor import Priority, SimulatedCryptoExecutor
from repro.net.transport import Network
from repro.telemetry import resolve as resolve_telemetry
from repro.witness.messages import (
    WITNESS_PROTOCOL,
    WITNESS_REPLY_PROTOCOL,
    SnapshotRequest,
    SnapshotResponse,
    WitnessRequest,
    WitnessResponse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.membership import GroupManager


@dataclass
class WitnessServiceStats:
    """Service-side load accounting (experiment E14's server surface)."""

    witness_requests: int = 0
    witnesses_served: int = 0
    witness_misses: int = 0
    snapshot_requests: int = 0
    snapshots_served: int = 0
    snapshot_misses: int = 0

    @property
    def served(self) -> int:
        return self.witnesses_served + self.snapshots_served


class WitnessService:
    """One resourceful peer serving witnesses and snapshots from its tree.

    ``manager`` is the peer's :class:`~repro.core.membership.GroupManager`:
    a full replica, whose ``tree.proof(i)`` is byte for byte the path a
    shard-scoped peer would splice from its shard and top halves.
    """

    def __init__(
        self,
        peer_id: str,
        manager: "GroupManager",
        network: Network,
        *,
        executor: SimulatedCryptoExecutor | None = None,
        priority: Priority = Priority.SERVICE,
        telemetry=None,
    ) -> None:
        self.peer_id = peer_id
        self.manager = manager
        self.network = network
        self.executor = executor
        self.priority = priority
        self.stats = WitnessServiceStats()
        self.telemetry = resolve_telemetry(telemetry)
        #: Distributed tracing (PR 9): traced witness requests get a
        #: "witness-serve" span linked into the requester's trace.
        self.disttracer = self.telemetry.disttracer(peer_id)
        stats, registry = self.stats, self.telemetry.registry
        bind = partial(registry.bind, peer=peer_id)
        self._moved = registry.marker(  # called where a request is answered
            bind("witness_served_total", lambda: stats.witnesses_served, kind="witness"),
            bind("witness_served_total", lambda: stats.snapshots_served, kind="snapshot"),
            bind("witness_service_misses_total", lambda: stats.witness_misses, kind="witness"),
            bind("witness_service_misses_total", lambda: stats.snapshot_misses, kind="snapshot"),
        )
        network.register(peer_id, self._on_request, protocol=WITNESS_PROTOCOL)

    # -- request handling ----------------------------------------------------

    def _on_request(self, sender: str, request: object) -> None:
        if isinstance(request, WitnessRequest):
            self._submit(lambda: self._build_witness(request), sender, request.trace)
        elif isinstance(request, SnapshotRequest):
            self._submit(lambda: self._build_snapshot(request), sender)

    def _submit(
        self, work: Callable[[], object], sender: str, trace=None
    ) -> None:
        """Run the extraction through the executor's SERVICE lane.

        With no executor (a dedicated, non-relaying witness server) the
        work runs inline; with the pipeline's executor it queues behind
        relay verdicts, and the response is sent at (simulated) completion.
        The serve span (traced requests only) covers arrival → response
        dispatch, so executor queueing shows up as serve latency.
        """
        arrival = self.disttracer.clock() if trace is not None else 0.0

        def deliver(response: object) -> None:
            if trace is not None:
                self.disttracer.link(
                    trace,
                    kind="witness-serve",
                    start=arrival,
                    end=self.disttracer.clock(),
                )
            self.network.send(
                self.peer_id, sender, response, protocol=WITNESS_REPLY_PROTOCOL
            )

        if self.executor is None:
            deliver(work())
        else:
            self.executor.submit(work, deliver, priority=self.priority)

    # -- extraction ------------------------------------------------------------

    def _build_witness(self, request: WitnessRequest) -> WitnessResponse:
        self.stats.witness_requests += 1
        self._moved()  # served or missed, below
        tree = self.manager.tree
        if not 0 <= request.index < tree.leaf_count:
            self.stats.witness_misses += 1
            return WitnessResponse(request_id=request.request_id, found=False)
        proof = tree.proof(request.index)
        self.stats.witnesses_served += 1
        return WitnessResponse(
            request_id=request.request_id,
            found=True,
            seq=self.manager.event_seq,
            proof=proof,
        )

    def _build_snapshot(self, request: SnapshotRequest) -> SnapshotResponse:
        self.stats.snapshot_requests += 1
        self._moved()  # served or missed, below
        tree = self.manager.tree
        shard_depth = self.manager.shard_depth
        num_shards = 1 << (tree.depth - shard_depth)
        # A depth-1 tree has no shard geometry (shard_depth 0), and this
        # runs inside a network handler: a request it cannot serve is a
        # miss answered on the wire, never an exception into the simulator.
        if shard_depth < 1 or not 0 <= request.shard_id < num_shards:
            self.stats.snapshot_misses += 1
            return SnapshotResponse(request_id=request.request_id, found=False)
        capacity = 1 << shard_depth
        start = request.shard_id * capacity
        end = min(tree.leaf_count, start + capacity)
        leaves = tuple(
            (index - start, leaf)
            for index in range(start, end)
            if (leaf := tree.leaf(index)) != ZERO
        )
        self.stats.snapshots_served += 1
        return SnapshotResponse(
            request_id=request.request_id,
            found=True,
            shard_id=request.shard_id,
            shard_depth=shard_depth,
            seq=self.manager.event_seq,
            leaves=leaves,
        )
