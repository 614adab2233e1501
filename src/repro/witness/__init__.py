"""Shard-aware witness & snapshot service: light members without trees.

The third leg of the hybrid architecture (§IV-A).  Resourceful peers run
a :class:`~repro.witness.service.WitnessService` answering wire-encoded
witness and shard-snapshot queries from their forest; light peers run a
:class:`~repro.witness.client.WitnessClient` that fetches with
timeout/retry/failover, verifies every response against its own
accepted-root window (never trusting the server), and keeps a
background-refreshed cache so publishing is O(1).
:class:`~repro.witness.member.LightMember` composes the client with the
§III-E publish flow — a registered member that never holds a tree.  See
``README.md``'s witness-subsystem section for the request flow and trust
model.
"""

from repro.witness.client import (
    WitnessCache,
    WitnessCacheStats,
    WitnessClient,
)
from repro.witness.member import LightMember
from repro.witness.messages import (
    WITNESS_PROTOCOL,
    WITNESS_REPLY_PROTOCOL,
    SnapshotRequest,
    SnapshotResponse,
    WitnessRequest,
    WitnessResponse,
)
from repro.witness.service import WitnessService, WitnessServiceStats

__all__ = [
    "LightMember",
    "SnapshotRequest",
    "SnapshotResponse",
    "WITNESS_PROTOCOL",
    "WITNESS_REPLY_PROTOCOL",
    "WitnessCache",
    "WitnessCacheStats",
    "WitnessClient",
    "WitnessRequest",
    "WitnessResponse",
    "WitnessService",
    "WitnessServiceStats",
]
