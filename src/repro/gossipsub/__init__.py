"""GossipSub substrate: router, mesh, gossip, message table, peer scoring."""

from repro.gossipsub.messages import (
    Graft,
    IDontWant,
    IHave,
    IWant,
    PubSubMessage,
    Prune,
    RPC,
    Subscribe,
)
from repro.gossipsub.router import (
    GossipSubParams,
    GossipSubRouter,
    RouterStats,
    ValidationResult,
    Validator,
)
from repro.gossipsub.scoring import PeerScoreKeeper, ScoreParams

__all__ = [
    "Graft",
    "IDontWant",
    "IHave",
    "IWant",
    "PubSubMessage",
    "Prune",
    "RPC",
    "Subscribe",
    "GossipSubParams",
    "GossipSubRouter",
    "RouterStats",
    "ValidationResult",
    "Validator",
    "PeerScoreKeeper",
    "ScoreParams",
]
