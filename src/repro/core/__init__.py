"""The paper's contribution: the WAKU-RLN-RELAY protocol (§III)."""

from repro.core.config import RLNConfig, compute_max_epoch_gap
from repro.core.deployment import RLNDeployment
from repro.core.epoch import epoch_gap, external_nullifier
from repro.core.membership import GroupManager
from repro.core.messages import RateLimitProof
from repro.core.nullifier_log import (
    NullifierLog,
    NullifierOutcome,
    NullifierRecord,
    SpamEvidence,
)
from repro.core.protocol import DEFAULT_CONTENT_TOPIC, PeerProtocolStats, WakuRLNRelayPeer
from repro.core.slashing import SlashAttempt, Slasher, SlashState, recover_spammer_key
from repro.core.validator import BundleValidator, ValidationOutcome, ValidatorStats

__all__ = [
    "RLNConfig",
    "compute_max_epoch_gap",
    "RLNDeployment",
    "epoch_gap",
    "external_nullifier",
    "GroupManager",
    "RateLimitProof",
    "NullifierLog",
    "NullifierOutcome",
    "NullifierRecord",
    "SpamEvidence",
    "DEFAULT_CONTENT_TOPIC",
    "PeerProtocolStats",
    "WakuRLNRelayPeer",
    "SlashAttempt",
    "Slasher",
    "SlashState",
    "recover_spammer_key",
    "BundleValidator",
    "ValidationOutcome",
    "ValidatorStats",
]
