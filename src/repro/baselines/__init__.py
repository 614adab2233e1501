"""Baseline spam defences the paper compares against (§I, experiment E8)."""

from repro.baselines.pow import (
    PoWRelayPeer,
    PoWStamp,
    expected_mint_seconds,
    sample_attempts,
)
from repro.baselines.plain_peer import PlainRelayPeer, SpamClassifier
from repro.baselines.botnet import SPAM_PREFIX, BotArmy, BotArmyStats

__all__ = [
    "PoWRelayPeer",
    "PoWStamp",
    "expected_mint_seconds",
    "sample_attempts",
    "PlainRelayPeer",
    "SpamClassifier",
    "SPAM_PREFIX",
    "BotArmy",
    "BotArmyStats",
]
