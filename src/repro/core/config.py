"""Configuration of a WAKU-RLN-RELAY deployment.

Collects every parameter the paper names: the epoch length ``T`` (§III-D),
the maximum epoch gap ``Thr`` with its defining formula (§III-F), the tree
depth (§IV), the membership deposit ``v`` (§III-B), and reproduction-side
knobs (prover backend, acceptable-root window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.chain.blockchain import WEI
from repro.crypto.merkle import DEFAULT_DEPTH
from repro.errors import MerkleError, ProtocolError
from repro.treesync.forest import resolve_shard_depth


def compute_max_epoch_gap(
    network_delay: float, clock_asynchrony: float, epoch_length: float
) -> int:
    """§III-F: Thr = ceil((NetworkDelay + ClockAsynchrony) / T).

    Measures "the maximum number of epochs that can elapse since a message
    gets routed from its origin to all the other peers in the network".
    Always at least 1: a message published at the very end of an epoch must
    still be routable at the start of the next.
    """
    if epoch_length <= 0:
        raise ProtocolError("epoch length must be positive")
    if network_delay < 0 or clock_asynchrony < 0:
        raise ProtocolError("delays must be non-negative")
    return max(1, math.ceil((network_delay + clock_asynchrony) / epoch_length))


@dataclass(frozen=True)
class RLNConfig:
    """Deployment parameters shared by every peer in one network."""

    #: Epoch length T in seconds (§III-D; 1 s suits chat, more for
    #: validator-style traffic).
    epoch_length: float = 30.0
    #: Maximum accepted gap, in epochs, between a message's epoch and the
    #: routing peer's current epoch (§III-F's Thr).
    max_epoch_gap: int = 1
    #: Identity-commitment tree depth (§IV analyses depth 20).
    tree_depth: int = DEFAULT_DEPTH
    #: Frozen and unread.  Every replica holds the one MerkleTree and the
    #: "sharded forest" is a view of its levels, so both values build the
    #: same deployment bit for bit.  The field stays accepted and validated
    #: only because ``benchmarks/e2e`` passes it; that harness drops it in
    #: a ``benchmark`` PR, which may then delete the field.
    tree_backend: str = "flat"
    #: Depth of one shard subtree (members per shard = 2^shard_depth), the
    #: geometry membership announcements are tagged with.  ``None``
    #: resolves to min(10, tree_depth - 1).
    shard_depth: int | None = None
    #: Membership deposit in wei (the paper's ``v`` Ether).
    deposit: int = 1 * WEI
    #: Proof backend: "native" (fast, statement-equivalent) or "groth16"
    #: (full R1CS pipeline).  See repro.zksnark.prover.
    prover_backend: str = "native"
    #: How many recent tree roots a validator accepts (tolerates peers whose
    #: tree sync lags by a few membership events).
    root_window: int = 5
    #: Unix time corresponding to simulated time zero — anchors epoch
    #: numbering (the paper's example uses UnixTime 1644810116).
    genesis_unix: float = 1_644_810_116.0

    def __post_init__(self) -> None:
        if self.epoch_length <= 0:
            raise ProtocolError("epoch_length must be positive")
        if self.max_epoch_gap < 1:
            raise ProtocolError("max_epoch_gap must be >= 1")
        if not 1 <= self.tree_depth <= 32:
            raise ProtocolError("tree_depth must be in [1, 32]")
        if self.tree_backend not in ("flat", "sharded"):
            raise ProtocolError(
                f"tree_backend must be 'flat' or 'sharded', got {self.tree_backend!r}"
            )
        try:
            resolve_shard_depth(self.tree_depth, self.shard_depth)
        except MerkleError as exc:
            raise ProtocolError(str(exc)) from None
        if self.deposit <= 0:
            raise ProtocolError("deposit must be positive")
        if self.root_window < 1:
            raise ProtocolError("root_window must be >= 1")
