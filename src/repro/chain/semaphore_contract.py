"""Baseline: the original Semaphore-style contract (§II-A, §III-A).

This is the design WAKU-RLN-RELAY deliberately moves away from, implemented
so experiments E6/E7 can measure the difference:

* the **identity-commitment Merkle tree lives on-chain** — every insertion
  or deletion rewrites one node per tree level (O(log N) SSTOREs), which is
  the "significant computational cost / gas consumption" of §III-A;
* **signals (messages) are stored on-chain** — a signal is visible only
  after the block containing it is mined, the propagation-latency problem
  §III-A's second adjustment removes;
* double-signalling is detected by an **on-chain nullifier registry**.

The tree logic reuses :class:`repro.crypto.merkle.MerkleTree`; the contract
meters every node write through the gas schedule, so the O(log N)-vs-O(1)
comparison with :class:`repro.chain.rln_contract.RLNMembershipContract`
emerges from real storage-touch counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chain.blockchain import CallContext, Contract, WEI
from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleTree
from repro.errors import ContractError, DuplicateRegistration, NotRegistered

DEFAULT_DEPOSIT = 1 * WEI


@dataclass
class StoredSignal:
    """One on-chain signal record (message plus RLN metadata)."""

    payload: bytes
    external_nullifier: int
    internal_nullifier: int
    share_x: int
    share_y: int
    block_number: int
    timestamp: float


class SemaphoreContract(Contract):
    """On-chain-tree, on-chain-message baseline."""

    def __init__(
        self,
        address: str = "semaphore",
        *,
        tree_depth: int = 20,
        deposit: int = DEFAULT_DEPOSIT,
    ) -> None:
        super().__init__(address)
        self.deposit = deposit
        self.tree = MerkleTree(depth=tree_depth)
        self._owner_of_index: dict[int, str] = {}
        self._stake_of_index: dict[int, int] = {}
        #: On-chain signal store, keyed by (external, internal) nullifier.
        self.signals: dict[tuple[int, int], StoredSignal] = {}
        self.signal_log: list[StoredSignal] = []

    # -- membership ----------------------------------------------------------

    def call_register(self, ctx: CallContext, *, pk: int) -> int:
        """Insert a commitment into the on-chain tree: O(depth) SSTOREs."""
        if ctx.value != self.deposit:
            raise ContractError(
                f"registration needs value {self.deposit}, got {ctx.value}"
            )
        leaf = FieldElement(pk)
        if not leaf:
            raise ContractError("commitment must be nonzero")
        try:
            self.tree.find(leaf)
        except Exception:
            pass
        else:
            raise DuplicateRegistration(f"commitment {pk} already registered")
        ctx.meter.charge_sload()
        index = self.tree.insert(leaf)
        self._charge_path_writes(ctx, fresh=True)
        self._owner_of_index[index] = ctx.sender
        self._stake_of_index[index] = ctx.value
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address,
            "MemberRegistered",
            {"index": index, "pk": pk, "owner": ctx.sender, "root": int(self.tree.root)},
        )
        return index

    def call_remove(self, ctx: CallContext, *, index: int) -> None:
        """Delete a member: again O(depth) SSTOREs, and — the batching
        asymmetry §III-A points out — deletions hit *random* leaves, so
        unlike insertions they cannot be amortised."""
        owner = self._owner_of_index.get(index)
        if owner is None:
            raise NotRegistered(f"no member at index {index}")
        if owner != ctx.sender:
            raise ContractError("only the registering account can remove")
        pk = int(self.tree.leaf(index))
        self.tree.delete(index)
        self._charge_path_writes(ctx, fresh=False)
        stake = self._stake_of_index.pop(index)
        del self._owner_of_index[index]
        ctx.chain.contract_pay(self, ctx.sender, stake)
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address,
            "MemberRemoved",
            {"index": index, "pk": pk, "root": int(self.tree.root)},
        )

    def _charge_path_writes(self, ctx: CallContext, *, fresh: bool) -> None:
        """Charge one storage write per affected tree node (leaf to root)."""
        for level in range(self.tree.depth + 1):
            ctx.meter.charge_hash()
            if fresh and level == 0:
                ctx.meter.charge_sstore_set()
            else:
                ctx.meter.charge_sstore_update()

    # -- signalling (on-chain message store) --------------------------------------

    def call_signal(
        self,
        ctx: CallContext,
        *,
        payload: bytes,
        external_nullifier: int,
        internal_nullifier: int,
        share_x: int,
        share_y: int,
    ) -> dict[str, Any]:
        """Publish a signal into contract storage.

        The proof itself is assumed checked by the verifier precompile (the
        gas for it is charged flatly); what this baseline measures is the
        *storage* and *latency* cost of on-chain messaging.
        """
        key = (external_nullifier, internal_nullifier)
        ctx.meter.charge_sload()
        if key in self.signals:
            existing = self.signals[key]
            if (existing.share_x, existing.share_y) != (share_x, share_y):
                ctx.meter.charge_log()
                ctx.chain.emit(
                    self.address,
                    "DoubleSignal",
                    {
                        "external_nullifier": external_nullifier,
                        "internal_nullifier": internal_nullifier,
                    },
                )
                return {"accepted": False, "double_signal": True}
            raise ContractError("duplicate signal")
        # One slot per 32-byte word of payload plus the metadata slots.
        words = max(1, (len(payload) + 31) // 32)
        for _ in range(words + 4):
            ctx.meter.charge_sstore_set()
        record = StoredSignal(
            payload=payload,
            external_nullifier=external_nullifier,
            internal_nullifier=internal_nullifier,
            share_x=share_x,
            share_y=share_y,
            block_number=ctx.block_number,
            timestamp=ctx.timestamp,
        )
        self.signals[key] = record
        self.signal_log.append(record)
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address,
            "SignalStored",
            {"internal_nullifier": internal_nullifier, "block": ctx.block_number},
        )
        return {"accepted": True, "double_signal": False}

    # -- views ------------------------------------------------------------------------

    def signals_since(self, block_number: int) -> list[StoredSignal]:
        """Signals mined at or after ``block_number`` (a reader's poll)."""
        return [s for s in self.signal_log if s.block_number >= block_number]
