"""The WAKU-RLN-RELAY membership contract (§III-A adjustment 1, §III-B).

The contract state is a *simple ordered list* of identity commitments — not
a Merkle tree.  Insertion and deletion each touch a single storage slot, so
the gas cost is O(1) regardless of group size; peers rebuild the tree
off-chain from the contract's events (§III-C).  Compare
:class:`repro.chain.semaphore_contract.SemaphoreContract`, which keeps the
tree on-chain and pays O(log N) storage writes per change.

Supported operations:

* ``register`` / ``register_batch`` — join the group with a deposit
  (batching amortises the 21k base transaction cost; §IV-A's 40k → 20k).
* ``slash_commit`` / ``slash_reveal`` — the commit-and-reveal slashing of
  §III-F: the slasher first commits to the recovered secret key bound to
  its own address, then opens; front-runners can copy neither round.
* ``withdraw`` — a member exits and reclaims its deposit.  §IV-B notes a
  spammer can escape punishment by withdrawing before being slashed; the
  optional ``withdrawal_delay_blocks`` implements the natural mitigation
  (an exit queue) so the experiment in the tests can measure both settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.blockchain import CallContext, Contract, WEI
from repro.crypto.commitments import Commitment, Opening, verify_opening
from repro.crypto.field import FieldElement
from repro.crypto.identity import derive_commitment
from repro.errors import ContractError, DuplicateRegistration, NotRegistered

#: Default membership deposit (the paper's ``v`` Ether).
DEFAULT_DEPOSIT = 1 * WEI


@dataclass
class MemberSlot:
    """One entry of the ordered commitment list."""

    pk: int  # 0 means the slot is empty (member deleted)
    owner: str
    stake: int
    registered_block: int


@dataclass
class PendingSlash:
    """A commit-round entry waiting for its reveal."""

    slasher: str
    committed_block: int


@dataclass
class PendingWithdrawal:
    """An exit-queue entry (only with withdrawal_delay_blocks > 0)."""

    owner: str
    index: int
    unlock_block: int
    stake: int


class RLNMembershipContract(Contract):
    """Ordered-list membership contract with economic slashing."""

    def __init__(
        self,
        address: str = "rln-membership",
        *,
        deposit: int = DEFAULT_DEPOSIT,
        withdrawal_delay_blocks: int = 0,
    ) -> None:
        super().__init__(address)
        if deposit <= 0:
            raise ContractError("deposit must be positive")
        self.deposit = deposit
        self.withdrawal_delay_blocks = withdrawal_delay_blocks
        #: The ordered list — the *entire* membership state (§III-A).
        self.slots: list[MemberSlot] = []
        self._index_of_pk: dict[int, int] = {}
        self._pending_slashes: dict[bytes, PendingSlash] = {}
        self._pending_withdrawals: list[PendingWithdrawal] = []

    # -- views (free, off-chain reads) ---------------------------------------

    def commitment_list(self) -> list[int]:
        """The ordered commitment list as peers read it when syncing."""
        return [slot.pk for slot in self.slots]

    def member_count(self) -> int:
        return sum(1 for slot in self.slots if slot.pk != 0)

    def is_member(self, pk: FieldElement | int) -> bool:
        return int(pk) in self._index_of_pk

    # -- registration -----------------------------------------------------------

    def call_register(self, ctx: CallContext, *, pk: int) -> int:
        """Append one commitment; requires exactly the deposit as value."""
        index = self._register_one(ctx, pk, ctx.value, batch=False)
        return index

    def call_register_batch(self, ctx: CallContext, *, pks: list[int]) -> list[int]:
        """Append several commitments in one transaction.

        The 21k intrinsic cost is paid once, so per-member gas approaches
        the single SSTORE cost — the §IV-A batching optimisation.
        """
        if not pks:
            raise ContractError("empty batch")
        required = self.deposit * len(pks)
        if ctx.value != required:
            raise ContractError(
                f"batch of {len(pks)} needs value {required}, got {ctx.value}"
            )
        # Validate the whole batch before mutating anything (revert safety).
        seen = set()
        for pk in pks:
            self._validate_pk(pk)
            if pk in seen:
                raise DuplicateRegistration(f"duplicate commitment {pk} in batch")
            seen.add(pk)
        return [
            self._register_one(ctx, pk, self.deposit, batch=True) for pk in pks
        ]

    def _validate_pk(self, pk: int) -> None:
        if not isinstance(pk, int) or pk <= 0:
            raise ContractError("commitment must be a positive integer")
        if pk in self._index_of_pk:
            raise DuplicateRegistration(f"commitment {pk} already registered")

    def _register_one(self, ctx: CallContext, pk: int, stake: int, *, batch: bool) -> int:
        if not batch:
            self._validate_pk(pk)
            if ctx.value != self.deposit:
                raise ContractError(
                    f"registration needs value {self.deposit}, got {ctx.value}"
                )
        ctx.meter.charge_sload()  # duplicate check against the index
        ctx.meter.charge_sstore_set()  # the single list-slot write
        index = len(self.slots)
        self.slots.append(
            MemberSlot(
                pk=pk,
                owner=ctx.sender,
                stake=stake,
                registered_block=ctx.block_number,
            )
        )
        self._index_of_pk[pk] = index
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address,
            "MemberRegistered",
            {"index": index, "pk": pk, "owner": ctx.sender},
        )
        return index

    # -- slashing (commit-and-reveal, §III-F) --------------------------------------

    def call_slash_commit(self, ctx: CallContext, *, digest: bytes) -> None:
        """Round 1: publish a commitment to the recovered secret key."""
        if not isinstance(digest, bytes) or len(digest) != 32:
            raise ContractError("slash commitment must be a 32-byte digest")
        if digest in self._pending_slashes:
            raise ContractError("commitment already submitted")
        ctx.meter.charge_sstore_set()
        self._pending_slashes[digest] = PendingSlash(
            slasher=ctx.sender, committed_block=ctx.block_number
        )
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address, "SlashCommitted", {"digest": digest, "slasher": ctx.sender}
        )

    def call_slash_reveal(
        self, ctx: CallContext, *, sk: int, nonce: bytes
    ) -> dict[str, int]:
        """Round 2: open the commitment, delete the spammer, pay the reward.

        The opening binds the caller's address, so a copied reveal pays the
        original slasher, not the copier.
        """
        sk_element = FieldElement(sk)
        if not sk_element:
            raise ContractError("secret key must be nonzero")
        opening = Opening(
            payload=sk_element.to_bytes(),
            binder=ctx.sender.encode("utf-8"),
            nonce=nonce,
        )
        digest = self._matching_commitment(opening)
        pending = self._pending_slashes[digest]
        if pending.slasher != ctx.sender:
            raise ContractError("only the committing slasher can reveal")
        if pending.committed_block >= ctx.block_number:
            raise ContractError("reveal must come in a later block than the commit")
        ctx.meter.charge_hash()  # pk = H(sk) on-chain
        pk = derive_commitment(sk_element)
        if int(pk) not in self._index_of_pk:
            raise NotRegistered("recovered key does not map to a current member")
        index = self._index_of_pk[int(pk)]
        slot = self.slots[index]
        reward = slot.stake
        # Single-slot deletion: the O(1) cost §III-A is designed around.
        ctx.meter.charge_sstore_clear()
        self._remove_member(ctx, index, cause="slash")
        del self._pending_slashes[digest]
        ctx.chain.contract_pay(self, ctx.sender, reward)
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address,
            "MemberSlashed",
            {"index": index, "pk": int(pk), "slasher": ctx.sender, "reward": reward},
        )
        return {"index": index, "reward": reward}

    def _matching_commitment(self, opening: Opening) -> bytes:
        for digest, _pending in self._pending_slashes.items():
            if verify_opening(Commitment(digest=digest), opening):
                return digest
        raise ContractError("no pending commitment matches this opening")

    # -- withdrawal (§IV-B early-withdrawal escape) -----------------------------------

    def call_withdraw(self, ctx: CallContext, *, pk: int) -> dict[str, int]:
        """Exit the group and reclaim the stake.

        With ``withdrawal_delay_blocks = 0`` this is immediate — the escape
        hatch §IV-B describes.  With a positive delay the member is removed
        now but paid only after the delay, leaving a slashing window.
        """
        if pk not in self._index_of_pk:
            raise NotRegistered(f"commitment {pk} is not a member")
        index = self._index_of_pk[pk]
        slot = self.slots[index]
        if slot.owner != ctx.sender:
            raise ContractError("only the registering account can withdraw")
        ctx.meter.charge_sstore_clear()
        stake = slot.stake
        if self.withdrawal_delay_blocks == 0:
            self._remove_member(ctx, index, cause="withdraw")
            ctx.chain.contract_pay(self, ctx.sender, stake)
            paid_at = ctx.block_number
        else:
            self._remove_member(ctx, index, cause="withdraw")
            paid_at = ctx.block_number + self.withdrawal_delay_blocks
            ctx.meter.charge_sstore_set()
            self._pending_withdrawals.append(
                PendingWithdrawal(
                    owner=ctx.sender, index=index, unlock_block=paid_at, stake=stake
                )
            )
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address,
            "MemberWithdrawn",
            {"index": index, "pk": pk, "owner": ctx.sender},
        )
        return {"index": index, "unlock_block": paid_at}

    def call_claim_withdrawal(self, ctx: CallContext) -> int:
        """Collect matured exit-queue entries (delayed-withdrawal mode)."""
        total = 0
        remaining: list[PendingWithdrawal] = []
        for entry in self._pending_withdrawals:
            if entry.owner == ctx.sender and entry.unlock_block <= ctx.block_number:
                total += entry.stake
            else:
                remaining.append(entry)
        if total == 0:
            raise ContractError("no matured withdrawal to claim")
        self._pending_withdrawals = remaining
        ctx.meter.charge_sstore_clear()
        ctx.chain.contract_pay(self, ctx.sender, total)
        return total

    # -- internals --------------------------------------------------------------------

    def _remove_member(self, ctx: CallContext, index: int, *, cause: str) -> None:
        slot = self.slots[index]
        pk = slot.pk
        del self._index_of_pk[pk]
        # Deletion zeroes the single slot; list order (and hence every other
        # member's tree index) is untouched — the §III-A design point.
        self.slots[index] = MemberSlot(
            pk=0, owner="", stake=0, registered_block=slot.registered_block
        )
        # The *unified* deletion event: slash and withdraw funnel through
        # this one emission, so a single off-chain listener zeroes the leaf
        # regardless of why the member left (the cause-specific events
        # below carry the economics — reward, owner — for observers that
        # care).  This is what the revocation subsystem subscribes to.
        ctx.meter.charge_log()
        ctx.chain.emit(
            self.address,
            "MemberRemoved",
            {"index": index, "pk": pk, "cause": cause},
        )
