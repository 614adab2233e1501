"""In-process Ethereum-like blockchain simulator.

The membership contract of §III-B needs a substrate with the properties the
paper reasons about: transactions wait in a mempool until a block is mined
(registration and slashing latency, §IV-A), execution is metered in gas
(§IV-A's 40k-gas membership cost), value is held in accounts, and contracts
emit events that off-chain peers subscribe to (the tree-sync mechanism of
§III-C).  This module provides exactly that — no consensus, one canonical
chain, deterministic execution.

Time is externally driven: callers advance the chain clock (the discrete-
event simulator does this in network experiments; tests call
:meth:`Blockchain.mine_block` directly).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.chain.gas import GasMeter, intrinsic_gas
from repro.errors import ChainError, ContractError, InsufficientFunds, OutOfGas

#: Wei per simulated Ether.
WEI = 10**18

#: Default block interval in (simulated) seconds — Ethereum mainnet post-merge.
DEFAULT_BLOCK_INTERVAL = 12.0

#: Default per-transaction gas limit.
DEFAULT_GAS_LIMIT = 1_000_000

#: Account credited with gas fees (keeps total value conserved).
COINBASE = "coinbase"


@dataclass(frozen=True)
class Event:
    """A contract event, addressed by contract and name."""

    contract: str
    name: str
    data: dict[str, Any]
    block_number: int
    timestamp: float


@dataclass(frozen=True)
class Receipt:
    """Execution result of one mined transaction."""

    tx_id: int
    success: bool
    gas_used: int
    block_number: int
    timestamp: float
    return_value: Any = None
    error: str | None = None


@dataclass
class Transaction:
    """A pending contract call."""

    tx_id: int
    sender: str
    contract: str
    method: str
    args: dict[str, Any]
    value: int = 0
    gas_limit: int = DEFAULT_GAS_LIMIT
    gas_price: int = 1  # wei per gas
    calldata_size_hint: bytes = b""

    def intrinsic_gas(self) -> int:
        return intrinsic_gas(self.calldata_size_hint, transfers_value=self.value > 0)


@dataclass
class CallContext:
    """Everything a contract method sees about the call environment."""

    sender: str
    value: int
    meter: GasMeter
    block_number: int
    timestamp: float
    chain: "Blockchain"


class Contract:
    """Base class for simulated contracts.

    Subclasses expose callable methods named ``call_<method>`` taking
    ``(ctx, **args)``.  State mutations must charge ``ctx.meter``.  Raising
    :class:`ContractError` reverts the transaction (state snapshots are the
    subclass's concern; the built-in contracts are written so failed calls
    do not mutate state before validation completes).
    """

    def __init__(self, address: str) -> None:
        self.address = address
        self.balance = 0  # wei held by the contract

    def dispatch(self, ctx: CallContext, method: str, args: dict[str, Any]) -> Any:
        handler: Callable[..., Any] | None = getattr(self, f"call_{method}", None)
        if handler is None:
            raise ContractError(f"{self.address}: unknown method {method!r}")
        return handler(ctx, **args)


class Blockchain:
    """The chain: accounts, mempool, blocks, contracts, event log.

    >>> chain = Blockchain()
    >>> chain.fund("alice", 10 * WEI)
    >>> chain.balance_of("alice") == 10 * WEI
    True
    """

    def __init__(self, block_interval: float = DEFAULT_BLOCK_INTERVAL) -> None:
        if block_interval <= 0:
            raise ChainError("block interval must be positive")
        self.block_interval = block_interval
        self.time = 0.0
        self.block_number = 0
        self._next_block_at = block_interval
        self._balances: dict[str, int] = {COINBASE: 0}
        self._contracts: dict[str, Contract] = {}
        self._mempool: list[Transaction] = []
        self._receipts: dict[int, Receipt] = {}
        self._events: list[Event] = []
        self._tx_ids = itertools.count(1)
        self._subscribers: list[Callable[[Event], None]] = []

    # -- accounts -------------------------------------------------------------

    def fund(self, account: str, wei: int) -> None:
        """Mint ``wei`` into an account (test/genesis helper)."""
        if wei < 0:
            raise ChainError("cannot fund a negative amount")
        self._balances[account] = self._balances.get(account, 0) + wei

    def balance_of(self, account: str) -> int:
        if account in self._contracts:
            return self._contracts[account].balance
        return self._balances.get(account, 0)

    def total_supply(self) -> int:
        """Sum of all account and contract balances (conservation invariant)."""
        return sum(self._balances.values()) + sum(
            c.balance for c in self._contracts.values()
        )

    # -- contracts ----------------------------------------------------------------

    def deploy(self, contract: Contract) -> Contract:
        if contract.address in self._contracts or contract.address in self._balances:
            raise ChainError(f"address {contract.address!r} already in use")
        self._contracts[contract.address] = contract
        return contract

    def contract(self, address: str) -> Contract:
        try:
            return self._contracts[address]
        except KeyError:
            raise ChainError(f"no contract at {address!r}") from None

    # -- events ----------------------------------------------------------------------

    def emit(self, contract: str, name: str, data: dict[str, Any]) -> None:
        """Called by contracts during execution to log an event."""
        event = Event(
            contract=contract,
            name=name,
            data=dict(data),
            block_number=self.block_number + 1,  # event lands in the next block
            timestamp=self.time,
        )
        self._events.append(event)
        for subscriber in list(self._subscribers):
            subscriber(event)

    def subscribe(self, callback: Callable[[Event], None]) -> Callable[[], None]:
        """Register an event callback; returns an unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    def events(self, *, contract: str | None = None, name: str | None = None) -> list[Event]:
        """Query the historical event log."""
        return [
            e
            for e in self._events
            if (contract is None or e.contract == contract)
            and (name is None or e.name == name)
        ]

    # -- transactions -----------------------------------------------------------------

    def send_transaction(
        self,
        sender: str,
        contract: str,
        method: str,
        args: dict[str, Any] | None = None,
        *,
        value: int = 0,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        gas_price: int = 1,
        calldata: bytes = b"",
    ) -> int:
        """Queue a contract call; returns the transaction id.

        The call executes when the next block is mined — the mempool delay
        the paper's §IV-A identifies as a registration-latency problem.
        """
        if contract not in self._contracts:
            raise ChainError(f"no contract at {contract!r}")
        if value < 0:
            raise ChainError("value must be non-negative")
        tx = Transaction(
            tx_id=next(self._tx_ids),
            sender=sender,
            contract=contract,
            method=method,
            args=dict(args or {}),
            value=value,
            gas_limit=gas_limit,
            gas_price=gas_price,
            calldata_size_hint=calldata,
        )
        self._mempool.append(tx)
        return tx.tx_id

    def receipt(self, tx_id: int) -> Receipt | None:
        """Receipt of a mined transaction, or None while still pending."""
        return self._receipts.get(tx_id)

    # -- mining -------------------------------------------------------------------------

    def advance_time(self, now: float) -> list[Receipt]:
        """Move the chain clock forward, mining every due block."""
        if now < self.time:
            raise ChainError("time cannot move backwards")
        receipts: list[Receipt] = []
        while self._next_block_at <= now:
            self.time = self._next_block_at
            receipts.extend(self.mine_block())
            self._next_block_at += self.block_interval
        self.time = now
        return receipts

    def mine_block(self) -> list[Receipt]:
        """Mine one block: execute every pending transaction in order."""
        self.block_number += 1
        receipts = []
        pending, self._mempool = self._mempool, []
        for tx in pending:
            receipts.append(self._execute(tx))
        return receipts

    def _execute(self, tx: Transaction) -> Receipt:
        contract = self._contracts[tx.contract]
        meter = GasMeter(limit=tx.gas_limit)
        sender_balance = self._balances.get(tx.sender, 0)
        receipt: Receipt
        try:
            meter.charge(tx.intrinsic_gas(), "intrinsic")
            max_fee = tx.gas_limit * tx.gas_price
            if sender_balance < tx.value + max_fee:
                raise InsufficientFunds(
                    f"{tx.sender} holds {sender_balance} wei < value {tx.value} "
                    f"+ max fee {max_fee}"
                )
            # Optimistically transfer the value; revert on failure below.
            self._balances[tx.sender] = sender_balance - tx.value
            contract.balance += tx.value
            ctx = CallContext(
                sender=tx.sender,
                value=tx.value,
                meter=meter,
                block_number=self.block_number,
                timestamp=self.time,
                chain=self,
            )
            try:
                result = contract.dispatch(ctx, tx.method, tx.args)
            except (ContractError, OutOfGas):
                # Revert the value transfer.
                contract.balance -= tx.value
                self._balances[tx.sender] = self._balances.get(tx.sender, 0) + tx.value
                raise
            receipt = Receipt(
                tx_id=tx.tx_id,
                success=True,
                gas_used=meter.effective_used(),
                block_number=self.block_number,
                timestamp=self.time,
                return_value=result,
            )
        except (ChainError, OutOfGas) as exc:
            receipt = Receipt(
                tx_id=tx.tx_id,
                success=False,
                gas_used=min(meter.used, tx.gas_limit),
                block_number=self.block_number,
                timestamp=self.time,
                error=str(exc),
            )
        # Gas is billed whether or not execution succeeded.
        fee = receipt.gas_used * tx.gas_price
        payer_balance = self._balances.get(tx.sender, 0)
        fee = min(fee, payer_balance)
        self._balances[tx.sender] = payer_balance - fee
        self._balances[COINBASE] += fee
        self._receipts[tx.tx_id] = receipt
        return receipt

    # -- value transfers initiated by contracts ------------------------------------

    def contract_pay(self, contract: Contract, recipient: str, wei: int) -> None:
        """Move value from a contract's balance to an externally owned account."""
        if wei < 0:
            raise ChainError("cannot pay a negative amount")
        if contract.balance < wei:
            raise ContractError(
                f"{contract.address} holds {contract.balance} wei < {wei}"
            )
        contract.balance -= wei
        self._balances[recipient] = self._balances.get(recipient, 0) + wei
