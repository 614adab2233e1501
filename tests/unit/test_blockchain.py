"""Unit tests for the blockchain simulator."""

import pytest

from repro.chain.blockchain import (
    BLOCK_END,
    Blockchain,
    CallContext,
    COINBASE,
    Contract,
    WEI,
)
from repro.errors import ChainError, ContractError


class Counter(Contract):
    """Toy contract used to exercise the execution engine."""

    def __init__(self) -> None:
        super().__init__("counter")
        self.value = 0

    def call_increment(self, ctx: CallContext, *, by: int = 1) -> int:
        ctx.meter.charge_sstore_update()
        self.value += by
        ctx.chain.emit(self.address, "Incremented", {"value": self.value})
        return self.value

    def call_fail(self, ctx: CallContext) -> None:
        self.balance += 0  # no-op before reverting
        raise ContractError("always fails")

    def call_burn_gas(self, ctx: CallContext) -> None:
        ctx.meter.charge(10_000_000, "burn")


@pytest.fixture()
def counter():
    return Counter()


@pytest.fixture()
def chain(counter):
    chain = Blockchain(block_interval=12.0)
    chain.deploy(counter)
    chain.fund("alice", 10 * WEI)
    return chain


class TestAccounts:
    def test_fund_and_balance(self, chain):
        assert chain.balance_of("alice") == 10 * WEI

    def test_unknown_account_is_zero(self, chain):
        assert chain.balance_of("nobody") == 0

    def test_negative_fund_rejected(self, chain):
        with pytest.raises(ChainError):
            chain.fund("alice", -1)

    def test_total_supply_counts_contracts(self, chain):
        supply = chain.total_supply()
        chain.send_transaction("alice", "counter", "increment", value=1 * WEI)
        chain.mine_block()
        assert chain.total_supply() == supply  # value moved, not destroyed


class TestDeployment:
    def test_duplicate_address_rejected(self, chain):
        with pytest.raises(ChainError):
            chain.deploy(Counter())

    def test_contract_lookup(self, chain, counter):
        # A call addressed to "counter" runs on the deployed object.
        chain.send_transaction("alice", "counter", "increment")
        chain.mine_block()
        assert counter.address == "counter" and counter.value == 1
        with pytest.raises(ChainError):
            chain.send_transaction("alice", "missing", "increment")


class TestTransactions:
    def test_pending_until_mined(self, chain, counter):
        tx = chain.send_transaction("alice", "counter", "increment")
        assert len(chain._mempool) == 1
        assert chain.receipt(tx) is None
        chain.mine_block()
        receipt = chain.receipt(tx)
        assert receipt is not None and receipt.success
        assert counter.value == 1

    def test_unknown_contract_rejected_immediately(self, chain):
        with pytest.raises(ChainError):
            chain.send_transaction("alice", "nope", "x")

    def test_unknown_method_reverts(self, chain):
        tx = chain.send_transaction("alice", "counter", "nonexistent")
        chain.mine_block()
        receipt = chain.receipt(tx)
        assert not receipt.success and "unknown method" in receipt.error

    def test_revert_restores_value(self, chain, counter):
        before = chain.balance_of("alice")
        tx = chain.send_transaction("alice", "counter", "fail", value=2 * WEI)
        chain.mine_block()
        receipt = chain.receipt(tx)
        assert not receipt.success
        # Value returned; only gas was lost.
        lost = before - chain.balance_of("alice")
        assert lost == receipt.gas_used  # gas_price = 1 wei
        assert counter.balance == 0

    def test_insufficient_funds_fails(self, chain):
        tx = chain.send_transaction("alice", "counter", "increment", value=100 * WEI)
        chain.mine_block()
        assert not chain.receipt(tx).success

    def test_out_of_gas_fails_but_bills(self, chain):
        before = chain.balance_of("alice")
        tx = chain.send_transaction("alice", "counter", "burn_gas", gas_limit=50_000)
        chain.mine_block()
        receipt = chain.receipt(tx)
        assert not receipt.success
        assert chain.balance_of("alice") < before

    def test_gas_fees_go_to_coinbase(self, chain):
        chain.send_transaction("alice", "counter", "increment")
        chain.mine_block()
        assert chain.balance_of(COINBASE) > 0

    def test_execution_order_within_block(self, chain, counter):
        chain.send_transaction("alice", "counter", "increment", {"by": 1})
        chain.send_transaction("alice", "counter", "increment", {"by": 10})
        chain.mine_block()
        assert counter.value == 11


class TestMining:
    def test_advance_time_mines_due_blocks(self, chain):
        chain.send_transaction("alice", "counter", "increment")
        receipts = chain.advance_time(25.0)
        assert chain.block_number == 2
        assert len(receipts) == 1

    def test_time_cannot_reverse(self, chain):
        chain.advance_time(20.0)
        with pytest.raises(ChainError):
            chain.advance_time(10.0)

    def test_block_interval_validated(self):
        with pytest.raises(ChainError):
            Blockchain(block_interval=0)

    def test_tx_sent_after_block_waits_for_next(self, chain):
        chain.advance_time(12.0)  # block 1 mined
        tx = chain.send_transaction("alice", "counter", "increment")
        assert chain.receipt(tx) is None
        chain.advance_time(24.0)
        assert chain.receipt(tx).success


class TestEvents:
    def test_emitted_and_queryable(self, chain):
        chain.send_transaction("alice", "counter", "increment")
        chain.mine_block()
        events = chain.events(contract="counter", name="Incremented")
        assert len(events) == 1
        assert events[0].data["value"] == 1

    def test_subscription_and_unsubscribe(self, chain):
        seen = []
        unsubscribe = chain.subscribe(seen.append)
        chain.send_transaction("alice", "counter", "increment")
        chain.send_transaction("alice", "counter", "increment")
        chain.mine_block()
        # Each event in order, then the block's one end marker.
        assert [(e.contract, e.name) for e in seen] == [
            ("counter", "Incremented"),
            ("counter", "Incremented"),
            (BLOCK_END, "BlockEnd"),
        ]
        chain.mine_block()  # a block that emits nothing sends no marker
        assert len(seen) == 3
        unsubscribe()
        chain.send_transaction("alice", "counter", "increment")
        chain.mine_block()
        assert len(seen) == 3

    def test_filter_by_name(self, chain):
        chain.send_transaction("alice", "counter", "increment")
        chain.mine_block()
        assert chain.events(name="Missing") == []


class TestContractPay:
    def test_pay_moves_value(self, chain, counter):
        chain.send_transaction("alice", "counter", "increment", value=3 * WEI)
        chain.mine_block()
        chain.contract_pay(counter, "bob", 1 * WEI)
        assert chain.balance_of("bob") == 1 * WEI
        assert counter.balance == 2 * WEI

    def test_overdraw_rejected(self, chain, counter):
        with pytest.raises(ContractError):
            chain.contract_pay(counter, "bob", 1)
