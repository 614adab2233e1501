"""Unit tests for the RLN membership contract (ordered list, §III-A/B/F)."""

import pytest

from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.crypto.commitments import commit
from repro.crypto.identity import Identity


@pytest.fixture()
def env():
    chain = Blockchain(block_interval=12.0)
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    for account in ("alice", "bob", "carol", "slasher"):
        chain.fund(account, 50 * WEI)
    return chain, contract


def register(chain, contract, account, identity):
    tx = chain.send_transaction(
        account,
        contract.address,
        "register",
        {"pk": identity.pk.value},
        value=contract.deposit,
        calldata=identity.pk.to_bytes(),
    )
    chain.mine_block()
    return chain.receipt(tx)


def slash(chain, contract, slasher_account, sk):
    commitment, opening = commit(sk.to_bytes(), slasher_account.encode("utf-8"))
    chain.send_transaction(
        slasher_account, contract.address, "slash_commit", {"digest": commitment.digest}
    )
    chain.mine_block()
    tx = chain.send_transaction(
        slasher_account,
        contract.address,
        "slash_reveal",
        {"sk": sk.value, "nonce": opening.nonce},
    )
    chain.mine_block()
    return chain.receipt(tx)


class TestRegistration:
    def test_register_appends_to_list(self, env):
        chain, contract = env
        identity = Identity.from_secret(1)
        receipt = register(chain, contract, "alice", identity)
        assert receipt.success
        assert contract.commitment_list() == [identity.pk.value]
        assert contract.is_member(identity.pk)
        assert contract.commitment_list().index(identity.pk.value) == 0

    def test_registration_event(self, env):
        chain, contract = env
        identity = Identity.from_secret(2)
        register(chain, contract, "alice", identity)
        events = chain.events(contract=contract.address, name="MemberRegistered")
        assert events[0].data == {"index": 0, "pk": identity.pk.value, "owner": "alice"}

    def test_wrong_deposit_reverts(self, env):
        chain, contract = env
        identity = Identity.from_secret(3)
        tx = chain.send_transaction(
            "alice", contract.address, "register", {"pk": identity.pk.value}, value=2 * WEI
        )
        chain.mine_block()
        assert not chain.receipt(tx).success
        assert not contract.is_member(identity.pk)

    def test_duplicate_rejected(self, env):
        chain, contract = env
        identity = Identity.from_secret(4)
        register(chain, contract, "alice", identity)
        receipt = register(chain, contract, "bob", identity)
        assert not receipt.success
        assert contract.member_count() == 1

    def test_gas_cost_near_40k(self, env):
        # §IV-A: membership ≈ 40k gas.
        chain, contract = env
        receipt = register(chain, contract, "alice", Identity.from_secret(5))
        assert 35_000 <= receipt.gas_used <= 55_000

    def test_deposit_held_by_contract(self, env):
        chain, contract = env
        register(chain, contract, "alice", Identity.from_secret(6))
        assert contract.balance == 1 * WEI


class TestBatchRegistration:
    def test_batch_amortises_base_cost(self, env):
        chain, contract = env
        single = register(chain, contract, "alice", Identity.from_secret(10))
        pks = [Identity.from_secret(100 + i).pk.value for i in range(16)]
        tx = chain.send_transaction(
            "bob",
            contract.address,
            "register_batch",
            {"pks": pks},
            value=16 * contract.deposit,
            calldata=b"\x11" * 32 * 16,
        )
        chain.mine_block()
        receipt = chain.receipt(tx)
        assert receipt.success
        per_member = receipt.gas_used / 16
        # §IV-A: batching brings ~40k down towards ~20k per member.
        assert per_member < single.gas_used * 0.75

    def test_batch_value_checked(self, env):
        chain, contract = env
        tx = chain.send_transaction(
            "alice",
            contract.address,
            "register_batch",
            {"pks": [Identity.from_secret(7).pk.value]},
            value=0,
        )
        chain.mine_block()
        assert not chain.receipt(tx).success

    def test_batch_duplicate_inside_batch_reverts_whole_batch(self, env):
        chain, contract = env
        pk = Identity.from_secret(8).pk.value
        tx = chain.send_transaction(
            "alice",
            contract.address,
            "register_batch",
            {"pks": [pk, pk]},
            value=2 * contract.deposit,
        )
        chain.mine_block()
        assert not chain.receipt(tx).success
        assert contract.member_count() == 0

    def test_empty_batch_rejected(self, env):
        chain, contract = env
        tx = chain.send_transaction(
            "alice", contract.address, "register_batch", {"pks": []}, value=0
        )
        chain.mine_block()
        assert not chain.receipt(tx).success


class TestSlashing:
    def test_full_commit_reveal_flow(self, env):
        chain, contract = env
        spammer = Identity.from_secret(0xBAD)
        register(chain, contract, "alice", spammer)
        slasher_before = chain.balance_of("slasher")
        receipt = slash(chain, contract, "slasher", spammer.sk)
        assert receipt.success
        assert receipt.return_value["reward"] == 1 * WEI
        assert not contract.is_member(spammer.pk)
        # Deposit moved to the slasher (minus the gas they paid).
        gained = chain.balance_of("slasher") - slasher_before
        assert 0 < gained <= 1 * WEI
        # The slot is zeroed but list length retained.
        assert contract.commitment_list() == [0]

    def test_reveal_without_commit_fails(self, env):
        chain, contract = env
        spammer = Identity.from_secret(0xBAD)
        register(chain, contract, "alice", spammer)
        tx = chain.send_transaction(
            "slasher",
            contract.address,
            "slash_reveal",
            {"sk": spammer.sk.value, "nonce": b"n" * 32},
        )
        chain.mine_block()
        assert not chain.receipt(tx).success

    def test_reveal_same_block_as_commit_fails(self, env):
        chain, contract = env
        spammer = Identity.from_secret(0xBAD)
        register(chain, contract, "alice", spammer)
        commitment, opening = commit(spammer.sk.to_bytes(), b"slasher")
        chain.send_transaction(
            "slasher", contract.address, "slash_commit", {"digest": commitment.digest}
        )
        tx = chain.send_transaction(
            "slasher",
            contract.address,
            "slash_reveal",
            {"sk": spammer.sk.value, "nonce": opening.nonce},
        )
        chain.mine_block()  # both in one block
        assert not chain.receipt(tx).success

    def test_front_runner_cannot_steal_reveal(self, env):
        # §III-F race condition: a copied reveal is bound to the original
        # slasher's address, so the thief's transaction reverts.
        chain, contract = env
        spammer = Identity.from_secret(0xBAD)
        register(chain, contract, "alice", spammer)
        commitment, opening = commit(spammer.sk.to_bytes(), b"slasher")
        chain.send_transaction(
            "slasher", contract.address, "slash_commit", {"digest": commitment.digest}
        )
        chain.mine_block()
        thief_tx = chain.send_transaction(
            "carol",  # the thief copies sk + nonce from the mempool
            contract.address,
            "slash_reveal",
            {"sk": spammer.sk.value, "nonce": opening.nonce},
        )
        chain.mine_block()
        assert not chain.receipt(thief_tx).success
        assert contract.is_member(spammer.pk)  # spammer still slashable

    def test_slash_unknown_member_fails(self, env):
        chain, contract = env
        ghost = Identity.from_secret(0x60057)
        receipt = slash(chain, contract, "slasher", ghost.sk)
        assert not receipt.success

    def test_double_slash_second_fails(self, env):
        chain, contract = env
        spammer = Identity.from_secret(0xBAD)
        register(chain, contract, "alice", spammer)
        assert slash(chain, contract, "slasher", spammer.sk).success
        second = slash(chain, contract, "carol", spammer.sk)
        assert not second.success


class TestWithdrawal:
    def test_immediate_withdrawal_returns_stake(self, env):
        chain, contract = env
        identity = Identity.from_secret(55)
        register(chain, contract, "alice", identity)
        before = chain.balance_of("alice")
        tx = chain.send_transaction(
            "alice", contract.address, "withdraw", {"pk": identity.pk.value}
        )
        chain.mine_block()
        assert chain.receipt(tx).success
        assert not contract.is_member(identity.pk)
        assert chain.balance_of("alice") > before

    def test_only_owner_can_withdraw(self, env):
        chain, contract = env
        identity = Identity.from_secret(56)
        register(chain, contract, "alice", identity)
        tx = chain.send_transaction(
            "bob", contract.address, "withdraw", {"pk": identity.pk.value}
        )
        chain.mine_block()
        assert not chain.receipt(tx).success

    def test_early_withdrawal_escapes_slashing(self, env):
        # §IV-B open problem: withdraw before being slashed and the slasher
        # gets nothing.
        chain, contract = env
        spammer = Identity.from_secret(57)
        register(chain, contract, "alice", spammer)
        chain.send_transaction(
            "alice", contract.address, "withdraw", {"pk": spammer.pk.value}
        )
        chain.mine_block()
        receipt = slash(chain, contract, "slasher", spammer.sk)
        assert not receipt.success

    def test_withdrawal_delay_keeps_slashing_window_open(self):
        # The mitigation: with an exit queue, the member is gone but the
        # stake is still in the contract during the delay...
        chain = Blockchain(block_interval=12.0)
        contract = RLNMembershipContract(deposit=1 * WEI, withdrawal_delay_blocks=10)
        chain.deploy(contract)
        chain.fund("alice", 10 * WEI)
        identity = Identity.from_secret(58)
        register(chain, contract, "alice", identity)
        chain.send_transaction(
            "alice", contract.address, "withdraw", {"pk": identity.pk.value}
        )
        chain.mine_block()
        assert contract.balance == 1 * WEI  # stake not yet released
        claim = chain.send_transaction("alice", contract.address, "claim_withdrawal")
        chain.mine_block()
        assert not chain.receipt(claim).success  # too early
        for _ in range(10):
            chain.mine_block()
        claim = chain.send_transaction("alice", contract.address, "claim_withdrawal")
        chain.mine_block()
        assert chain.receipt(claim).success
        assert contract.balance == 0

    def test_withdraw_nonmember_fails(self, env):
        chain, contract = env
        tx = chain.send_transaction("alice", contract.address, "withdraw", {"pk": 12345})
        chain.mine_block()
        assert not chain.receipt(tx).success


class TestIndexStability:
    def test_deletion_does_not_shift_indices(self, env):
        # The §III-A design point: deletion zeroes one slot; everyone
        # else's index (and hence tree position) is untouched.
        chain, contract = env
        members = [Identity.from_secret(100 + i) for i in range(4)]
        for i, member in enumerate(members):
            register(chain, contract, "alice", member)
        slash(chain, contract, "slasher", members[1].sk)
        assert contract.commitment_list() == [
            members[0].pk.value,
            0,
            members[2].pk.value,
            members[3].pk.value,
        ]
        assert contract.commitment_list().index(members[3].pk.value) == 3


class TestUnifiedRemovalEvent:
    """Both removal paths emit one ``MemberRemoved``; one listener suffices."""

    def test_slash_emits_member_removed(self, env):
        chain, contract = env
        spammer = Identity.from_secret(0xBAD)
        register(chain, contract, "alice", spammer)
        slash(chain, contract, "slasher", spammer.sk)
        removed = chain.events(contract=contract.address, name="MemberRemoved")
        assert removed[0].data == {
            "index": 0,
            "pk": spammer.pk.value,
            "cause": "slash",
        }

    def test_withdraw_emits_member_removed(self, env):
        chain, contract = env
        identity = Identity.from_secret(0x77)
        register(chain, contract, "alice", identity)
        chain.send_transaction(
            "alice", contract.address, "withdraw", {"pk": identity.pk.value}
        )
        chain.mine_block()
        removed = chain.events(contract=contract.address, name="MemberRemoved")
        assert removed[0].data == {
            "index": 0,
            "pk": identity.pk.value,
            "cause": "withdraw",
        }

    def test_delayed_withdrawal_emits_at_removal_not_payout(self):
        chain = Blockchain(block_interval=12.0)
        contract = RLNMembershipContract(deposit=1 * WEI, withdrawal_delay_blocks=10)
        chain.deploy(contract)
        chain.fund("alice", 50 * WEI)
        identity = Identity.from_secret(0x88)
        register(chain, contract, "alice", identity)
        chain.send_transaction(
            "alice", contract.address, "withdraw", {"pk": identity.pk.value}
        )
        chain.mine_block()
        # The member is gone from the list now; revocation must not wait
        # for the exit queue to pay out.
        removed = chain.events(contract=contract.address, name="MemberRemoved")
        assert len(removed) == 1
        assert removed[0].data["cause"] == "withdraw"
        assert not contract.is_member(identity.pk)

    def test_one_event_per_removal(self, env):
        chain, contract = env
        members = [Identity.from_secret(200 + i) for i in range(3)]
        for member in members:
            register(chain, contract, "alice", member)
        slash(chain, contract, "slasher", members[0].sk)
        chain.send_transaction(
            "alice", contract.address, "withdraw", {"pk": members[2].pk.value}
        )
        chain.mine_block()
        removed = chain.events(contract=contract.address, name="MemberRemoved")
        assert [(e.data["index"], e.data["cause"]) for e in removed] == [
            (0, "slash"),
            (2, "withdraw"),
        ]
