"""Unit tests for the slashing pipeline (recovery + commit-reveal)."""

import pytest

from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.nullifier_log import SpamEvidence
from repro.core.slashing import SlashState, Slasher, recover_spammer_key
from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity


@pytest.fixture()
def env():
    chain = Blockchain(block_interval=12.0)
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("slasher", 10 * WEI)
    chain.fund("rival", 10 * WEI)
    chain.fund("member", 10 * WEI)
    spammer = Identity.from_secret(0x5BAD)
    chain.send_transaction(
        "member", contract.address, "register", {"pk": spammer.pk.value}, value=1 * WEI
    )
    chain.mine_block()
    return chain, contract, spammer


def evidence_for(identity: Identity, epoch: int = 42) -> SpamEvidence:
    ext = FieldElement(epoch)
    return SpamEvidence(
        internal_nullifier=identity.epoch_secrets(ext).internal_nullifier,
        epoch=epoch,
        share_a=identity.share_for(ext, FieldElement(1)),
        share_b=identity.share_for(ext, FieldElement(2)),
    )


class TestRecovery:
    def test_recover_spammer_key(self, env):
        _, _, spammer = env
        assert recover_spammer_key(evidence_for(spammer)) == spammer.sk


class TestCommitReveal:
    def test_happy_path(self, env):
        chain, contract, spammer = env
        slasher = Slasher("slasher", chain, contract.address)
        attempt = slasher.begin(evidence_for(spammer))
        assert attempt.state is SlashState.COMMITTED
        assert attempt.spammer_pk == spammer.pk
        chain.mine_block()  # mine the commit
        slasher.settle()  # submits the reveal
        assert attempt.state is SlashState.REVEALED
        chain.mine_block()  # mine the reveal
        slasher.settle()
        assert attempt.state is SlashState.REWARDED
        assert attempt.reward == 1 * WEI
        assert sum(a.reward for a in slasher.attempts) == 1 * WEI
        assert not contract.is_member(spammer.pk)

    def test_reveal_before_commit_mined_returns_none(self, env):
        chain, contract, spammer = env
        slasher = Slasher("slasher", chain, contract.address)
        attempt = slasher.begin(evidence_for(spammer))
        assert slasher.reveal(attempt) is None  # commit still pending

    def test_race_second_slasher_fails_gracefully(self, env):
        chain, contract, spammer = env
        winner = Slasher("slasher", chain, contract.address)
        loser = Slasher("rival", chain, contract.address)
        evidence = evidence_for(spammer)
        attempt_w = winner.begin(evidence)
        attempt_l = loser.begin(evidence)
        for _ in range(3):
            chain.mine_block()
            winner.settle()
            loser.settle()
        states = {attempt_w.state, attempt_l.state}
        assert SlashState.REWARDED in states
        assert SlashState.FAILED in states
        rewarded = attempt_w if attempt_w.state is SlashState.REWARDED else attempt_l
        assert rewarded.reward == 1 * WEI
        # Exactly one payout: the contract kept nothing extra.
        assert contract.balance == 0

    def test_slash_withdrawn_member_fails(self, env):
        chain, contract, spammer = env
        chain.send_transaction(
            "member", contract.address, "withdraw", {"pk": spammer.pk.value}
        )
        chain.mine_block()
        slasher = Slasher("slasher", chain, contract.address)
        attempt = slasher.begin(evidence_for(spammer))
        for _ in range(3):
            chain.mine_block()
            slasher.settle()
        assert attempt.state is SlashState.FAILED
        assert "reveal failed" in attempt.failure_reason

    def test_pending_tracks_open_attempts(self, env):
        chain, contract, spammer = env
        slasher = Slasher("slasher", chain, contract.address)
        attempt = slasher.begin(evidence_for(spammer))
        assert slasher.pending() == [attempt]
        for _ in range(3):
            chain.mine_block()
            slasher.settle()
        assert slasher.pending() == []
