"""Unit tests for the slashing pipeline (recovery + commit-reveal)."""

import pytest

from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.nullifier_log import SpamEvidence
from repro.core.slashing import SlashState, Slasher, recover_spammer_key
from repro.crypto.commitments import commit
from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity
from repro.errors import ProtocolError

#: Each test slasher's commit-nonce key.
KEYS = {"slasher": b"s" * 32, "rival": b"r" * 32}


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
        slasher = Slasher("slasher", chain, contract.address, KEYS["slasher"])
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
        slasher = Slasher("slasher", chain, contract.address, KEYS["slasher"])
        attempt = slasher.begin(evidence_for(spammer))
        assert slasher.reveal(attempt) is None  # commit still pending

    def test_race_second_slasher_fails_gracefully(self, env):
        chain, contract, spammer = env
        winner = Slasher("slasher", chain, contract.address, KEYS["slasher"])
        loser = Slasher("rival", chain, contract.address, KEYS["rival"])
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
        slasher = Slasher("slasher", chain, contract.address, KEYS["slasher"])
        attempt = slasher.begin(evidence_for(spammer))
        for _ in range(3):
            chain.mine_block()
            slasher.settle()
        assert attempt.state is SlashState.FAILED
        assert "reveal failed" in attempt.failure_reason

    def test_pending_tracks_open_attempts(self, env):
        chain, contract, spammer = env
        slasher = Slasher("slasher", chain, contract.address, KEYS["slasher"])
        attempt = slasher.begin(evidence_for(spammer))
        assert slasher.pending() == [attempt]
        for _ in range(3):
            chain.mine_block()
            slasher.settle()
        assert slasher.pending() == []


def commit_digest(attempt) -> bytes:
    """The digest ``attempt``'s commit transaction carried."""
    opening = attempt.opening
    return commit(opening.payload, opening.binder, nonce=opening.nonce)[0].digest


class TestCommitNonce:
    def test_two_attempts_of_one_slasher_commit_different_digests(self, env):
        chain, contract, spammer = env
        slasher = Slasher("slasher", chain, contract.address, KEYS["slasher"])
        first = slasher.begin(evidence_for(spammer))
        second = slasher.begin(evidence_for(spammer))  # the same case, again
        assert first.opening.nonce != second.opening.nonce
        assert commit_digest(first) != commit_digest(second)

    def test_the_nonce_is_keyed(self, env):
        chain, contract, spammer = env
        # Same account, same attempt number: only the key differs.
        mine = Slasher("slasher", chain, contract.address, KEYS["slasher"])
        other = Slasher("slasher", chain, contract.address, KEYS["rival"])
        evidence = evidence_for(spammer)
        assert commit_digest(mine.begin(evidence)) != commit_digest(other.begin(evidence))

    def test_a_short_key_is_refused(self, env):
        chain, contract, _ = env
        with pytest.raises(ProtocolError):
            Slasher("slasher", chain, contract.address, b"k" * 15)

    def test_same_seed_deployments_commit_equal_digests(self):
        def first_commit(seed: int) -> bytes:
            dep = RLNDeployment.create(
                peer_count=4, degree=2, seed=seed, config=RLNConfig(tree_depth=8)
            )
            return commit_digest(
                dep.peer("peer-001").slasher.begin(evidence_for(Identity.from_secret(0x5BAD)))
            )

        assert first_commit(7) == first_commit(7)
        assert first_commit(7) != first_commit(8)
