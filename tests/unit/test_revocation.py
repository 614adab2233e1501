"""Unit tests for the distributed-revocation subsystem.

Coordinator: evidence intake, dedup, the commit-reveal race, economics.
Tracker: timeline stamps and per-view exclusion watches.
Window collapse: a removal evicts every pre-removal root at once.
"""

import pytest

from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.membership import GroupManager
from repro.core.nullifier_log import SpamEvidence
from repro.core.slashing import SlashState, Slasher
from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity
from repro.net.simulator import Simulator
from repro.revocation import RevocationTracker, SlashingCoordinator

DEPTH = 8


@pytest.fixture()
def env():
    simulator = Simulator()
    chain = Blockchain(block_interval=12.0)
    # Mining rides the simulator, like RLNDeployment wires it.
    simulator.every(6.0, lambda: chain.advance_time(simulator.now))
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    for account in ("observer-a", "observer-b", "member"):
        chain.fund(account, 10 * WEI)
    spammer = Identity.from_secret(0x5BAD)
    chain.send_transaction(
        "member", contract.address, "register", {"pk": spammer.pk.value}, value=1 * WEI
    )
    simulator.run(13.0)  # mine the registration
    return simulator, chain, contract, spammer


def slasher_for(account: str, chain: Blockchain, contract) -> Slasher:
    """``account``'s slasher, its nonce key fixed by the name."""
    return Slasher(account, chain, contract.address, account.encode().ljust(32, b"."))


def evidence_for(identity: Identity, epoch: int = 42) -> SpamEvidence:
    ext = FieldElement(epoch)
    return SpamEvidence(
        internal_nullifier=identity.epoch_secrets(ext).internal_nullifier,
        epoch=epoch,
        share_a=identity.share_for(ext, FieldElement(1)),
        share_b=identity.share_for(ext, FieldElement(2)),
    )


class TestCoordinator:
    def test_evidence_to_removal_happy_path(self, env):
        simulator, chain, contract, spammer = env
        coordinator = SlashingCoordinator(
            slasher_for("observer-a", chain, contract), contract, simulator
        )
        case = coordinator.observe(evidence_for(spammer))
        assert case is not None
        assert case.spammer_pk == spammer.pk
        assert case.attempt.state is SlashState.COMMITTED
        simulator.run(simulator.now + 5 * chain.block_interval)
        assert case.won is True
        assert not contract.is_member(spammer.pk)
        # The MemberRemoved event stamped the case.
        assert case.removed_at is not None
        assert case.removed_index == 0
        assert case.chain_latency is not None and case.chain_latency > 0
        assert coordinator.stats.races_won == 1
        assert coordinator.stats.rewards_wei == contract.deposit
        assert coordinator.stats.gas_spent_wei > 0
        assert coordinator.stats.net_wei < contract.deposit
        assert all(case.settled for case in coordinator.cases)

    def test_duplicate_evidence_opens_one_case(self, env):
        simulator, chain, contract, spammer = env
        coordinator = SlashingCoordinator(
            slasher_for("observer-a", chain, contract), contract, simulator
        )
        evidence = evidence_for(spammer)
        assert coordinator.observe(evidence) is not None
        assert coordinator.observe(evidence) is None
        assert coordinator.stats.cases == 1
        assert len(coordinator.cases) == 1

    def test_race_one_winner_loser_accounts_gas(self, env):
        simulator, chain, contract, spammer = env
        first = SlashingCoordinator(
            slasher_for("observer-a", chain, contract), contract, simulator
        )
        second = SlashingCoordinator(
            slasher_for("observer-b", chain, contract), contract, simulator
        )
        evidence = evidence_for(spammer)
        case_a = first.observe(evidence)
        case_b = second.observe(evidence)
        simulator.run(simulator.now + 6 * chain.block_interval)
        outcomes = {case_a.won, case_b.won}
        assert outcomes == {True, False}
        winner, loser = (
            (first, second) if case_a.won else (second, first)
        )
        assert winner.stats.races_won == 1 and winner.stats.races_lost == 0
        assert loser.stats.races_won == 0 and loser.stats.races_lost == 1
        # Losing still burned gas on commit + failed reveal — the §IV-A
        # redundancy cost.
        assert loser.stats.rewards_wei == 0
        assert loser.stats.gas_spent_wei > 0
        assert loser.stats.net_wei < 0
        # Both coordinators saw the removal (whoever won): revocation is
        # a network fact, not the winner's private one.
        assert case_a.removed_at is not None
        assert case_b.removed_at is not None
        # Exactly one payout left the contract.
        assert contract.balance == 0

    def test_close_unsubscribes_from_chain(self, env):
        simulator, chain, contract, spammer = env
        coordinator = SlashingCoordinator(
            slasher_for("observer-a", chain, contract), contract, simulator
        )
        case = coordinator.observe(evidence_for(spammer))
        coordinator.close()
        # A rival finishes the job; the closed coordinator's chain watch
        # is gone, so the case never gets stamped.
        rival = SlashingCoordinator(
            slasher_for("observer-b", chain, contract), contract, simulator
        )
        rival.observe(evidence_for(spammer))
        simulator.run(simulator.now + 6 * chain.block_interval)
        assert not contract.is_member(spammer.pk)
        assert case.removed_at is None


class TestWindowCollapse:
    def test_removal_evicts_pre_removal_roots(self, env):
        simulator, chain, contract, spammer = env
        manager = GroupManager(chain, contract, tree_depth=DEPTH, root_window=5)
        # Grow a window of several roots that all contain the spammer.
        for i in range(3):
            chain.send_transaction(
                "member",
                contract.address,
                "register",
                {"pk": Identity.from_secret(0x900 + i).pk.value},
                value=1 * WEI,
            )
        chain.mine_block()
        stale_roots = manager.recent_roots()
        assert len(stale_roots) > 1
        coordinator = SlashingCoordinator(
            slasher_for("observer-a", chain, contract), contract, simulator
        )
        coordinator.observe(evidence_for(spammer))
        simulator.run(simulator.now + 5 * chain.block_interval)
        assert not contract.is_member(spammer.pk)
        # Every pre-removal root died with the member; only the
        # post-removal root is acceptable.
        for root in stale_roots:
            assert not manager.is_acceptable_root(root)
        assert manager.recent_roots() == [manager.root]
        manager.close()


class TestTracker:
    def test_timeline_stamps(self, env):
        simulator, chain, contract, spammer = env
        manager = GroupManager(chain, contract, tree_depth=DEPTH, root_window=5)
        tracker = RevocationTracker(simulator, poll_interval=0.5)
        coordinator = SlashingCoordinator(
            slasher_for("observer-a", chain, contract), contract, simulator
        )
        coordinator.on_removed(tracker.removed_on_chain)
        stale_root = manager.root  # contains the spammer's leaf
        tracker.spam_detected()
        tracker.watch_exclusion("full-manager", manager, stale_root)
        assert tracker.network_wide_at is None  # watch still open
        coordinator.observe(evidence_for(spammer))
        simulator.run(simulator.now + 5 * chain.block_interval)
        summary = tracker.summary()
        assert summary["removed_on_chain_at"] is not None
        assert summary["network_wide_at"] is not None
        assert summary["chain_latency"] > 0
        assert summary["revocation_latency"] >= summary["chain_latency"] - tracker.poll_interval
        assert not tracker._watching
        manager.close()

    def test_watch_on_already_excluded_view_stamps_immediately(self, env):
        simulator, chain, contract, spammer = env
        manager = GroupManager(chain, contract, tree_depth=DEPTH, root_window=5)
        tracker = RevocationTracker(simulator)
        tracker.watch_exclusion(
            "view", manager, FieldElement(0xDEAD)  # never acceptable
        )
        assert tracker.exclusions["view"] == simulator.now
        assert tracker.network_wide_at == simulator.now
        manager.close()

    def test_first_detection_wins(self, env):
        simulator, chain, contract, spammer = env
        tracker = RevocationTracker(simulator)
        tracker.spam_detected()
        first = tracker.spam_detected_at
        simulator.run(simulator.now + 1.0)
        tracker.spam_detected()
        assert tracker.spam_detected_at == first
