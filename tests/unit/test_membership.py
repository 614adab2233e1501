"""Unit tests for off-chain group management (tree sync, §III-C)."""

import pytest

from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.membership import GroupManager
from repro.crypto.commitments import commit
from repro.crypto.field import FieldElement, ZERO
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.crypto.optimized_merkle import OptimizedMerkleView
from repro.errors import NotRegistered, SyncError

DEPTH = 8


@pytest.fixture()
def env():
    chain = Blockchain(block_interval=12.0)
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 1000 * WEI)
    manager = GroupManager(chain, contract, tree_depth=DEPTH, root_window=4)
    return chain, contract, manager


def register(chain, contract, identity):
    chain.send_transaction(
        "funder",
        contract.address,
        "register",
        {"pk": identity.pk.value},
        value=contract.deposit,
    )
    chain.mine_block()


def slash(chain, contract, identity):
    commitment, opening = commit(identity.sk.to_bytes(), b"funder")
    chain.send_transaction(
        "funder", contract.address, "slash_commit", {"digest": commitment.digest}
    )
    chain.mine_block()
    chain.send_transaction(
        "funder",
        contract.address,
        "slash_reveal",
        {"sk": identity.sk.value, "nonce": opening.nonce},
    )
    chain.mine_block()


class TestSync:
    def test_insertion_events_applied(self, env):
        chain, contract, manager = env
        members = [Identity.from_secret(i + 1) for i in range(3)]
        for member in members:
            register(chain, contract, member)
        assert manager.member_count() == 3
        for i, member in enumerate(members):
            assert manager.index_of(member.pk) == i
        manager.assert_synced()

    def test_deletion_events_applied(self, env):
        chain, contract, manager = env
        members = [Identity.from_secret(i + 1) for i in range(3)]
        for member in members:
            register(chain, contract, member)
        slash(chain, contract, members[1])
        assert manager.member_count() == 2
        assert manager.tree.leaf(1) == ZERO
        with pytest.raises(NotRegistered):
            manager.index_of(members[1].pk)
        manager.assert_synced()

    def test_late_joiner_bootstraps_from_contract(self, env):
        chain, contract, _ = env
        members = [Identity.from_secret(i + 1) for i in range(4)]
        for member in members:
            register(chain, contract, member)
        slash(chain, contract, members[0])
        late = GroupManager(chain, contract, tree_depth=DEPTH)
        assert late.member_count() == 3
        assert late.root == GroupManager(chain, contract, tree_depth=DEPTH).root
        late.assert_synced()

    def test_two_managers_agree(self, env):
        chain, contract, manager = env
        other = GroupManager(chain, contract, tree_depth=DEPTH)
        for i in range(5):
            register(chain, contract, Identity.from_secret(100 + i))
        assert manager.root == other.root

    def test_assert_synced_detects_divergence(self, env):
        chain, contract, manager = env
        register(chain, contract, Identity.from_secret(1))
        # Corrupt the local tree.
        manager.tree.update(0, FieldElement(999))
        with pytest.raises(SyncError):
            manager.assert_synced()


class TestProofsAndRoots:
    def test_merkle_proof_for_member(self, env):
        chain, contract, manager = env
        identity = Identity.from_secret(7)
        register(chain, contract, identity)
        proof = manager.merkle_proof(identity.pk)
        assert proof.verify(manager.root)
        assert proof.leaf == identity.pk

    def test_proof_for_unknown_member_raises(self, env):
        _, _, manager = env
        with pytest.raises(NotRegistered):
            manager.merkle_proof(FieldElement(12345))

    def test_recent_roots_window(self, env):
        chain, contract, manager = env
        roots = [manager.root]
        for i in range(6):
            register(chain, contract, Identity.from_secret(200 + i))
            roots.append(manager.root)
        recent = manager.recent_roots()
        assert len(recent) == 4  # window size
        assert recent[-1] == manager.root
        assert manager.is_acceptable_root(roots[-2])
        assert not manager.is_acceptable_root(roots[0])

    def test_stale_proof_rejected_by_root_window(self, env):
        # §III-C: peers out of sync risk making proofs against old roots;
        # once the root leaves the window, validators refuse it.
        chain, contract, manager = env
        register(chain, contract, Identity.from_secret(1))
        old_root = manager.root
        for i in range(5):
            register(chain, contract, Identity.from_secret(300 + i))
        assert not manager.is_acceptable_root(old_root)


class TestHybridArchitecture:
    def test_optimized_view_follows_manager(self, env):
        # §IV-A: a storage-limited peer tracks only its own path, fed by
        # the full-tree peer's update announcements.
        chain, contract, manager = env
        me = Identity.from_secret(42)
        register(chain, contract, me)
        view = OptimizedMerkleView(manager.merkle_proof(me.pk), manager.root)
        manager.on_update(view.apply_update)
        others = [Identity.from_secret(400 + i) for i in range(5)]
        for other in others:
            register(chain, contract, other)
        slash(chain, contract, others[2])
        assert view.root == manager.root
        assert view.proof().verify(manager.root)
        # The light peer's storage stays logarithmic.
        assert view.storage_bytes() < manager.tree.storage_bytes()


class TestBlockIsOneTransaction:
    def test_a_block_that_skips_the_frontier_changes_nothing(self, env):
        chain, contract, manager = env
        members = [Identity.from_secret(500 + i) for i in range(2)]
        for member in members:
            register(chain, contract, member)

        def state():
            return (
                manager.root,
                list(manager.tree.leaves()),
                manager.tree.leaf_count,
                manager.tree.hash_ops,
                dict(manager._index_of_pk),
                manager.recent_roots(),
                manager.event_seq,
            )

        before = state()
        # One block: a removal, two registrations at the frontier, then a
        # third that skips slot 4.  Applied one by one, the first three would
        # land before the fourth raised.
        chain.emit(contract.address, "MemberRemoved", {"index": 0, "pk": members[0].pk.value})
        for index in (2, 3, 5):
            pk = Identity.from_secret(600 + index).pk.value
            chain.emit(contract.address, "MemberRegistered", {"index": index, "pk": pk})
        with pytest.raises(SyncError, match="skips local frontier 4"):
            chain.mine_block()
        assert state() == before

    def test_a_block_admits_one_root_and_counts_every_event(self, env):
        chain, contract, manager = env
        members = [Identity.from_secret(700 + i) for i in range(3)]
        seq, hash_ops = manager.event_seq, manager.tree.hash_ops
        for member in members:
            chain.send_transaction(
                "funder", contract.address, "register",
                {"pk": member.pk.value}, value=contract.deposit,
            )
        chain.mine_block()
        assert manager.event_seq == seq + 3
        assert manager.recent_roots()[-2:] == [MerkleTree(DEPTH).root, manager.root]
        # Slots 0-2 share their ancestors above level 1: 2 + 1 + ... + 1.
        assert manager.tree.hash_ops - hash_ops == 2 + (DEPTH - 1)
        manager.assert_synced()

    def test_a_listener_leaves_the_window_as_a_replica_without_one(
        self, env, native_prover
    ):
        """A block of more registrations than the window holds moves a
        replica with announcement listeners by one root, as it moves one
        without: a bundle built on the pre-block root is still acceptable."""
        from repro import testing
        from repro.core.config import RLNConfig
        from repro.core.validator import BundleValidator

        chain, contract, plain = env
        listened = GroupManager(chain, contract, tree_depth=DEPTH, root_window=4)
        listened.on_update(lambda update: None)
        listened.on_shard_update(lambda update: None)
        member = Identity.from_secret(800)
        register(chain, contract, member)
        pre_block = listened.root
        bundle = testing.mint_bundle(
            member, b"pre-block", testing.RLN_TEST_EPOCH, listened, native_prover
        )
        for i in range(6):  # more than root_window=4
            chain.send_transaction(
                "funder", contract.address, "register",
                {"pk": Identity.from_secret(810 + i).pk.value}, value=contract.deposit,
            )
        chain.mine_block()
        assert listened.recent_roots() == plain.recent_roots()
        assert listened.recent_roots()[-2:] == [pre_block, listened.root]
        config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
        for manager in (listened, plain):
            assert manager.is_acceptable_root(pre_block)
            validator = BundleValidator(config, native_prover, manager)
            assert validator.classify_cheap(bundle) is None
