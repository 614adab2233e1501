"""A deployment follows its contract once: every peer holds the deployment's
one :class:`GroupManager`, which reads the chain block for block as an
independent manager does, and keeps following it across a peer's
``stop()`` / ``start()``."""

from repro.analysis.metrics import DeliveryTracker
from repro.chain.blockchain import BLOCK_END
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.membership import GroupManager
from repro.core.validator import ValidationOutcome
from repro.errors import SyncError

DEPTH = 8


def deployment(peers: int, seed: int) -> RLNDeployment:
    config = RLNConfig(tree_depth=DEPTH, epoch_length=1.0)
    return RLNDeployment.create(peer_count=peers, degree=3, seed=seed, config=config)


def view(manager: GroupManager) -> tuple:
    return (
        manager.root,
        manager.recent_roots(),
        manager.event_seq,
        manager.checkpoint().to_bytes(),
    )


class TestOneReplicaIsNReplicas:
    def test_the_shared_group_matches_an_independent_manager_after_every_block(self):
        dep = deployment(peers=8, seed=21)
        assert all(peer.group is dep.group for peer in dep.peers.values())
        # Built on the deployment's chain, but sharing nothing with it: no
        # hasher, its own tree, window and index map.
        reference = GroupManager(
            dep.chain,
            dep.contract,
            tree_depth=DEPTH,
            root_window=dep.config.root_window,
            shard_depth=dep.config.shard_depth,
        )
        assert reference.hasher is None and reference.tree is not dep.group.tree
        blocks: list[tuple[tuple, tuple, bool]] = []

        def after_block(event) -> None:
            if event.contract != BLOCK_END:
                return
            try:
                dep.group.assert_synced()
                synced = True
            except SyncError:
                synced = False
            blocks.append((view(dep.group), view(reference), synced))

        # Subscribed after both managers: each block is applied before it is seen.
        dep.chain.subscribe(after_block)

        ids = dep.peer_ids()
        dep.register_all(ids[:5])  # registrations, one block
        dep.register_all(ids[5:])  # and a second block of them
        dep.form_meshes()
        leaver, spammer = dep.peers[ids[1]], dep.peers[ids[2]]
        dep.chain.send_transaction(
            leaver.peer_id,
            dep.contract.address,
            "withdraw",
            {"pk": leaver.identity.pk.value},
        )
        dep.run(dep.chain.block_interval * 1.5)  # the withdrawal's MemberRemoved
        assert not leaver.registered
        spammer.publish(b"one")
        spammer.publish(b"two", force=True)  # a double-signal: slashed
        dep.run(dep.chain.block_interval * 6)
        assert not spammer.registered

        assert len(blocks) >= 4
        for shared, independent, synced in blocks:
            assert shared == independent
            assert synced
        assert dep.group.event_seq == len(ids) + 2
        assert all(peer.group is dep.group for peer in dep.peers.values())


class TestRestart:
    def test_a_restarted_peer_still_follows_the_contract(self):
        dep = deployment(peers=6, seed=22)
        ids = dep.peer_ids()
        dep.register_all(ids[:5])
        dep.form_meshes()
        restarted, newcomer = dep.peers[ids[0]], dep.peers[ids[5]]
        restarted.stop()
        dep.run(1.0)
        restarted.start()
        dep.register_all(ids[5:])
        dep.form_meshes()

        tracker = DeliveryTracker(dep)
        valid = restarted.validator.stats.count(ValidationOutcome.VALID)
        unknown = restarted.validator.stats.count(ValidationOutcome.UNKNOWN_ROOT)
        newcomer.publish(b"newcomer")
        dep.run(2.0)
        assert tracker.delivery_count(b"newcomer") == len(dep.peers)
        assert restarted.validator.stats.count(ValidationOutcome.VALID) == valid + 1
        assert restarted.validator.stats.count(ValidationOutcome.UNKNOWN_ROOT) == unknown
        assert restarted.group.member_count() == dep.contract.member_count() == 6
        restarted.group.assert_synced()  # the contract's root
