"""Unit tests for shard-scoped tree sync (repro.treesync.sync)."""

import pytest

from repro import testing
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.core.validator import BundleValidator, ValidationOutcome
from repro.crypto.commitments import commit
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.errors import (
    InconsistentTreeUpdate,
    MerkleError,
    ProtocolError,
    SyncError,
    TreeSyncGap,
)
from repro.treesync import ShardRemoval, ShardRootDigest, ShardSyncManager, ShardUpdate
from repro.treesync.forest import resolve_shard_depth
from tests.conftest import TEST_DEPTH, two_level_reference

SHARD_DEPTH = 3  # 8-member shards under the 8-level test tree


@pytest.fixture()
def group():
    chain = Blockchain()
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 500 * WEI)
    manager = GroupManager(
        chain,
        contract,
        tree_depth=TEST_DEPTH,
        shard_depth=SHARD_DEPTH,
    )
    return chain, contract, manager


def register(chain, contract, secret):
    return testing.register_member(chain, contract, secret)


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


class TestLiveFeed:
    def test_tracks_manager_root(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        for i in range(20):
            register(chain, contract, 0x100 + i)
        assert view.root == manager.root
        assert view.seq == manager.event_seq == 20

    def test_foreign_events_are_hash_free_until_commit(self, group):
        chain, contract, manager = group
        # Home shard 0 fills with the first 8 members; later members land
        # in foreign shards.
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        for i in range(8):
            register(chain, contract, 0x200 + i)
        view.commit()
        base = view.hash_ops
        for i in range(8):  # all land in shard 1: foreign
            register(chain, contract, 0x300 + i)
        assert view.hash_ops == base  # zero compressions before commit
        assert len(view._pending) == 1
        assert view.root == manager.root  # one commit folds the burst
        assert view.stats.foreign_events == 8

    def test_deletion_in_home_shard_replays(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        member = register(chain, contract, 0x400)
        for i in range(3):
            register(chain, contract, 0x500 + i)
        slash(chain, contract, member)
        assert view.root == manager.root
        assert view.stats.home_events == 5  # 4 inserts + 1 delete

    def test_gap_raises_treesyncgap(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        for i in range(4):
            register(chain, contract, 0x600 + i)
        view.apply(updates[0])
        with pytest.raises(TreeSyncGap):
            view.apply(updates[2])  # seq 3 skips seq 2

    def test_replay_is_idempotent(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x700)
        view.apply(updates[0])
        view.apply(updates[0])  # replayed: ignored
        assert view.seq == 1

    def test_home_digest_rejected(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x800)
        with pytest.raises(SyncError):
            view.apply(updates[0].digest())

    def test_forged_shard_root_rejected(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x900)
        forged = ShardUpdate(
            seq=updates[0].seq,
            shard_id=updates[0].shard_id,
            update=updates[0].update,
            new_shard_root=FieldElement(0xBAD),
            new_global_root=updates[0].new_global_root,
        )
        with pytest.raises(InconsistentTreeUpdate):
            view.apply(forged)
        # The rejected write was rolled back: the genuine update for the
        # same seq still applies cleanly (a forgery cannot wedge the peer).
        view.apply(updates[0])
        assert view.root == manager.root

    def test_forged_global_root_rejected_at_commit(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=1, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0xA00)
        forged = ShardUpdate(
            seq=updates[0].seq,
            shard_id=updates[0].shard_id,
            update=updates[0].update,
            new_shard_root=updates[0].new_shard_root,
            new_global_root=FieldElement(0xBAD),
        )
        view.apply(forged)  # foreign: recorded without hashing
        with pytest.raises(InconsistentTreeUpdate):
            view.commit()


class TestWitnessAndValidation:
    def test_witness_verifies_and_matches_manager(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        member = register(chain, contract, 0xB00)
        for i in range(12):
            register(chain, contract, 0xC00 + i)
        witness = view.witness(manager.index_of(member.pk))
        assert witness.verify(manager.root)
        assert witness == manager.merkle_proof(member.pk)

    def test_foreign_witness_refused(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        for i in range(12):
            register(chain, contract, 0xD00 + i)
        with pytest.raises(MerkleError):
            view.witness(9)  # shard 1

    def test_sync_view_backs_a_validator(self, group, native_prover):
        """A ShardSyncManager is a RootAcceptor: §III-F validation works
        against the committed window without holding the forest."""
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        member = register(chain, contract, 0xE00)
        config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=TEST_DEPTH)
        validator = BundleValidator(config, native_prover, view)
        message = testing.mint_bundle(
            member, b"hello", testing.RLN_TEST_EPOCH, manager, native_prover
        )
        outcome, _ = validator.validate(message, testing.RLN_TEST_EPOCH, b"m1")
        assert outcome is ValidationOutcome.VALID

    def test_prover_accepts_spliced_witness(self, group, native_prover):
        """A proof generated from the sync view's spliced witness verifies
        through the unchanged rln_circuit statement."""
        from repro.core.epoch import external_nullifier
        from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        member = register(chain, contract, 0xF00)
        public = RLNPublicInputs.for_message(
            member, b"payload", external_nullifier(testing.RLN_TEST_EPOCH), view.root
        )
        witness = RLNWitness(
            identity=member,
            merkle_proof=view.witness(manager.index_of(member.pk)),
        )
        proof = native_prover.prove(public, witness)
        assert native_prover.verify(public, proof)


class TestCheckpoint:
    def test_checkpoint_equivalence_across_backends(self, group):
        """The checkpoint lists exactly the roots of per-shard trees built
        from scratch over the contract's list — an emptied shard included,
        under the empty-shard root — whichever manager cut it."""
        chain, contract, manager = group
        defaulted = GroupManager(
            chain, contract, tree_depth=TEST_DEPTH, shard_depth=SHARD_DEPTH
        )
        members = [register(chain, contract, 0x1100 + i) for i in range(20)]
        for member in members[16:]:  # empties shard 2 (indices 16-19)
            slash(chain, contract, member)
        checkpoint = manager.checkpoint()
        leaves = [FieldElement(pk) for pk in contract.commitment_list()]
        shards, top = two_level_reference(leaves, TEST_DEPTH, SHARD_DEPTH)
        assert checkpoint.shard_roots == tuple(
            (shard_id, shard.root) for shard_id, shard in enumerate(shards)
        )
        assert checkpoint.shard_roots[2][1] == top.leaf(3)  # the empty-shard root
        assert checkpoint.global_root == top.root
        assert checkpoint.to_bytes() == defaulted.checkpoint().to_bytes()
        defaulted.close()

    def test_restore_from_checkpoint(self, group):
        chain, contract, manager = group
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        for i in range(20):
            register(chain, contract, 0x1200 + i)
        checkpoint = manager.checkpoint()
        # A fresh home-shard-3 peer (indices 24-31, still empty at 20
        # members) restores foreign state from the checkpoint alone.
        view = ShardSyncManager(home_shard=3, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        view.restore(checkpoint)
        assert view.commit() == manager.root
        assert view.seq == manager.event_seq

    def test_restore_rejects_diverged_home_shard(self, group):
        chain, contract, manager = group
        for i in range(4):
            register(chain, contract, 0x1300 + i)
        checkpoint = manager.checkpoint()
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        # Home shard 0 has members but the view's shard is empty.
        with pytest.raises(InconsistentTreeUpdate):
            view.restore(checkpoint)

    def test_restore_rejects_wrong_geometry(self, group):
        chain, contract, manager = group
        register(chain, contract, 0x1400)
        checkpoint = manager.checkpoint()
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH + 1)
        with pytest.raises(SyncError):
            view.restore(checkpoint)


class TestGeometryDefaults:
    def test_default_geometry_at_small_depth(self):
        """shard_depth=None resolves to min(10, depth-1) at every entry
        point, through the one resolver (regression)."""
        chain = Blockchain()
        contract = RLNMembershipContract(deposit=1 * WEI)
        chain.deploy(contract)
        manager = GroupManager(chain, contract, tree_depth=8)
        assert manager.shard_depth == 7
        manager.close()
        assert resolve_shard_depth(8) == 7
        assert resolve_shard_depth(20) == 10

    def test_config_and_manager_reject_the_same_geometries(self):
        """One range check: what RLNConfig refuses, the manager refuses."""
        chain = Blockchain()
        contract = RLNMembershipContract(deposit=1 * WEI)
        chain.deploy(contract)
        for depth, shard_depth in ((8, 0), (8, 8), (8, 9), (1, 1)):
            with pytest.raises(ProtocolError):
                RLNConfig(tree_depth=depth, shard_depth=shard_depth)
            with pytest.raises(MerkleError):
                GroupManager(chain, contract, tree_depth=depth, shard_depth=shard_depth)
        # ... and a depth-1 deployment is valid whatever the frozen
        # tree_backend field says: nothing reads it.
        assert RLNConfig(tree_depth=1, tree_backend="sharded").shard_depth is None

    def test_flat_depth_one_tree_still_constructs(self):
        """The seed-valid tree_depth=1 flat configuration (regression)."""
        chain = Blockchain()
        contract = RLNMembershipContract(deposit=1 * WEI)
        chain.deploy(contract)
        manager = GroupManager(chain, contract, tree_depth=1)
        assert manager.shard_depth == 0
        manager.close()


class TestWireSizes:
    def test_byte_size_matches_encoding(self, group):
        chain, contract, manager = group
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x1500)
        update = updates[0]
        assert update.byte_size() == len(update.to_bytes())
        assert update.digest().byte_size() == len(update.digest().to_bytes())
        checkpoint = manager.checkpoint()
        assert checkpoint.byte_size() == len(checkpoint.to_bytes())

    def test_a_root_has_one_encoding(self, group):
        chain, contract, manager = group
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x1500)
        digest = updates[0].digest()
        encoded = digest.to_bytes()
        # ``root + p`` fits in 32 bytes and used to decode, reduced, to
        # the same digest: two byte strings for one announcement.
        aliased = (digest.new_global_root.value + FIELD_MODULUS).to_bytes(32, "big")
        with pytest.raises(ProtocolError):
            ShardRootDigest.from_bytes(encoded[:-32] + aliased)
        assert ShardRootDigest.from_bytes(encoded) == digest


class TestCommitRecovery:
    def test_failed_commit_rolls_back_and_recovers(self, group):
        """A forged foreign digest cannot poison the top tree: the fold is
        rolled back, the validator path sees 'not acceptable' instead of
        an exception, and a genuine later recording supersedes it."""
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=1, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x1600)
        good_root = view.commit()
        forged = ShardUpdate(
            seq=updates[0].seq,
            shard_id=updates[0].shard_id,
            update=updates[0].update,
            new_shard_root=FieldElement(0xBAD),
            new_global_root=FieldElement(0xBAD),
        )
        view.apply(forged)
        # The relay hot path degrades gracefully (no exception, no accept).
        assert view.is_acceptable_root(manager.root) is False
        assert view.top.root == good_root  # rolled back, not poisoned
        # A genuine later event in the same shard supersedes the forgery.
        register(chain, contract, 0x1601)
        view.apply(updates[1])
        assert view.commit() == manager.root

    def test_bootstrapped_manager_agrees_on_seq_after_deletions(self, group):
        chain, contract, manager = group
        members = [register(chain, contract, 0x1700 + i) for i in range(4)]
        slash(chain, contract, members[1])
        assert manager.event_seq == 5  # 4 registrations + 1 deletion
        late = GroupManager(
            chain,
            contract,
            tree_depth=TEST_DEPTH,
            shard_depth=SHARD_DEPTH,
        )
        assert late.event_seq == manager.event_seq
        late.close()


class TestForgedAnnouncementHardening:
    def test_out_of_range_shard_id_rejected_before_recording(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x1800)
        forged = updates[0].digest()
        from dataclasses import replace

        with pytest.raises(SyncError):
            view.apply(replace(forged, shard_id=999))
        # Nothing was recorded: the genuine update still applies, and the
        # validator hot path keeps working.
        view.apply(updates[0])
        assert view.root == manager.root
        assert view.is_acceptable_root(manager.root)

    def test_noop_home_update_cannot_squat_a_seq(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x1900)
        view.apply(updates[0])
        # Forged seq-2 event "writing" an untouched zero slot to zero,
        # announcing the (unchanged) current roots.
        from dataclasses import replace
        from repro.crypto.field import ZERO
        from repro.crypto.optimized_merkle import TreeUpdate

        noop = ShardUpdate(
            seq=2,
            shard_id=0,
            update=TreeUpdate(index=5, new_leaf=ZERO, path=manager.tree.proof(5)),
            new_shard_root=updates[0].new_shard_root,
            new_global_root=updates[0].new_global_root,
        )
        with pytest.raises(InconsistentTreeUpdate):
            view.apply(noop)
        assert view.seq == 1  # the seq was not consumed
        register(chain, contract, 0x1901)
        view.apply(updates[1])  # the genuine seq-2 event lands
        assert view.root == manager.root

    def test_noop_foreign_digest_cannot_squat_a_seq(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=1, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        updates: list[ShardUpdate] = []
        manager.on_shard_update(updates.append)
        register(chain, contract, 0x1A00)
        view.apply(updates[0])
        view.commit()
        from dataclasses import replace

        stale = replace(updates[0].digest(), seq=2)  # re-announces held root
        with pytest.raises(InconsistentTreeUpdate):
            view.apply(stale)
        assert view.seq == 1


class TestLightView:
    """home_shard=None: the top-tree-only view light members track."""

    def test_tracks_roots_without_any_shard(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(
            home_shard=None, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH
        )
        manager.on_shard_update(view.apply)
        for i in range(20):
            register(chain, contract, 0xD00 + i)
        assert view.shard is None
        assert view.root == manager.root
        assert manager.root in view.recent_roots()
        # Every event — home shards do not exist — was an O(1) digest.
        assert view.stats.home_events == 0
        assert view.stats.foreign_events == 20

    def test_light_view_cannot_produce_witnesses(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(
            home_shard=None, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH
        )
        manager.on_shard_update(view.apply)
        register(chain, contract, 0xD50)
        with pytest.raises(MerkleError, match="light view holds no shard"):
            view.witness(0)

    def test_light_view_storage_is_top_tree_only(self, group):
        chain, contract, manager = group
        light = ShardSyncManager(
            home_shard=None, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH
        )
        full = ShardSyncManager(
            home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH
        )
        manager.on_shard_update(light.apply)
        manager.on_shard_update(full.apply)
        for i in range(16):  # fills shards 0 and 1
            register(chain, contract, 0xD80 + i)
        assert light.root == full.root == manager.root
        # The light view never paid for leaves: strictly less state, and
        # strictly fewer compressions (no home-shard replay).
        assert light.storage_bytes() < full.storage_bytes()
        assert light.hash_ops < full.hash_ops

    def test_light_view_is_a_root_acceptor(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(
            home_shard=None, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH
        )
        manager.on_shard_update(view.apply)
        register(chain, contract, 0xDD0)
        assert view.is_acceptable_root(manager.root)
        assert not view.is_acceptable_root(FieldElement(0xBADBAD))


class TestShardRemoval:
    """The compact removal artefact: wire shape, replay, window collapse."""

    def _grow(self, chain, contract, manager, count, base=0x2000):
        return [register(chain, contract, base + i) for i in range(count)]

    def test_removal_announced_for_deletion(self, group):
        chain, contract, manager = group
        events = []
        manager.on_shard_update(events.append)
        members = self._grow(chain, contract, manager, 3)
        slash(chain, contract, members[1])
        removal = events[-1]
        assert isinstance(removal, ShardRemoval)
        assert removal.index == 1
        assert removal.removed_leaf == members[1].pk
        assert removal.new_global_root == manager.root
        assert removal.new_shard_root == manager.shard_root(0)

    def test_wire_round_trip_and_strict_length(self, group):
        chain, contract, manager = group
        events = []
        manager.on_shard_update(events.append)
        members = self._grow(chain, contract, manager, 2)
        slash(chain, contract, members[0])
        removal = events[-1]
        encoded = removal.to_bytes()
        assert len(encoded) == removal.byte_size()
        assert ShardRemoval.from_bytes(encoded) == removal
        # Strict length: a digest payload or a truncated removal must not
        # mis-decode (removals share topics with updates and digests).
        with pytest.raises(ProtocolError):
            ShardRemoval.from_bytes(encoded[:-1])
        with pytest.raises(ProtocolError):
            ShardRemoval.from_bytes(events[0].digest().to_bytes())
        # And a removal is its own digest — same bytes on the digest feed.
        assert removal.digest() is removal

    def test_home_removal_replays_and_counts(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        members = self._grow(chain, contract, manager, 3)
        slash(chain, contract, members[2])
        assert view.root == manager.root
        assert view.shard.leaf(2).value == 0
        assert view.stats.removals_applied == 1
        assert view.stats.home_events == 4

    def test_foreign_removal_is_o1_and_collapses_window(self, group):
        chain, contract, manager = group
        # Home shard 1: every event below lands in shard 0 — all foreign.
        view = ShardSyncManager(home_shard=1, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        members = self._grow(chain, contract, manager, 4)
        stale_roots = []
        for _ in range(2):
            stale_roots.append(view.commit())
        hash_ops_before = view.hash_ops
        slash(chain, contract, members[1])
        assert view.hash_ops == hash_ops_before  # O(1) until commit
        assert view.stats.removals_applied == 1
        new_root = view.commit()
        assert new_root == manager.root
        # Window collapse: only the post-removal root survives.
        assert view.recent_roots() == [new_root]
        for root in stale_roots:
            assert not view.is_acceptable_root(root)

    def test_light_view_collapses_window_too(self, group):
        chain, contract, manager = group
        light = ShardSyncManager(
            home_shard=None, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH
        )
        manager.on_shard_update(lambda e: light.apply(e.digest()))
        members = self._grow(chain, contract, manager, 3)
        stale = light.commit()
        slash(chain, contract, members[0])
        assert light.commit() == manager.root
        assert not light.is_acceptable_root(stale)
        assert light.recent_roots() == [manager.root]
        assert light.stats.removals_applied == 1

    def test_forged_removal_wrong_leaf_rejected_and_rolled_back(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        events = []
        manager.on_shard_update(events.append)
        manager.on_shard_update(view.apply)
        members = self._grow(chain, contract, manager, 3)
        good_root = view.commit()
        forged = ShardRemoval(
            seq=view.seq + 1,
            shard_id=0,
            index=1,
            removed_leaf=FieldElement(0xBAD),  # not what slot 1 holds
            new_shard_root=FieldElement(0xBAD),
            new_global_root=FieldElement(0xBAD),
        )
        with pytest.raises(InconsistentTreeUpdate):
            view.apply(forged)
        assert view.shard.leaf(1) == members[1].pk  # untouched
        assert view.commit() == good_root
        # The genuine removal for that seq still applies cleanly.
        slash(chain, contract, members[1])
        assert view.root == manager.root

    def test_forged_removal_of_empty_slot_rejected(self, group):
        chain, contract, manager = group
        view = ShardSyncManager(home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        members = self._grow(chain, contract, manager, 2)
        slash(chain, contract, members[0])
        forged = ShardRemoval(
            seq=view.seq + 1,
            shard_id=0,
            index=0,  # already zeroed
            removed_leaf=members[0].pk,
            new_shard_root=FieldElement(0xBAD),
            new_global_root=FieldElement(0xBAD),
        )
        with pytest.raises(InconsistentTreeUpdate):
            view.apply(forged)

    def test_failed_window_collapse_defers_until_good_commit(self, group):
        """A removal whose commit cross-check fails must not evict good
        roots; the collapse waits for the first *successful* commit."""
        chain, contract, manager = group
        # Home shard 1: every event below lands in shard 0 — all foreign.
        view = ShardSyncManager(home_shard=1, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH)
        events = []
        manager.on_shard_update(events.append)
        members = self._grow(chain, contract, manager, 3)
        for event in events:
            view.apply(event.digest())
        good_root = view.commit()
        # The removal happens on-chain, but the announcement this view
        # receives was tampered with: the claimed global root is forged.
        slash(chain, contract, members[0])
        genuine = events[-1]
        assert isinstance(genuine, ShardRemoval)
        forged = ShardRemoval(
            seq=genuine.seq,
            shard_id=genuine.shard_id,
            index=genuine.index,
            removed_leaf=genuine.removed_leaf,
            new_shard_root=genuine.new_shard_root,
            new_global_root=FieldElement(0xBAD),
        )
        view.apply(forged)
        with pytest.raises(InconsistentTreeUpdate):
            view.commit()
        # Collapse deferred: the pre-removal window is untouched.
        assert good_root in view.recent_roots()
        # Recovery (the store path's tail): restore a checkpoint cut
        # after the removal; the first clean commit applies the held-back
        # collapse.
        view.restore(manager.checkpoint())
        assert view.commit() == manager.root
        assert view.recent_roots() == [manager.root]
        assert not view.is_acceptable_root(good_root)
