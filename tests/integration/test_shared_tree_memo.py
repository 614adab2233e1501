"""One deployment, one identity tree over one node-digest memo: a block
costs the fleet one rehash of its dirty nodes, and a publisher's fresh path
folds through the digests that rehash left in the memo — without a stale
witness, a cross-deployment replay or a leaked memo."""

import dataclasses
import gc
import weakref

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.epoch import external_nullifier
from repro.core.membership import GroupManager
from repro.crypto import merkle
from repro.crypto.field import FieldElement
from repro.errors import ProvingError
from repro.testing import mint_bundle
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

PEERS = 8
DEPTH = 20


def deployment(seed: int = 3, depth: int = DEPTH) -> RLNDeployment:
    config = RLNConfig(tree_depth=depth, epoch_length=1.0)
    return RLNDeployment.create(peer_count=PEERS, degree=4, seed=seed, config=config)


class TestHashBudget:
    def test_register_all_hashes_each_node_once_for_the_fleet(self, engine_hashes):
        first = deployment()
        spent = engine_hashes(first.register_all)
        # One block of PEERS registrations: the deployment's one tree
        # rehashes every distinct dirty ancestor once, sum over levels of
        # |{i >> l}| (24 for 8 consecutive leaves at depth 20, against
        # PEERS * DEPTH = 160 a path per event), plus two commitment hashes
        # per generated identity.
        block = sum(len({i >> level for i in range(PEERS)}) for level in range(1, DEPTH + 1))
        assert block == 24
        assert spent <= block + 2 * PEERS
        assert {p.group.tree.hash_ops for p in first.peers.values()} == {block}
        assert len({p.group.root for p in first.peers.values()}) == 1

        # A second fleet in the same process pays its own way: nothing is
        # replayed from the first one's memo.
        second = deployment()
        assert second.group.hasher is not first.group.hasher
        assert engine_hashes(second.register_all) == spent

    def test_a_publisher_on_an_unchanged_tree_keeps_its_witness(self, engine_hashes):
        dep = deployment()
        dep.register_all()
        dep.form_meshes()
        tracker = DeliveryTracker(dep)
        peer = dep.peers["peer-000"]
        # a1 = H(sk, epoch) and phi = H(a1), nothing else: the fresh path
        # folds through the memo register_all filled, the prover asks the
        # identity for what it derived a line earlier.
        assert engine_hashes(lambda: peer.publish(b"one")) == 2
        dep.run(1.0)  # next epoch; no membership event in between
        witness = peer.group.merkle_proof(peer.identity.pk)
        assert engine_hashes(lambda: peer.publish(b"two")) == 2
        assert peer.group.merkle_proof(peer.identity.pk) is witness
        # A double-signal is a second point on the line just derived.
        assert engine_hashes(lambda: peer.publish(b"two too", force=True)) == 0
        dep.run(1.0)
        assert tracker.delivery_count(b"two") == PEERS
        assert dep.total_spam_detected() > 0

    def test_a_root_change_inside_a_deployment_costs_a_publisher_nothing(self, engine_hashes):
        dep = deployment()
        ids = dep.peer_ids()
        dep.register_all(ids[:-1])
        dep.form_meshes()
        tracker = DeliveryTracker(dep)
        peer, leaver = dep.peers[ids[0]], dep.peers[ids[1]]
        peer.publish(b"before")
        dep.run(1.0)

        dep.register_all(ids[-1:])  # MemberRegistered
        assert engine_hashes(lambda: peer.publish(b"after registration")) == 2
        dep.run(1.0)
        assert tracker.delivery_count(b"after registration") == PEERS

        dep.chain.send_transaction(
            leaver.peer_id,
            dep.contract.address,
            "withdraw",
            {"pk": leaver.identity.pk.value},
        )
        dep.run(dep.chain.block_interval * 1.5)  # MemberRemoved
        assert not leaver.registered
        assert engine_hashes(lambda: peer.publish(b"after removal")) == 2
        dep.run(1.0)
        assert tracker.delivery_count(b"after removal") == PEERS

    def test_a_manager_outside_a_deployment_folds_its_path_for_real(self, engine_hashes):
        dep = deployment()
        dep.register_all()
        member = dep.peers["peer-000"].identity
        loner = GroupManager(dep.chain, dep.contract, tree_depth=DEPTH)  # no hasher=

        def mint(payload: bytes, epoch: int) -> None:
            mint_bundle(member, payload, epoch, loner, dep.prover)

        assert engine_hashes(lambda: mint(b"one", 7)) == DEPTH + 2
        assert engine_hashes(lambda: mint(b"two", 8)) == 2  # same path object

    def test_after_a_memo_overflow_the_fold_is_real_and_the_proof_still_verifies(
        self, monkeypatch, engine_hashes
    ):
        dep = deployment()
        ids = dep.peer_ids()
        dep.register_all(ids[:-1])
        dep.form_meshes()
        tracker = DeliveryTracker(dep)
        peer = dep.peers[ids[0]]
        dep.register_all(ids[-1:])  # a root change: the next path is fresh
        # Overflow through the real code path: the memo is at its limit,
        # so the next miss clears it.
        monkeypatch.setattr(merkle, "_MEMO_LIMIT", len(dep.group.hasher._memo))
        dep.group.hasher(FieldElement(1), FieldElement(2))
        assert len(dep.group.hasher._memo) == 1
        assert engine_hashes(lambda: peer.publish(b"cold")) == DEPTH + 2
        dep.run(1.0)
        assert tracker.delivery_count(b"cold") == PEERS

    def test_a_tampered_fresh_path_is_hashed_for_real_and_refused(
        self, monkeypatch, engine_hashes
    ):
        dep = deployment()
        dep.register_all()
        peer = dep.peers["peer-003"]
        honest = peer.group.tree.proof

        def tampered(index: int):
            path = honest(index)
            siblings = (path.siblings[0] + FieldElement(1),) + path.siblings[1:]
            return dataclasses.replace(path, siblings=siblings)

        monkeypatch.setattr(peer.group.tree, "proof", tampered)

        def refused_publish() -> None:
            with pytest.raises(
                ProvingError, match="membership: authentication path does not reach root"
            ):
                peer.publish(b"forged")

        # No node above the forged sibling is in the memo: all DEPTH levels
        # were computed, and the fold they gave is not the root.
        assert engine_hashes(refused_publish) == DEPTH + 2

    def test_a_dropped_deployment_frees_its_memo(self):
        dep = deployment(depth=8)
        dep.register_all()
        memo = weakref.ref(dep.group.hasher)
        assert len(memo()._memo) > 0
        del dep
        gc.collect()
        assert memo() is None


class TestStaleWitnessSafety:
    def test_a_root_change_yields_a_fresh_path(self):
        dep = deployment(depth=8)
        ids = dep.peer_ids()
        dep.register_all(ids[:-1])
        dep.form_meshes()
        tracker = DeliveryTracker(dep)
        peer = dep.peers[ids[0]]
        peer.publish(b"before")
        dep.run(1.0)
        stale = peer.group.merkle_proof(peer.identity.pk)

        def publishes_on_the_current_root(payload: bytes) -> None:
            message = peer.publish(payload)
            assert message.rate_limit_proof.root == peer.group.root
            fresh = peer.group.merkle_proof(peer.identity.pk)
            assert fresh is not stale and fresh.compute_root() == peer.group.root
            dep.run(1.0)
            assert tracker.delivery_count(payload) == PEERS

        dep.register_all(ids[-1:])  # MemberRegistered
        assert stale.compute_root() != peer.group.root
        publishes_on_the_current_root(b"after registration")

        stale = peer.group.merkle_proof(peer.identity.pk)
        leaver = dep.peers[ids[1]]
        dep.chain.send_transaction(
            leaver.peer_id,
            dep.contract.address,
            "withdraw",
            {"pk": leaver.identity.pk.value},
        )
        dep.run(dep.chain.block_interval * 1.5)  # MemberRemoved
        assert not leaver.registered
        assert peer.group.recent_roots() == [peer.group.root]  # window collapsed
        publishes_on_the_current_root(b"after removal")

    def test_a_tampered_sibling_still_fails_the_membership_check(self):
        dep = deployment(depth=8)
        dep.register_all()
        peer = dep.peers["peer-003"]
        peer.publish(b"warm")  # the honest path is folded and remembered
        honest = peer.group.merkle_proof(peer.identity.pk)
        siblings = (honest.siblings[0] + FieldElement(1),) + honest.siblings[1:]
        forged = dataclasses.replace(honest, siblings=siblings)
        public = RLNPublicInputs.for_message(
            peer.identity, b"x", external_nullifier(7), peer.group.root
        )
        with pytest.raises(ProvingError):
            dep.prover.prove(public, RLNWitness(peer.identity, forged))
        assert not forged.verify(peer.group.root)
        assert honest.verify(peer.group.root)
