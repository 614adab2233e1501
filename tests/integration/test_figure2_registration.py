"""Figure 2: the registration flow.

identity generation -> transaction with deposit -> mining delay ->
MemberRegistered event -> every peer's off-chain tree updates (§III-B/C).
"""

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.errors import RegistrationError

DEPTH = 8


@pytest.fixture()
def deployment():
    config = RLNConfig(tree_depth=DEPTH)
    return RLNDeployment.create(peer_count=6, degree=3, seed=7, config=config)


class TestFigure2:
    def test_registration_waits_for_mining(self, deployment):
        dep = deployment
        peer = dep.peer("peer-000")
        peer.create_identity()
        peer.request_registration()
        # Before the block is mined nothing is registered.
        assert not peer.registered
        assert dep.contract.member_count() == 0
        dep.run(dep.chain.block_interval * 1.5)
        assert peer.registered
        assert dep.contract.member_count() == 1

    def test_event_driven_tree_sync_on_all_peers(self, deployment):
        dep = deployment
        dep.register_all()
        # Every peer (including ones that registered nothing themselves)
        # has the identical local tree.
        roots = {p.group.root.value for p in dep.peers.values()}
        assert len(roots) == 1
        counts = {p.group.member_count() for p in dep.peers.values()}
        assert counts == {6}
        for peer in dep.peers.values():
            peer.group.assert_synced()

    def test_deposit_moves_to_contract(self, deployment):
        dep = deployment
        peer = dep.peer("peer-001")
        balance_before = dep.chain.balance_of("peer-001")
        peer.create_identity()
        peer.request_registration()
        dep.run(dep.chain.block_interval * 1.5)
        assert dep.contract.balance == dep.contract.deposit
        spent = balance_before - dep.chain.balance_of("peer-001")
        assert spent >= dep.contract.deposit  # deposit + gas

    def test_member_index_matches_contract_order(self, deployment):
        dep = deployment
        order = []
        for name in ("peer-003", "peer-001", "peer-004"):
            peer = dep.peer(name)
            peer.create_identity()
            peer.request_registration()
            order.append(peer)
            dep.run(dep.chain.block_interval * 1.5)
        for expected_index, peer in enumerate(order):
            assert peer.group.index_of(peer.identity.pk) == expected_index
            assert dep.contract.commitment_list().index(peer.identity.pk.value) == expected_index

    def test_cannot_register_twice(self, deployment):
        dep = deployment
        peer = dep.peer("peer-000")
        peer.create_identity()
        peer.request_registration()
        dep.run(dep.chain.block_interval * 1.5)
        tx = peer.request_registration()  # second attempt with same pk
        dep.run(dep.chain.block_interval * 1.5)
        receipt = dep.chain.receipt(tx)
        assert receipt is not None and not receipt.success

    def test_underfunded_peer_fails_cleanly(self):
        config = RLNConfig(tree_depth=DEPTH)
        dep = RLNDeployment.create(
            peer_count=4, degree=2, seed=8, config=config, funding_wei=10
        )
        peer = dep.peer("peer-000")
        peer.create_identity()
        peer.request_registration()
        with pytest.raises(RegistrationError):
            dep.register_all(["peer-001"])  # settle raises for failed member
