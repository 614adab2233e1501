"""Figure 1: the complete system flow, end to end.

register -> sync trees -> publish with proof -> route with validation ->
spam detection -> key recovery -> commit-reveal slashing -> reward.
"""

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.slashing import SlashState

DEPTH = 8


@pytest.fixture(scope="module")
def deployment():
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
    dep = RLNDeployment.create(peer_count=10, degree=4, seed=42, config=config)
    dep.register_all()
    dep.form_meshes(5.0)
    return dep


class TestFigure1:
    def test_complete_flow(self, deployment):
        dep = deployment
        # --- honest publishing round --------------------------------------
        alice = dep.peer("peer-000")
        alice.publish(b"figure-1 honest message")
        dep.run(3.0)
        assert dep.delivery_count(b"figure-1 honest message") == 10

        # --- spam round ----------------------------------------------------
        spammer = dep.peer("peer-007")
        spammer.publish(b"spam-a", force=True)
        dep.run(2.0)
        spammer.publish(b"spam-b", force=True)
        dep.run(2.0)

        # Second message stopped at the spammer's direct connections.
        assert dep.delivery_count(b"spam-b") == 1
        assert dep.total_spam_detected() >= 1

        # --- economic consequences -----------------------------------------
        supply_before = dep.chain.total_supply()
        dep.run(6 * dep.chain.block_interval)
        # Spammer removed on chain and from every peer's local tree.
        assert not dep.contract.is_member(spammer.identity.pk)
        from repro.errors import NotRegistered

        for peer in dep.peers.values():
            with pytest.raises(NotRegistered):
                peer.group.index_of(spammer.identity.pk)
        roots = {p.group.root.value for p in dep.peers.values()}
        assert len(roots) == 1  # everyone re-synced to the post-slash tree

        # Exactly one slasher claimed the deposit.
        rewarded = [
            a
            for p in dep.peers.values()
            for a in p.slasher.attempts
            if a.state is SlashState.REWARDED
        ]
        assert len(rewarded) == 1
        assert rewarded[0].reward == dep.contract.deposit
        assert dep.chain.total_supply() == supply_before

    def test_messaging_is_free(self, deployment):
        # §III-A: "sending messages in WAKU-RLN-RELAY is for free i.e.,
        # does not need gas consumption."  Publishing must not create any
        # chain transaction.
        dep = deployment
        pending_before = len(dep.chain._mempool)
        receipts_before = len(dep.chain._receipts)
        dep.run(dep.config.epoch_length + 1)  # fresh epoch for peer-000
        dep.peer("peer-000").publish(b"free message")
        dep.run(2.0)
        assert len(dep.chain._mempool) == pending_before
        assert len(dep.chain._receipts) == receipts_before

    def test_anonymity_no_identity_on_wire(self, deployment):
        # The §III-E bundle carries shares and nullifiers but neither pk
        # nor any account identifier.
        dep = deployment
        dep.run(dep.config.epoch_length + 1)
        message = dep.peer("peer-001").publish(b"anonymous")
        bundle = message.rate_limit_proof
        identity = dep.peer("peer-001").identity
        wire_values = {
            bundle.share_x.value,
            bundle.share_y.value,
            bundle.internal_nullifier.value,
            bundle.root.value,
        }
        assert identity.pk.value not in wire_values
        assert identity.sk.value not in wire_values
