"""Unit tests for the deployment harness."""

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.errors import ProtocolError
from repro.net.clock import DriftModel
from repro.net.topology import random_regular

DEPTH = 8


class TestCreate:
    def test_builds_requested_peer_count(self):
        dep = RLNDeployment.create(peer_count=6, degree=3, seed=1, config=RLNConfig(tree_depth=DEPTH))
        assert len(dep.peers) == 6
        assert dep.contract.address in dep.chain._contracts

    def test_odd_degree_product_fixed_up(self):
        # 5 peers x degree 3 is impossible; harness bumps the degree.
        dep = RLNDeployment.create(peer_count=5, degree=3, seed=2, config=RLNConfig(tree_depth=DEPTH))
        assert len(dep.peers) == 5

    def test_custom_graph_respected(self):
        graph = random_regular(8, 4, seed=3)
        dep = RLNDeployment.create(
            peer_count=0, graph=graph, seed=3, config=RLNConfig(tree_depth=DEPTH)
        )
        assert set(dep.peers) == set(graph.nodes)

    def test_all_peers_share_one_prover(self):
        dep = RLNDeployment.create(peer_count=4, degree=2, seed=4, config=RLNConfig(tree_depth=DEPTH))
        provers = {id(p.prover) for p in dep.peers.values()}
        assert len(provers) == 1

    def test_drift_model_applied(self):
        dep = RLNDeployment.create(
            peer_count=6,
            degree=3,
            seed=5,
            config=RLNConfig(tree_depth=DEPTH),
            drift=DriftModel(5.0),
        )
        offsets = {p.clock.offset for p in dep.peers.values()}
        assert len(offsets) > 1
        assert all(abs(o) <= 5.0 for o in offsets)

    def test_mismatched_prover_depth_rejected(self):
        from repro.zksnark.prover import NativeProver
        from repro.chain.blockchain import Blockchain
        from repro.chain.rln_contract import RLNMembershipContract
        from repro.core.protocol import WakuRLNRelayPeer
        from repro.net.simulator import Simulator
        from repro.net.topology import full_mesh
        from repro.net.transport import Network

        sim = Simulator()
        chain = Blockchain()
        contract = RLNMembershipContract()
        chain.deploy(contract)
        network = Network(simulator=sim, graph=full_mesh(2))
        with pytest.raises(ProtocolError):
            WakuRLNRelayPeer(
                "peer-000",
                network=network,
                simulator=sim,
                chain=chain,
                contract=contract,
                slash_key=bytes(32),
                config=RLNConfig(tree_depth=DEPTH),
                prover=NativeProver(DEPTH + 1),
            )


class TestOperation:
    def test_register_subset(self):
        dep = RLNDeployment.create(peer_count=6, degree=3, seed=6, config=RLNConfig(tree_depth=DEPTH))
        dep.register_all(["peer-000", "peer-001"])
        assert dep.contract.member_count() == 2
        assert dep.peer("peer-000").registered
        assert not dep.peer("peer-005").registered

    def test_unknown_peer_raises(self):
        dep = RLNDeployment.create(peer_count=4, degree=2, seed=7, config=RLNConfig(tree_depth=DEPTH))
        with pytest.raises(ProtocolError):
            dep.peer("peer-999")

    def test_run_advances_chain_in_lockstep(self):
        dep = RLNDeployment.create(peer_count=4, degree=2, seed=8, config=RLNConfig(tree_depth=DEPTH))
        dep.run(25.0)
        # 12 s blocks: two blocks should have been mined by t=25.
        assert dep.chain.block_number >= 2
        assert dep.chain.time <= dep.simulator.now

    def test_peer_ids_sorted(self):
        dep = RLNDeployment.create(peer_count=4, degree=2, seed=9, config=RLNConfig(tree_depth=DEPTH))
        assert dep.peer_ids() == sorted(dep.peer_ids())
