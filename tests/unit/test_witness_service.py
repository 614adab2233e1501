"""Unit tests for the witness & snapshot service (repro.witness)."""

import random

import pytest

from repro import testing
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.membership import GroupManager
from repro.telemetry import Telemetry
from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleTree
from repro.errors import InconsistentTreeUpdate, ProtocolError
from repro.exec.executor import Priority, SimulatedCryptoExecutor
from repro.net.latency import ConstantLatency
from repro.net.request import RequestFailure
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.treesync import splice
from repro.witness.messages import WITNESS_PROTOCOL, WITNESS_REPLY_PROTOCOL
from repro.witness import (
    SnapshotRequest,
    SnapshotResponse,
    WitnessClient,
    WitnessRequest,
    WitnessResponse,
    WitnessService,
)
from repro.witness.client import checked_fold

from tests.conftest import two_level_reference

DEPTH = 8
SHARD_DEPTH = 3


@pytest.fixture()
def env():
    sim = Simulator()
    graph = full_mesh(3)
    network = Network(
        simulator=sim,
        graph=graph,
        latency=ConstantLatency(0.01),
        rng=random.Random(5),
    )
    chain = Blockchain()
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 500 * WEI)
    manager = GroupManager(
        chain,
        contract,
        tree_depth=DEPTH,
        shard_depth=SHARD_DEPTH,
    )
    members = [
        testing.register_member(chain, contract, 0x900 + i) for i in range(12)
    ]
    names = sorted(graph.nodes)
    return sim, network, names, manager, members


def make_client(env, *, executor=None, providers=None, timeout=0.2, rounds=2,
                telemetry=None):
    sim, network, names, manager, _ = env
    return WitnessClient(
        names[1],
        network,
        sim,
        providers or (names[0],),
        manager,
        tree_depth=DEPTH,
        executor=executor,
        timeout=timeout,
        rounds=rounds,
        telemetry=telemetry,
    )


class TestWireRoundtrips:
    def test_witness_messages_roundtrip(self, env):
        _, _, _, manager, _ = env
        proof = manager.tree.proof(5)
        request = WitnessRequest(request_id=9, index=5)
        assert WitnessRequest.from_bytes(request.to_bytes()) == request
        response = WitnessResponse(request_id=9, found=True, seq=12, proof=proof)
        decoded = WitnessResponse.from_bytes(response.to_bytes())
        assert decoded.proof == proof
        assert decoded.seq == 12
        assert len(response.to_bytes()) == response.byte_size()
        miss = WitnessResponse(request_id=3, found=False)
        assert WitnessResponse.from_bytes(miss.to_bytes()) == miss
        assert len(miss.to_bytes()) == miss.byte_size()

    def test_snapshot_messages_roundtrip(self):
        request = SnapshotRequest(request_id=4, shard_id=2)
        assert SnapshotRequest.from_bytes(request.to_bytes()) == request
        response = SnapshotResponse(
            request_id=4,
            found=True,
            shard_id=2,
            shard_depth=3,
            seq=7,
            leaves=((0, FieldElement(11)), (5, FieldElement(12))),
        )
        assert SnapshotResponse.from_bytes(response.to_bytes()) == response
        assert len(response.to_bytes()) == response.byte_size()


class TestWitnessFetch:
    def test_fetched_witness_is_node_identical_and_verified(self, env):
        sim, network, names, manager, _ = env
        service = WitnessService(names[0], manager, network)
        client = make_client(env)
        got = []
        client.witness(5, got.append)
        sim.run(2.0)
        assert got and got[0] == manager.tree.proof(5)
        assert got[0].verify(manager.root)
        assert service.stats.witnesses_served == 1
        # The served bytes are the path a shard-scoped peer would splice
        # from independently built shard and top trees.
        leaves = [FieldElement(pk) for pk in manager.contract.commitment_list()]
        shards, top = two_level_reference(leaves, DEPTH, SHARD_DEPTH)
        assert got[0] == splice(shards[0].proof(5), top.proof(0))

    def test_flat_backend_serves_identical_paths(self, env):
        """A second replica, on the default geometry, serves the same path."""
        sim, network, names, manager, _ = env
        other = GroupManager(manager.chain, manager.contract, tree_depth=DEPTH)
        service = WitnessService(names[2], other, network)
        client = make_client(env, providers=(names[2],))
        got = []
        client.witness(5, got.append)
        sim.run(2.0)
        assert got and got[0] == manager.tree.proof(5)
        assert service.stats.witnesses_served == 1
        other.close()

    def test_cache_hit_is_local_and_counted(self, env):
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        telemetry = Telemetry()
        client = make_client(env, telemetry=telemetry)
        client.witness(5, lambda proof: None)
        sim.run(2.0)
        attempts = client.dispatcher.stats.attempts
        got = []
        client.witness(5, got.append)  # no sim.run needed: cache is sync
        assert got
        assert client.dispatcher.stats.attempts == attempts  # no new fetch
        assert client.cache.stats.hits == 1
        # The registry reads the same stats object: no second store.
        registry = telemetry.registry
        assert registry.counter("witness_cache_hits_total", peer=names[1]).value == 1
        assert registry.counter("witness_cache_misses_total", peer=names[1]).value == 1
        assert registry.gauge("witness_cache_hit_ratio", peer=names[1]).value == 0.5

    def test_out_of_range_index_fails_over_to_failure(self, env):
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        client = make_client(env, rounds=1)
        failures = []
        client.witness(200, lambda proof: None, failures.append)
        sim.run(2.0)
        assert failures and isinstance(failures[0], RequestFailure)

    def test_tampered_response_rejected_and_failed_over(self, env):
        sim, network, names, manager, _ = env

        class EvilService(WitnessService):
            def _build_witness(self, request):
                response = super()._build_witness(request)
                if response.proof is None:
                    return response
                siblings = list(response.proof.siblings)
                siblings[0] = FieldElement(siblings[0].value ^ 1)
                forged = type(response.proof)(
                    leaf=response.proof.leaf,
                    index=response.proof.index,
                    siblings=tuple(siblings),
                    path_bits=response.proof.path_bits,
                )
                return WitnessResponse(
                    request_id=response.request_id,
                    found=True,
                    seq=response.seq,
                    proof=forged,
                )

        EvilService(names[2], manager, network)
        WitnessService(names[0], manager, network)
        client = make_client(env, providers=(names[2], names[0]))
        got = []
        client.witness(5, got.append)
        sim.run(2.0)
        # The evil provider's answer was rejected; the honest one won.
        assert got and got[0] == manager.tree.proof(5)
        assert client.dispatcher.stats.rejected == 1
        assert client.cache.stats.rejected == 1

    def test_expected_leaf_binds_the_slot(self, env):
        """A genuine path for the wrong occupant (slot zeroed or
        re-occupied) is rejected at the client, not in the prover."""
        sim, network, names, manager, members = env
        WitnessService(names[0], manager, network)
        client = make_client(env, rounds=1)
        failures = []
        got = []
        # Member 5's slot holds members[5].pk; demanding members[6].pk
        # there must fail even though the served path is perfectly valid.
        client.witness(
            5, got.append, failures.append, expected_leaf=members[6].pk
        )
        sim.run(2.0)
        assert not got
        assert failures and isinstance(failures[0], RequestFailure)
        assert client.cache.stats.rejected >= 1
        # The right commitment for the slot passes.
        client.witness(5, got.append, expected_leaf=members[5].pk)
        sim.run(4.0)
        assert got and got[0].leaf == members[5].pk

    def test_peer_can_serve_and_fetch_simultaneously(self, env):
        """Service (request channel) and client (reply channel) coexist
        on one peer: a resourceful peer may still prefer fetching."""
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        # names[0] also runs a client, fetching from names[2]'s service.
        WitnessService(names[2], manager, network)
        own_client = WitnessClient(
            names[0], network, sim, (names[2],), manager, tree_depth=DEPTH
        )
        got_own = []
        own_client.witness(3, got_own.append)
        # Meanwhile a light peer still fetches from names[0] — the
        # client registration must not have displaced the service's.
        light_client = make_client(env)
        got_light = []
        light_client.witness(5, got_light.append)
        sim.run(3.0)
        assert got_own and got_own[0] == manager.tree.proof(3)
        assert got_light and got_light[0] == manager.tree.proof(5)


class TestServiceExecutorPriority:
    def test_extraction_rides_the_service_lane(self, env):
        sim, network, names, manager, _ = env
        executor = SimulatedCryptoExecutor(sim, 1)
        WitnessService(names[0], manager, network, executor=executor)
        client = make_client(env)
        got = []
        client.witness(5, got.append)
        sim.run(2.0)
        assert got
        assert executor.stats.classes[Priority.SERVICE].submitted == 1
        assert executor.stats.classes[Priority.RELAY].submitted == 0


class TestInvalidationAndBackgroundRefresh:
    def test_update_invalidates_and_refreshes_on_background_lane(self, env):
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        executor = SimulatedCryptoExecutor(sim, 1)
        telemetry = Telemetry()
        client = make_client(env, executor=executor, telemetry=telemetry)
        manager.on_shard_update(client.on_tree_update)
        client.witness(5, lambda proof: None)
        sim.run(2.0)
        old = client.cache.get(5)
        assert old is not None
        # A new registration moves the tree: the cache must invalidate and
        # refresh on the BACKGROUND class.
        testing.register_member(manager.chain, manager.contract, 0xABC)
        assert len(client.cache) == 0
        sim.run(3.0)
        fresh = client.cache.get(5)
        assert fresh is not None
        assert fresh.verify(manager.root)
        assert fresh != old
        assert executor.stats.classes[Priority.BACKGROUND].submitted >= 1
        assert client.cache.stats.refreshes >= 1
        assert (
            telemetry.registry.counter("witness_refreshes_total", peer=names[1]).value
            == client.cache.stats.refreshes
        )

    def test_in_flight_fetch_does_not_repopulate_invalidated_cache(self, env):
        """A response that was in flight when the tree moved must not
        warm the cache with a pre-update path."""
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        client = make_client(env)
        manager.on_shard_update(client.on_tree_update)
        old_root = manager.root
        got = []
        client.witness(5, got.append)  # request departs at t=0
        # The tree moves after the service answered (t≈0.01) but before
        # the response lands at the client (t≈0.02).
        sim.schedule(0.015, lambda: testing.register_member(
            manager.chain, manager.contract, 0xF00D
        ))
        sim.run(5.0)
        # The in-flight path was delivered (it folds to a windowed root)…
        assert got and got[0].verify(old_root)
        # …but the cache ends up holding a *current* witness, not it.
        fresh = client.cache.get(5)
        assert fresh is not None
        assert fresh.verify(manager.root)

    def test_unwired_client_never_serves_a_stale_cache_hit(self, env):
        """Even without on_tree_update wiring, a cached path whose root
        is no longer the acceptor's current root is treated as a miss."""
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        client = make_client(env)  # deliberately not wired to updates
        client.witness(5, lambda proof: None)
        sim.run(2.0)
        assert len(client.cache) == 1
        testing.register_member(manager.chain, manager.contract, 0xFACE)
        attempts = client.dispatcher.stats.attempts
        got = []
        client.witness(5, got.append)
        sim.run(4.0)
        assert got and got[0].verify(manager.root)
        assert client.dispatcher.stats.attempts == attempts + 1  # re-fetched
        assert client.cache.stats.misses == 2

    def test_no_executor_refreshes_immediately(self, env):
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        client = make_client(env)
        manager.on_shard_update(client.on_tree_update)
        client.witness(5, lambda proof: None)
        sim.run(2.0)
        testing.register_member(manager.chain, manager.contract, 0xABD)
        sim.run(4.0)
        fresh = client.cache.get(5)
        assert fresh is not None and fresh.verify(manager.root)


class TestSnapshots:
    def test_snapshot_folds_to_the_shard_root(self, env):
        sim, network, names, manager, _ = env
        WitnessService(names[0], manager, network)
        client = make_client(env)
        got = []
        client.fetch_snapshot(0, got.append)
        sim.run(2.0)
        assert got and got[0] is not None
        snapshot = got[0]
        assert snapshot.shard_id == 0 and snapshot.shard_depth == SHARD_DEPTH
        full = [FieldElement(0)] * (1 << SHARD_DEPTH)
        for local, leaf in snapshot.leaves:
            full[local] = leaf
        rebuilt = MerkleTree.from_leaves(full, depth=SHARD_DEPTH)
        assert rebuilt.root == manager.shard_root(0)

    def test_snapshot_failure_delivers_none(self, env):
        sim, network, names, manager, _ = env
        client = make_client(env, rounds=1)  # no service registered
        got = []
        client.fetch_snapshot(0, got.append)
        sim.run(2.0)
        assert got == [None]

    def test_out_of_range_shard_is_a_miss(self, env):
        sim, network, names, manager, _ = env
        service = WitnessService(names[0], manager, network)
        client = make_client(env, rounds=1)
        got = []
        client.fetch_snapshot(1 << DEPTH, got.append)
        sim.run(3.0)
        assert got == [None]
        assert service.stats.snapshot_misses >= 1

    def test_snapshot_request_to_a_depth_one_tree_is_a_miss_not_a_crash(self):
        """Regression: the handler used to raise ProtocolError out of
        Simulator.run — one remote request aborted the whole fleet."""
        dep = RLNDeployment.create(
            peer_count=4, degree=3, seed=3, config=RLNConfig(tree_depth=1)
        )
        server, neighbour = sorted(dep.peers)[:2]
        service = dep.peer(server).witness_service()
        replies = []
        dep.network.register(
            neighbour,
            lambda _sender, reply: replies.append(reply),
            protocol=WITNESS_REPLY_PROTOCOL,
        )
        dep.network.send(
            neighbour, server, SnapshotRequest(1, 0), protocol=WITNESS_PROTOCOL
        )
        dep.run(1.0)
        assert replies == [SnapshotResponse(request_id=1, found=False)]
        assert service.stats.snapshot_misses == 1
        assert service.stats.snapshots_served == 0


class TestVerifyWitness:
    def test_structural_checks(self, env):
        _, _, _, manager, _ = env
        proof = manager.tree.proof(5)

        class Window:
            def is_acceptable_root(self, root):
                return root == manager.root

        # The client's decision: the checked fold, then the root window.
        assert Window().is_acceptable_root(checked_fold(proof, index=5, depth=DEPTH))
        # Another member's (valid!) witness must not pass for index 5.
        other = manager.tree.proof(6)
        assert checked_fold(other, index=5, depth=DEPTH) is None
        # Wrong depth is rejected before any hashing.
        assert checked_fold(proof, index=5, depth=DEPTH + 1) is None


class TestLightDistributedManager:
    def test_member_index_is_the_slot_to_fetch(self, monkeypatch):
        from repro.crypto.field import FieldElement
        from repro.crypto.identity import derive_commitment
        from repro.offchain.group_registry import (
            DistributedGroupManager,
            GroupSnapshot,
            MembershipRecord,
        )

        sks = [FieldElement(v) for v in (11, 22, 33)]
        pks = [derive_commitment(sk) for sk in sks]
        manager = DistributedGroupManager("p", dht=None, tree_depth=DEPTH)
        monkeypatch.setattr(
            manager, "build_tree", lambda: pytest.fail("a light member built a tree")
        )
        manager.snapshot = GroupSnapshot(
            records=frozenset(
                MembershipRecord(pk=int(pk), owner="o", lamport=i + 1)
                for i, pk in enumerate(pks)
            )
        )
        assert manager.member_index(pks[2]) == 2
        # A removed member has no slot to fetch a witness for.
        manager.snapshot = manager.snapshot.merge(
            GroupSnapshot(
                records=frozenset(
                    {MembershipRecord(int(pks[2]), "o", 9, removal_sk=int(sks[2]))}
                )
            )
        )
        with pytest.raises(ProtocolError, match="removed"):
            manager.member_index(pks[2])
        assert manager.member_index(pks[1]) == 1


class TestRevocationHandling:
    """ShardRemoval-aware invalidation: dead slots fail fast, the rest
    refresh on BACKGROUND lanes as before."""

    def slash(self, env, member):
        _, _, _, manager, _ = env
        chain, contract = manager.chain, manager.contract
        from repro.crypto.commitments import commit as make_commitment

        commitment, opening = make_commitment(
            member.sk.to_bytes(), b"funder"
        )
        chain.send_transaction(
            "funder", contract.address, "slash_commit",
            {"digest": commitment.digest},
        )
        chain.mine_block()
        chain.send_transaction(
            "funder", contract.address, "slash_reveal",
            {"sk": member.sk.value, "nonce": opening.nonce},
        )
        chain.mine_block()

    def test_own_slot_removal_marks_revoked_and_fails_fast(self, env):
        sim, network, names, manager, members = env
        WitnessService(names[0], manager, network)
        client = make_client(env)
        manager.on_shard_update(client.on_shard_event)
        victim_index = 5
        got = []
        client.witness(
            victim_index, got.append, expected_leaf=members[victim_index].pk
        )
        sim.run(sim.now + 5.0)
        assert got
        attempts_before = client.dispatcher.stats.attempts
        self.slash(env, members[victim_index])
        assert client._revoked == {victim_index}
        assert client.cache.stats.revocations_observed == 1
        failures = []
        client.witness(victim_index, got.append, failures.append)
        sim.run(sim.now + 5.0)
        # Failed locally, without a single provider round trip.
        assert len(failures) == 1
        assert "revoked" in failures[0].reason
        assert client.dispatcher.stats.attempts == attempts_before
        assert client.cache.stats.revoked_fast_fails == 1

    def test_survivors_refresh_revoked_slot_does_not(self, env):
        sim, network, names, manager, members = env
        WitnessService(names[0], manager, network)
        client = make_client(env)
        manager.on_shard_update(client.on_shard_event)
        survivor, victim = 2, 3
        got = []
        client.witness(survivor, got.append, expected_leaf=members[survivor].pk)
        client.witness(victim, got.append, expected_leaf=members[victim].pk)
        sim.run(sim.now + 5.0)
        assert len(got) == 2
        self.slash(env, members[victim])
        sim.run(sim.now + 5.0)
        # The survivor's witness was re-fetched against the post-removal
        # tree and folds to the *current* root; the victim's was not.
        assert client.cache.get(survivor) is not None
        assert client.cache.get(victim) is None
        assert client.cache.root_of(survivor) == manager.root
        # A warm post-removal publish path for the survivor: cache hit.
        hits_before = client.cache.stats.hits
        client.witness(survivor, got.append, expected_leaf=members[survivor].pk)
        assert client.cache.stats.hits == hits_before + 1

    def test_foreign_removal_does_not_revoke_other_slots(self, env):
        sim, network, names, manager, members = env
        WitnessService(names[0], manager, network)
        client = make_client(env)
        manager.on_shard_update(client.on_shard_event)
        client.witness(7, lambda p: None, expected_leaf=members[7].pk)
        sim.run(sim.now + 5.0)
        self.slash(env, members[1])  # someone else's slot
        assert not client._revoked
        # The cache was still invalidated (every path crossed the change).
        sim.run(sim.now + 5.0)
        assert client.cache.stats.invalidations >= 1
