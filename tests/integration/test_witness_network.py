"""Integration: the witness & snapshot subsystem end to end.

Two workload classes the subsystem opens:

* a **light member** — no tree, no shard, only a digest-fed top-tree view
  — publishes RLN-valid messages at network scale using witnesses fetched
  from a resourceful peer, and the unchanged validators accept them;
* a **late joiner** whose home-shard history aged out of the store's
  retention window bootstraps via authenticated snapshot transfer where
  checkpoint+delta replay alone fails (the regression the snapshot
  fallback exists for).
"""

import random

import pytest

from repro import testing
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.membership import GroupManager
from repro.core.validator import ValidationOutcome
from repro.crypto.field import FieldElement
from repro.errors import InconsistentTreeUpdate
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry import Telemetry
from repro.treesync import ShardSyncManager, TreeSyncPublisher
from repro.waku.relay import WakuRelay
from repro.waku.store import StoreClient, StoreNode
from repro.witness import LightMember, SnapshotResponse, WitnessClient, WitnessService

DEPTH = 8
SHARD_DEPTH = 3


class TestLightMemberPublishes:
    """A member that never holds a tree publishes through the real mesh."""

    def test_light_member_publishes_rln_valid_traffic(self):
        config = RLNConfig(
            epoch_length=30.0,
            max_epoch_gap=2,
            tree_depth=DEPTH,
            shard_depth=SHARD_DEPTH,
        )
        dep = RLNDeployment.create(peer_count=6, degree=3, seed=21, config=config)
        serving = dep.peer("peer-000")
        # The light member's entire tree-shaped state: a digest-fed light
        # view (top tree only — home_shard=None, no leaves ever held).
        view = ShardSyncManager(
            home_shard=None, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        serving.group.on_shard_update(view.apply)
        dep.register_all()
        dep.form_meshes(5.0)

        # Register the light member on-chain like any other member.
        dep.chain.fund("funder", 10 * WEI)
        identity = testing.register_member(dep.chain, dep.contract, 0x1A2B3C)
        dep.run(1.0)
        index = serving.group.index_of(identity.pk)

        # Resourceful role on peer-000; light client node joins the graph.
        service = serving.witness_service()
        dep.network.add_peer("light-member", ["peer-000", "peer-001"])
        client = WitnessClient(
            "light-member",
            dep.network,
            dep.simulator,
            ("peer-000",),
            view,
            tree_depth=DEPTH,
        )
        serving.group.on_shard_update(client.on_tree_update)
        member = LightMember(
            identity,
            index,
            prover=dep.prover,
            client=client,
            timestamp=serving.unix_now,
        )
        assert view.shard is None  # truly no shard held anywhere

        epoch = serving.current_epoch()
        published = []
        member.publish(
            b"hello from a treeless member",
            epoch,
            serving.relay.publish,
            on_published=published.append,
        )
        dep.run(4.0)
        assert published and member.published == 1
        # The mesh delivered it, and remote validators judged it VALID
        # through the unchanged §III-F pipeline.
        receiver = dep.peer("peer-004")
        assert any(
            m.payload == b"hello from a treeless member" for m in receiver.received
        )
        valid_counts = sum(
            p.validator.stats.count(ValidationOutcome.VALID)
            for p in dep.peers.values()
        )
        assert valid_counts >= 1
        invalid_counts = sum(
            p.validator.stats.count(ValidationOutcome.INVALID_PROOF)
            for p in dep.peers.values()
        )
        assert invalid_counts == 0
        assert service.stats.witnesses_served == 1

    def test_warm_cache_publish_needs_no_fetch(self):
        config = RLNConfig(
            epoch_length=30.0,
            max_epoch_gap=2,
            tree_depth=DEPTH,
            shard_depth=SHARD_DEPTH,
        )
        dep = RLNDeployment.create(peer_count=4, degree=3, seed=22, config=config)
        serving = dep.peer("peer-000")
        view = ShardSyncManager(
            home_shard=None, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        serving.group.on_shard_update(view.apply)
        dep.register_all()
        dep.form_meshes(5.0)
        dep.chain.fund("funder", 10 * WEI)
        identity = testing.register_member(dep.chain, dep.contract, 0x4D5E6F)
        dep.run(1.0)
        serving.witness_service()
        dep.network.add_peer("light-member", ["peer-000"])
        client = WitnessClient(
            "light-member",
            dep.network,
            dep.simulator,
            ("peer-000",),
            view,
            tree_depth=DEPTH,
        )
        member = LightMember(
            identity,
            serving.group.index_of(identity.pk),
            prover=dep.prover,
            client=client,
            timestamp=serving.unix_now,
        )
        member.prefetch_witness()
        dep.run(2.0)
        fetches_before = client.dispatcher.stats.attempts
        member.publish(
            b"warm cache", serving.current_epoch(), serving.relay.publish
        )
        # O(1) publish path: the witness came from the cache synchronously,
        # before any simulated time passed.
        assert member.published == 1
        assert client.dispatcher.stats.attempts == fetches_before
        assert client.cache.stats.hits == 1
        dep.run(3.0)
        assert any(
            m.payload == b"warm cache" for m in dep.peer("peer-002").received
        )


@pytest.fixture()
def store_net():
    sim = Simulator()
    graph = full_mesh(3)
    network = Network(
        simulator=sim,
        graph=graph,
        latency=ConstantLatency(0.01),
        rng=random.Random(11),
    )
    relays = {
        peer: WakuRelay(peer, network, sim, rng=random.Random(i))
        for i, peer in enumerate(sorted(graph.nodes))
    }
    for relay in relays.values():
        relay.start()
    sim.run(3.0)
    return sim, network, relays


@pytest.fixture()
def publisher_group():
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
    return chain, contract, manager


class TestLateJoinerSnapshotBootstrap:
    """Store retention aged the home topic out: checkpoint+delta fails,
    authenticated snapshot transfer succeeds."""

    #: Small enough that shard 0's 8 early updates are evicted by the 60
    #: later registrations (each event = 1 update + 1 digest message).
    RETENTION = 48

    def _fill(self, store, chain, contract, manager):
        publisher = TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)
        for i in range(60):
            testing.register_member(chain, contract, 0x6000 + i)
        assert publisher.checkpoints_published >= 1
        return publisher

    def test_checkpoint_delta_alone_fails(self, store_net, publisher_group):
        """The regression this subsystem fixes: before snapshot transfer,
        a late joiner whose home history aged out hit a hard
        InconsistentTreeUpdate."""
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        late = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        client = StoreClient(names[1], network)
        late.sync_from_store(client, names[0])
        with pytest.raises(InconsistentTreeUpdate):
            sim.run(10.0)

    def test_snapshot_transfer_bootstraps(self, store_net, publisher_group):
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        WitnessService(names[0], manager, network)
        late = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        witness_client = WitnessClient(
            names[1],
            network,
            sim,
            (names[0],),
            late,
            tree_depth=DEPTH,
        )
        store_client = StoreClient(names[1], network)
        roots = []
        late.sync_from_store(
            store_client,
            names[0],
            snapshot_fetch=witness_client.fetch_snapshot,
            on_done=roots.append,
        )
        sim.run(10.0)
        assert roots and roots[0] == manager.root
        assert late.seq == manager.event_seq
        assert late.stats.snapshots_restored == 1
        # The restored shard is fully usable: local witnesses match the
        # resourceful peer's tree node for node.
        for index in (0, 3, 7):
            assert late.witness(index) == manager.tree.proof(index)
        # And the recovered peer re-joins the live feed seamlessly.
        manager.on_shard_update(late.apply)
        testing.register_member(chain, contract, 0x7777)
        assert late.root == manager.root

    def test_tampered_snapshot_is_rejected(self, store_net, publisher_group):
        """Never trust the server: a snapshot that does not fold to the
        shard root the accepted stream commits to must be refused."""
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        class EvilService(WitnessService):
            def _build_snapshot(self, request):
                response = super()._build_snapshot(request)
                if not response.leaves:
                    return response
                leaves = list(response.leaves)
                local, leaf = leaves[0]
                leaves[0] = (local, FieldElement(leaf.value ^ 1))
                return SnapshotResponse(
                    request_id=response.request_id,
                    found=True,
                    shard_id=response.shard_id,
                    shard_depth=response.shard_depth,
                    seq=response.seq,
                    leaves=tuple(leaves),
                )

        EvilService(names[0], manager, network)
        late = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        witness_client = WitnessClient(
            names[1], network, sim, (names[0],), late, tree_depth=DEPTH, rounds=1
        )
        store_client = StoreClient(names[1], network)
        late.sync_from_store(
            store_client,
            names[0],
            snapshot_fetch=witness_client.fetch_snapshot,
        )
        with pytest.raises(InconsistentTreeUpdate, match="does not fold"):
            sim.run(10.0)

    def test_tampered_snapshot_fails_over_to_honest_provider(
        self, store_net, publisher_group
    ):
        """One lying provider must not block a bootstrap an honest one
        can serve: the consumer's rejection feeds back into failover."""
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        class EvilService(WitnessService):
            def _build_snapshot(self, request):
                response = super()._build_snapshot(request)
                if not response.leaves:
                    return response
                leaves = list(response.leaves)
                local, leaf = leaves[0]
                leaves[0] = (local, FieldElement(leaf.value ^ 1))
                return SnapshotResponse(
                    request_id=response.request_id,
                    found=True,
                    shard_id=response.shard_id,
                    shard_depth=response.shard_depth,
                    seq=response.seq,
                    leaves=tuple(leaves),
                )

        evil = EvilService(names[2], manager, network)
        WitnessService(names[0], manager, network)
        late = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        witness_client = WitnessClient(
            names[1],
            network,
            sim,
            (names[2], names[0]),  # evil first
            late,
            tree_depth=DEPTH,
            rounds=1,
        )
        roots = []
        late.sync_from_store(
            StoreClient(names[1], network),
            names[0],
            snapshot_fetch=witness_client.fetch_snapshot,
            on_done=roots.append,
        )
        sim.run(10.0)
        assert evil.stats.snapshots_served == 1  # it did answer — and lost
        assert witness_client.cache.stats.rejected == 1
        assert roots and roots[0] == manager.root
        assert late.stats.snapshots_restored == 1

    def test_registration_racing_the_fetch_retries_and_succeeds(
        self, store_net, publisher_group
    ):
        """A membership event landing between the digest query and the
        snapshot response makes every honest snapshot 'too new' for the
        first pass; the bounded re-sync must recover instead of treating
        honest providers as tampered."""
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        WitnessService(names[0], manager, network)
        late = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        witness_client = WitnessClient(
            names[1], network, sim, (names[0],), late, tree_depth=DEPTH
        )
        roots = []
        late.sync_from_store(
            StoreClient(names[1], network),
            names[0],
            snapshot_fetch=witness_client.fetch_snapshot,
            on_done=roots.append,
        )
        # Land a registration after the digest page left the store but
        # before the snapshot is cut (the query chain runs at 10 ms/hop).
        sim.schedule(0.065, lambda: testing.register_member(
            chain, contract, 0xACE
        ))
        sim.run(10.0)
        assert roots and roots[0] == manager.root
        assert late.seq == manager.event_seq  # includes the racing event
        assert late.stats.snapshots_restored == 1

    @staticmethod
    def _assert_series_equal_stats(telemetry, view, peer):
        """Every ``treesync_*`` counter series equals its TreeSyncStats field."""
        counter = telemetry.registry.counter
        stats = view.stats
        assert {
            "home_events": counter("treesync_events_total", peer=peer, kind="home").value,
            "foreign_events": counter(
                "treesync_events_total", peer=peer, kind="foreign"
            ).value,
            "commits": counter("treesync_commits_total", peer=peer).value,
            "rollbacks": counter("treesync_rollbacks_total", peer=peer).value,
            "checkpoints_restored": counter(
                "treesync_checkpoints_restored_total", peer=peer
            ).value,
            "snapshots_restored": counter(
                "treesync_snapshots_restored_total", peer=peer
            ).value,
            "removals_applied": counter("treesync_removals_total", peer=peer).value,
            "bytes_consumed": counter("treesync_bytes_consumed_total", peer=peer).value,
        } == vars(stats)

    def test_failed_adoption_rolls_back_for_the_next_provider(
        self, store_net, publisher_group
    ):
        """A snapshot can pass authentication and still fail the final
        commit cross-check (colluding forged digest); the view must roll
        back so a retry from another provider starts clean."""
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        # A genuine snapshot of shard 0 (global index == local index).
        from repro.crypto.field import ZERO

        capacity = 1 << SHARD_DEPTH
        snapshot = SnapshotResponse(
            request_id=0,
            found=True,
            shard_id=0,
            shard_depth=SHARD_DEPTH,
            seq=manager.event_seq,
            leaves=tuple(
                (i, manager.tree.leaf(i))
                for i in range(capacity)
                if manager.tree.leaf(i) != ZERO
            ),
        )
        telemetry = Telemetry()
        late = ShardSyncManager(
            home_shard=0,
            depth=DEPTH,
            shard_depth=SHARD_DEPTH,
            telemetry=telemetry,
            peer_id="late",
        )
        # Inject a commit-stage failure on the first adoption only.
        original = late._replay_deltas
        injected = []

        def flaky(home_updates, digests):
            if not injected:
                injected.append(True)
                raise InconsistentTreeUpdate("injected commit failure")
            return original(home_updates, digests)

        late._replay_deltas = flaky
        verdicts = []

        def fetch(shard_id, deliver):
            assert shard_id == 0
            verdicts.append(deliver(snapshot))  # first: adoption fails
            if verdicts[-1] is False:
                verdicts.append(deliver(snapshot))  # retry on a clean view

        roots = []
        late.sync_from_store(
            StoreClient(names[1], network),
            names[0],
            snapshot_fetch=fetch,
            on_done=roots.append,
        )
        sim.run(10.0)
        assert verdicts == [False, True]
        assert roots and roots[0] == manager.root
        assert late.stats.snapshots_restored == 1  # the rolled-back try is not counted
        assert late.stats.rollbacks == 1
        assert late.witness(0) == manager.tree.proof(0)
        self._assert_series_equal_stats(telemetry, late, "late")

    def test_rolled_back_adoption_does_not_double_count_stats(
        self, store_net, publisher_group
    ):
        """An adoption that fails its commit cross-check after a full delta
        replay must roll the event/byte counters back too — E12/E14 report
        them as per-peer sync traffic, and a failed-over bootstrap must
        account the delta window exactly once."""
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        from repro.crypto.field import ZERO

        capacity = 1 << SHARD_DEPTH
        snapshot = SnapshotResponse(
            request_id=0,
            found=True,
            shard_id=0,
            shard_depth=SHARD_DEPTH,
            seq=manager.event_seq,
            leaves=tuple(
                (i, manager.tree.leaf(i))
                for i in range(capacity)
                if manager.tree.leaf(i) != ZERO
            ),
        )

        def fetch(shard_id, deliver):
            deliver(snapshot)

        # Control: a clean single-pass bootstrap from the same archive.
        control = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        control.sync_from_store(
            StoreClient(names[1], network), names[0], snapshot_fetch=fetch
        )

        # Flaky: the first adoption replays every delta (incrementing the
        # counters) and only then fails, as a colluding forged digest would
        # at the commit cross-check; the second adoption must start from
        # counters rolled back to their pre-attempt values.
        telemetry = Telemetry()
        late = ShardSyncManager(
            home_shard=0,
            depth=DEPTH,
            shard_depth=SHARD_DEPTH,
            telemetry=telemetry,
            peer_id="late",
        )
        original = late._replay_deltas
        injected = []

        def flaky(home_updates, digests):
            root = original(home_updates, digests)
            if not injected:
                injected.append(True)
                raise InconsistentTreeUpdate("injected post-replay commit failure")
            return root

        late._replay_deltas = flaky

        def fetch_twice(shard_id, deliver):
            if not deliver(snapshot):
                deliver(snapshot)

        late.sync_from_store(
            StoreClient(names[2], network), names[0], snapshot_fetch=fetch_twice
        )
        sim.run(10.0)
        assert injected  # the failure really was injected
        assert late.root == control.root == manager.root
        # Only the rollback itself tells the two bootstraps apart.
        assert vars(late.stats) == {**vars(control.stats), "rollbacks": 1}
        # The registry reads the same object, so the rollback reached every
        # series too — home-replay bytes from _replay_archive included.
        assert late.stats.bytes_consumed > 0 and late.stats.foreign_events > 0
        self._assert_series_equal_stats(telemetry, late, "late")

    def test_race_rejection_masked_by_later_provider_still_retries(
        self, store_net, publisher_group
    ):
        """A tampering provider answering *after* the honest provider's
        snapshot was rejected as ahead-of-archive must not suppress the
        bounded re-sync: any SnapshotAheadOfArchive in the pass means the
        race is worth retrying."""
        sim, network, relays = store_net
        chain, contract, manager = publisher_group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=self.RETENTION)
        self._fill(store, chain, contract, manager)

        # Evil serves a fixed pre-race snapshot (its seq is inside the
        # archived window, so it passes the ahead check) with one leaf
        # flipped, so its rejection lands *after* the honest provider's
        # SnapshotAheadOfArchive in the same pass.
        honest = WitnessService(names[0], manager, network)
        stale_tampered = honest._build_snapshot(
            type("Req", (), {"request_id": 0, "shard_id": 0})()
        )
        leaves = list(stale_tampered.leaves)
        local, leaf = leaves[0]
        leaves[0] = (local, FieldElement(leaf.value ^ 1))
        stale_tampered = SnapshotResponse(
            request_id=stale_tampered.request_id,
            found=True,
            shard_id=stale_tampered.shard_id,
            shard_depth=stale_tampered.shard_depth,
            seq=stale_tampered.seq,
            leaves=tuple(leaves),
        )

        class EvilService(WitnessService):
            def _build_snapshot(self, request):
                return SnapshotResponse(
                    request_id=request.request_id,
                    found=True,
                    shard_id=stale_tampered.shard_id,
                    shard_depth=stale_tampered.shard_depth,
                    seq=stale_tampered.seq,
                    leaves=stale_tampered.leaves,
                )

        EvilService(names[2], manager, network)
        late = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        witness_client = WitnessClient(
            names[1],
            network,
            sim,
            (names[0], names[2]),  # honest first, evil second
            late,
            tree_depth=DEPTH,
            rounds=1,
        )
        roots = []
        late.sync_from_store(
            StoreClient(names[1], network),
            names[0],
            snapshot_fetch=witness_client.fetch_snapshot,
            on_done=roots.append,
        )
        # The racing registration makes the honest snapshot ahead of the
        # first pass's archive; evil's stale+tampered snapshot is then the
        # *last* rejection of the pass.
        sim.schedule(0.065, lambda: testing.register_member(
            chain, contract, 0xACE
        ))
        sim.run(10.0)
        assert roots and roots[0] == manager.root
        assert late.seq == manager.event_seq  # includes the racing event
        assert late.stats.snapshots_restored == 1
