"""Integration: sharded tree sync over 13/WAKU2-STORE, and sharded peers.

Covers the checkpoint+delta fallback end to end — a publisher archives
shard updates, digests, and checkpoints; a lagging shard-scoped peer
catches up through real store queries over the simulated network — and a
full WAKU-RLN-RELAY deployment announcing a shard geometry.
"""

import random
from dataclasses import replace

import pytest

from repro import testing
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.membership import GroupManager
from repro.crypto.field import ZERO, FieldElement
from repro.errors import SyncError
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.treesync import CHECKPOINT_TOPIC, ShardSyncManager, TreeSyncPublisher
from repro.treesync.messages import DIGEST_TOPIC, ShardRootDigest, TreeCheckpoint
from repro.waku.relay import WakuRelay
from repro.waku.store import HistoryQuery, StoreClient, StoreNode
from repro.witness.messages import SnapshotResponse

DEPTH = 8
SHARD_DEPTH = 3


@pytest.fixture()
def net():
    sim = Simulator()
    graph = full_mesh(3)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(3)
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
def group():
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


class TestStoreFallback:
    def test_lagging_peer_catches_up(self, net, group):
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        publisher = TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)

        for i in range(37):
            testing.register_member(chain, contract, 0x2000 + i)
        assert publisher.checkpoints_published >= 4

        lagger = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        client = StoreClient(names[1], network)
        roots = []
        lagger.sync_from_store(client, names[0], on_done=roots.append)
        sim.run(5.0)
        assert roots and roots[0] == manager.root
        assert lagger.seq == manager.event_seq
        assert lagger.stats.checkpoints_restored == 1
        # The home topic replay covered shard 0's 8 members.
        assert lagger.stats.home_events == 8

    def test_recovery_on_a_lossy_network_always_terminates(self, net, group):
        """Every recovery ends in the contract's root or a SyncError —
        never an idle simulator with ``on_done`` uncalled, which is what
        one dropped store reply used to cause."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)
        for i in range(37):
            testing.register_member(chain, contract, 0x2000 + i)
        client = StoreClient(names[1], network)
        network.drop_probability = 0.15
        outcomes = set()
        for seed in range(8):
            network.rng = random.Random(seed)
            lagger = ShardSyncManager(
                home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH
            )
            roots = []
            lagger.sync_from_store(client, names[0], page_size=8, on_done=roots.append)
            try:
                sim.run(sim.now + 30.0)
            except SyncError:
                assert roots == []
                outcomes.add("error")
            else:
                assert roots == [manager.root]
                outcomes.add("root")
        assert outcomes == {"root", "error"}  # the seeds exercise both endings

    def test_catch_up_without_checkpoint(self, net, group):
        """With no checkpoint archived yet, the digest feed alone suffices."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=10_000)

        for i in range(12):
            testing.register_member(chain, contract, 0x3000 + i)

        lagger = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        client = StoreClient(names[1], network)
        roots = []
        lagger.sync_from_store(client, names[0], on_done=roots.append)
        sim.run(5.0)
        assert roots and roots[0] == manager.root

    def test_live_after_catch_up(self, net, group):
        """A recovered peer re-joins the live feed seamlessly (same seq)."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)
        for i in range(20):
            testing.register_member(chain, contract, 0x4000 + i)

        lagger = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        client = StoreClient(names[1], network)
        lagger.sync_from_store(client, names[0], on_done=lambda root: None)
        sim.run(5.0)
        manager.on_shard_update(lagger.apply)
        for i in range(6):
            testing.register_member(chain, contract, 0x5000 + i)
        assert lagger.root == manager.root

    @pytest.mark.parametrize("home_shard", [0, None])
    def test_a_view_that_refused_a_shardless_digest_recovers(
        self, net, group, home_shard
    ):
        """A digest naming no shard claims a thousand events on the current
        root; the view refuses it where it stands, misses the next blocks,
        and the store still brings it to the manager's root."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)
        updates = []
        manager.on_shard_update(updates.append)
        for i in range(10):
            testing.register_member(chain, contract, 0x4800 + i)
        view = ShardSyncManager(home_shard=home_shard, depth=DEPTH, shard_depth=SHARD_DEPTH)
        for update in updates:
            view.apply(update)
        forged = ShardRootDigest(
            seq=view.seq + 1000, events=1000, removed=False, shard_roots=(),
            new_global_root=manager.root,
        )
        with pytest.raises(SyncError):
            view.apply(forged)
        assert view.seq == 10
        for i in range(10):
            testing.register_member(chain, contract, 0x4900 + i)
        roots = []
        view.sync_from_store(StoreClient(names[1], network), names[0], on_done=roots.append)
        sim.run(sim.now + 5.0)
        assert roots == [manager.root]
        assert view.seq == manager.event_seq == 20

    def test_descending_checkpoint_query_is_single_message(self, net, group):
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=4)
        for i in range(20):
            testing.register_member(chain, contract, 0x6000 + i)

        client = StoreClient(names[1], network)
        pages = []
        client.query(
            names[0],
            content_topics=(CHECKPOINT_TOPIC,),
            page_size=1,
            descending=True,
            limit=1,
            on_complete=pages.append,
        )
        sim.run(6.0)
        assert len(pages) == 1 and len(pages[0]) == 1
        newest = TreeCheckpoint.from_bytes(pages[0][0].payload)
        # Newest-first: the single message is the latest checkpoint.
        assert newest.seq == 20
        assert newest.global_root == manager.root


class TestShardedDeployment:
    def test_publish_and_validate_on_sharded_backend(self):
        config = RLNConfig(
            epoch_length=30.0,
            max_epoch_gap=2,
            tree_depth=DEPTH,
            shard_depth=SHARD_DEPTH,
        )
        dep = RLNDeployment.create(peer_count=6, degree=3, seed=12, config=config)
        dep.register_all()
        dep.form_meshes(5.0)
        delivered = testing.inbox(dep.peer("peer-004"))
        sender = dep.peer("peer-001")
        sender.publish(b"over the forest")
        dep.run(3.0)
        assert any(m.payload == b"over the forest" for m in delivered)

    def test_flat_and_sharded_managers_share_roots(self):
        """Whatever the frozen ``tree_backend`` field carries, managers
        watching one contract agree on every root and checkpoint byte."""
        config = RLNConfig(
            epoch_length=30.0,
            tree_depth=DEPTH,
            tree_backend="sharded",
            shard_depth=SHARD_DEPTH,
        )
        dep = RLNDeployment.create(peer_count=4, degree=3, seed=9, config=config)
        standalone = GroupManager(
            dep.chain, dep.contract, tree_depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        dep.register_all()
        deployed = dep.peer("peer-000").group
        assert deployed.root == standalone.root
        assert deployed.recent_roots()[-1] == standalone.recent_roots()[-1]
        assert deployed.checkpoint().to_bytes() == standalone.checkpoint().to_bytes()


class TestBoundedCatchUp:
    def test_small_gap_does_not_drain_the_archive(self, net, group):
        """Delta queries walk newest-first and stop at the first covered
        seq: recovering from a 3-event gap must not fetch 100+ archived
        messages."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=5000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=16)

        view = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        for i in range(100):
            testing.register_member(chain, contract, 0x7000 + i)
        # Miss the next 3 events entirely (detach only this view — the
        # publisher keeps archiving), then recover via the store.
        manager._shard_listeners.remove(view.apply)
        missed_from = manager.event_seq
        for i in range(3):
            testing.register_member(chain, contract, 0x7F00 + i)

        client = StoreClient(names[1], network)
        received_before = network.stats[names[1]].bytes_received
        roots = []
        view.sync_from_store(client, names[0], page_size=8, on_done=roots.append)
        sim.run(10.0)
        assert roots and roots[0] == manager.root
        assert view.seq == manager.event_seq == missed_from + 3
        fetched = network.stats[names[1]].bytes_received - received_before
        archive_bytes = sum(
            m.byte_size()
            for m in store.query_local(
                HistoryQuery(request_id=0, page_size=10_000)
            ).messages
        )
        # A 3-event gap needs a few pages, not the whole archive.
        assert fetched < archive_bytes / 3, (fetched, archive_bytes)


class TestRemovalRecovery:
    """A peer that was offline across a slash must not keep accepting
    pre-removal roots after store recovery (the revocation window
    collapse survives the checkpoint+delta path)."""

    def slash(self, chain, contract, member):
        from repro.crypto.commitments import commit as make_commitment

        commitment, opening = make_commitment(member.sk.to_bytes(), b"funder")
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

    @pytest.mark.parametrize("home_shard", [0, 1, None])
    def test_recovery_over_a_removal_collapses_the_window(
        self, net, group, home_shard
    ):
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        # checkpoint_interval small enough that the removal is *covered
        # by a checkpoint*, not replayed as a live delta — the regression
        # this test pins: restore() must collapse conservatively.
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=4)

        view = ShardSyncManager(
            home_shard=home_shard, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        live = []
        manager.on_shard_update(live.append)
        members = [
            testing.register_member(chain, contract, 0x4000 + i) for i in range(6)
        ]
        for event in live:
            view.apply(event if home_shard is not None else event.digest())
        stale_root = view.commit()
        assert stale_root == manager.root
        assert view.is_acceptable_root(stale_root)

        # Offline across the slash (and enough registrations that a
        # fresh checkpoint covers the removal).
        self.slash(chain, contract, members[2])
        for i in range(6):
            testing.register_member(chain, contract, 0x4100 + i)

        client = StoreClient(names[1], network)
        roots = []
        view.sync_from_store(client, names[0], on_done=roots.append)
        sim.run(sim.now + 10.0)
        assert roots and roots[0] == manager.root
        # The recovered window must NOT vouch for the pre-outage root:
        # the gap contained a removal this view never saw.
        assert not view.is_acceptable_root(stale_root)
        assert view.recent_roots() == [manager.root]


#: Home shard of the refused-attempt cases: slots 16..23, seqs 17..24.
HOME = 2
BOGUS = FieldElement(0xBAD)


def forge_checkpoint(message):
    """The seq-32 checkpoint names a wrong root for the home shard."""
    if message.content_topic != CHECKPOINT_TOPIC:
        return message
    checkpoint = TreeCheckpoint.from_bytes(message.payload)
    if checkpoint.seq != 32:
        return message
    roots = tuple(
        (shard, BOGUS if shard == HOME else root)
        for shard, root in checkpoint.shard_roots
    )
    forged = replace(checkpoint, shard_roots=roots)
    return replace(message, payload=forged.to_bytes())


def forge_foreign_digest(message):
    """Seq 40's digest moves foreign shard 4 to a root nobody built; the
    global root it carries stays honest, so only the commit's cross-check
    can catch it."""
    if message.content_topic != DIGEST_TOPIC:
        return message
    digest = ShardRootDigest.from_bytes(message.payload)
    if digest.seq != 40:
        return message
    forged = replace(digest, shard_roots=((4, BOGUS),))
    return replace(message, payload=forged.to_bytes())


class TestRefusedAttemptLeavesTheView:
    """A recovery attempt the view refuses is undone as a whole: the view
    ends exactly as it began (bar the ``rollbacks`` counter), so the next
    attempt against an honest store recovers it like a fresh peer."""

    # ``rollbacks``: one per aborted attempt that wrote anything — the
    # last case aborts its replay, then its snapshot adoption.
    @pytest.mark.parametrize(
        "forge, retention, snapshot, rollbacks",
        [
            pytest.param(
                forge_checkpoint, 1000, False, 1, id="forged-checkpoint-wedge"
            ),
            pytest.param(
                forge_foreign_digest, 1000, False, 1, id="forged-foreign-root"
            ),
            # 37 messages keep events 23..40: the home replay starts two
            # registrations short of the shard the checkpoint names.
            pytest.param(None, 37, False, 1, id="home-aged-out-no-snapshot"),
            pytest.param(
                forge_foreign_digest, 37, True, 2, id="snapshot-fails-commit"
            ),
        ],
    )
    def test_refused_attempt_leaves_the_view_as_it_was(
        self, net, group, forge, retention, snapshot, rollbacks
    ):
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        honest = StoreNode(relays[names[0]], network, capacity=1000)
        hostile = StoreNode(relays[names[2]], network, capacity=retention)
        tamper = forge or (lambda message: message)
        TreeSyncPublisher(manager, honest.archive, checkpoint_interval=16)
        TreeSyncPublisher(
            manager, lambda message: hostile.archive(tamper(message)),
            checkpoint_interval=16,
        )
        events = []
        manager.on_shard_update(events.append)
        for i in range(40):
            testing.register_member(chain, contract, 0x6000 + i)

        # The view followed the live feed through seq 20, then went offline.
        view = ShardSyncManager(
            home_shard=HOME, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        for event in events[:20]:
            view.apply(event)
        view.commit()

        def state():
            stats = {k: v for k, v in vars(view.stats).items() if k != "rollbacks"}
            leaves = [view.shard.leaf(i) for i in range(1 << SHARD_DEPTH)]
            return view.seq, view.recent_roots(), leaves, stats

        before = state()
        assert before[2][:4].count(ZERO) == 0  # slots 16..19 are members

        honest_snapshot = SnapshotResponse(
            request_id=0,
            found=True,
            shard_id=HOME,
            shard_depth=SHARD_DEPTH,
            seq=manager.event_seq,
            leaves=tuple(
                (i, manager.tree.leaf(HOME * 8 + i)) for i in range(8)
            ),
        )

        def fetch(shard_id, deliver):
            if deliver(honest_snapshot) is False:
                deliver(None)  # no other provider

        client = StoreClient(names[1], network)
        view.sync_from_store(
            client, names[2], snapshot_fetch=fetch if snapshot else None
        )
        with pytest.raises(SyncError):
            sim.run(sim.now + 10.0)
        assert state() == before
        assert view.stats.rollbacks == rollbacks

        roots = []
        view.sync_from_store(client, names[0], on_done=roots.append)
        sim.run(sim.now + 10.0)
        assert roots == [manager.root]
        assert view.seq == manager.event_seq
