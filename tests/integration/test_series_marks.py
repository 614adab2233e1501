"""Integration: every bound series is marked where it moves.

A bound series (``MetricsRegistry.bind``) is read from its owner only
when the exporter looks, and the exporter looks only at the series
marked since its last tick: a move its owner does not mark is never
exported.  An 8-peer collector-profile fleet, with peer scoring on so
the penalty counters move too (but no graylisting, so the forgeries still
reach the token buckets), runs honest traffic, forged bundles that
overflow a neighbour's per-peer token bucket (a rate-limit shed), a lane
backlog, a double signal that is slashed and a peer stop.  Two checks:

* after every simulator event, each bound series either still reads what
  its peer's exporter last sent or is marked: an unmarked move is caught
  at the event that made it;
* after the heartbeats stop and ``flush_telemetry()``, the collector's
  state for each peer holds a fresh read of every bound series' owner.

The exporter's own series (its shed batches) moves only when a collector
is gone, so a lone exporter checks it.  The owners no collector-profile
peer runs (tree sync, the witness client and service) are checked on
their own, with :class:`Marks` standing in for the exporter.
"""

import pytest

from repro import testing
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.exec.executor import Priority
from repro.gossipsub.scoring import PeerScoreKeeper, ScoreParams
from repro.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions, Telemetry
from repro.telemetry.registry import BoundMetric
from repro.treesync import ShardSyncManager, TreeSyncPublisher
from repro.waku.store import StoreClient, StoreNode
from repro.witness import SnapshotRequest, WitnessService
from repro.witness.messages import WITNESS_PROTOCOL

from tests.integration.test_relay_stats_golden import BUCKET, KINDS, forge
from tests.integration.test_treesync_store import DEPTH, SHARD_DEPTH, group, net  # noqa: F401
from tests.unit.test_otlp import build
from tests.unit.test_witness_service import env, make_client  # noqa: F401

#: Series families the scenario must move on some peer (every family a
#: collector-profile peer binds), so a lost mark has a move to lose.
MOVED = (
    "gossipsub_mesh_size",
    "gossipsub_grafts_total",
    "gossipsub_penalties_total",
    "executor_queue_depth",
    "executor_busy_lanes",
    "executor_lane_occupancy",
    "executor_service_seconds_total",
    "pipeline_admitted_total",
    "pipeline_deferred_total",
    "pipeline_drops_total",
    "slashing_cases_total",
    "slashing_races_total",
    "slashing_gas_spent_wei_total",
    "slashing_rewards_wei_total",
)


def bound_series(deployment: RLNDeployment):
    """``(peer, key, metric)`` for every bound series of every peer."""
    for peer_id, telemetry in sorted(deployment.telemetries.items()):
        for key, metric in telemetry.registry._metrics.items():
            if isinstance(metric, BoundMetric):
                yield peer_id, key, metric


def unmarked_moves(registry, exporter, moved: set[str]) -> list[str]:
    """The bound series of ``registry`` whose value is not the one
    ``exporter`` last sent and that no mark flags; adds the name of each
    series reading non-zero to ``moved``."""
    unmarked = []
    for key, metric in registry._metrics.items():
        if isinstance(metric, BoundMetric):
            value = metric.value
            if value:
                moved.add(metric.name)
            if key not in registry._written and exporter._deltas._exported[key].value != value:
                unmarked.append(key)
    return unmarked


def run_checked(deployment: RLNDeployment, seconds: float, moved: set[str]) -> None:
    """``deployment.run(seconds)``, checking for unmarked moves after each event."""
    simulator = deployment.simulator
    until = simulator.now + seconds
    while simulator.step(until):
        for peer_id, telemetry in deployment.telemetries.items():
            exporter = deployment.exporters[peer_id]
            assert unmarked_moves(telemetry.registry, exporter, moved) == [], simulator.now
    simulator.run(until)


@pytest.fixture(scope="module")
def fleet() -> tuple[RLNDeployment, set[str], list[str]]:
    """The scored fleet, the series families it moved, and every behaviour
    penalty its score keepers were handed (by anyone)."""
    handed: list[str] = []
    real = PeerScoreKeeper.on_behaviour_penalty

    def counted(keeper, peer):
        handed.append(peer)
        return real(keeper, peer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PeerScoreKeeper, "on_behaviour_penalty", counted)
        return (*scored_fleet(), handed)


def scored_fleet() -> tuple[RLNDeployment, set[str]]:
    deployment = RLNDeployment.create(
        peer_count=8,
        degree=3,
        seed=29,
        config=RLNConfig(epoch_length=1.0, max_epoch_gap=2),
        pipeline_config=PipelineConfig(batch_size=4, workers=2, peer_bucket=BUCKET),
        collector=CollectorOptions(interval=1.0, trace_sample=0.25, alerting=True),
        score_params=ScoreParams(graylist_threshold=-1e9),
    )
    moved: set[str] = set()
    deployment.register_all()
    run_checked(deployment, 10.0, moved)  # the meshes form
    ids = deployment.peer_ids()
    attacker, spammer = deployment.peers[ids[0]], deployment.peers[ids[5]]
    for number in range(4):
        for index, peer_id in enumerate(ids):
            deployment.peers[peer_id].publish(b"guard|%d|%d" % (number, index))
        if number in (1, 2):
            for serial in range(30):
                kind = KINDS[serial % 3] if serial % 10 else KINDS[0]
                attacker.relay.publish(forge(attacker, b"hostile|%d|%d" % (number, serial), kind))
        run_checked(deployment, 1.0, moved)
    # A lane backlog: five jobs of 400 pairings each (3 s of lane time)
    # behind two lanes.
    executor = deployment.peers[ids[3]].pipeline.executor
    counter = deployment.prover.pairing_counter

    def work() -> None:
        counter.evaluations += 400

    for _ in range(5):
        executor.submit(work, priority=Priority.BACKGROUND)
    spammer.publish(b"signal|1", force=True)
    spammer.publish(b"signal|2", force=True)
    run_checked(deployment, 30.0, moved)  # commit and reveal each need a block
    victim = ids[6]
    deployment.peers[victim].stop()
    for neighbour in list(deployment.network.neighbors(victim)):
        deployment.network.disconnect(victim, neighbour)
    run_checked(deployment, 5.0, moved)
    # A stopped peer's pinned executor still books what it runs inline.
    deployment.peers[victim].pipeline.executor.submit(work)
    run_checked(deployment, 2.0, moved)
    # Quiet the fleet for the final read: without a PRUNE backoff, a peer
    # whose GRAFT is refused asks again (and is penalised) every heartbeat.
    for peer in deployment.peers.values():
        peer.relay.router.stop()
    deployment.flush_telemetry()
    return deployment, moved


def test_the_scenario_moves_every_family(fleet):
    deployment, moved, _ = fleet
    assert set(MOVED) <= moved, sorted(set(MOVED) - moved)
    assert sum(peer.pipeline.stats.rate_limited for peer in deployment.peers.values()) > 0


def test_the_collector_holds_a_fresh_read_of_every_bound_series(fleet):
    fleet, _, _ = fleet
    collector = fleet.collector
    assert collector.stats.lost_batches == 0
    stale = [
        (peer_id, key, collector._states[peer_id][key]["value"], metric.value)
        for peer_id, key, metric in bound_series(fleet)
        if collector._states[peer_id][key]["value"] != metric.value
    ]
    assert stale == []


def test_every_behaviour_penalty_is_counted(fleet):
    # rate-limit sheds, refused GRAFTs and broken promises alike: the
    # series the collector holds is the number the keepers were handed
    deployment, _, handed = fleet
    assert sum(peer.pipeline.stats.rate_limited for peer in deployment.peers.values()) > 0
    key = "gossipsub_penalties_total{kind=behaviour,peer=%s}"
    counted = sum(
        state[key % peer_id]["value"] for peer_id, state in deployment.collector._states.items()
    )
    assert counted == len(handed) > 0


def test_a_shed_batch_is_marked():
    # The collector is gone: each tick's batch fails, and past a one-batch
    # queue the oldest is shed.
    sim, network, telemetry, exporter, (collector,) = build(queue_limit=1, rounds=1)
    network.remove_peer(collector.peer_id)
    moved: set[str] = set()
    for _ in range(4):
        telemetry.registry.counter("events_total").inc()
        exporter.export()
        sim.run(sim.now + 2.0)
        assert unmarked_moves(telemetry.registry, exporter, moved) == []
    assert moved == {"telemetry_dropped_batches_total"}


class Marks:
    """Reads every bound series of ``registries`` at each :meth:`check`, as
    each registry's exporter would (it takes the marks): a series that
    moved since the previous check must be marked."""

    def __init__(self, *registries) -> None:
        self.registries = registries
        self.last: dict[tuple[int, str], object] = {}
        self.moved: set[str] = set()
        self.check()

    def check(self) -> None:
        unmarked = []
        for registry in self.registries:
            marked = {key for key, _ in registry.changed()}
            for key, metric in registry._metrics.items():
                if isinstance(metric, BoundMetric):
                    value = metric.value
                    if self.last.get((id(registry), key), value) != value:
                        self.moved.add(metric.name)
                        if key not in marked:
                            unmarked.append(key)
                    self.last[id(registry), key] = value
        assert unmarked == []

    def run(self, simulator, seconds: float) -> None:
        until = simulator.now + seconds
        while simulator.step(until):
            self.check()
        simulator.run(until)


def test_tree_sync_marks_its_series(net, group):  # noqa: F811
    sim, network, relays = net
    chain, contract, manager = group
    names = sorted(relays)
    store = StoreNode(relays[names[0]], network, capacity=1000)
    TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)
    for i in range(21):
        testing.register_member(chain, contract, 0x2000 + i)
    telemetry = Telemetry()
    view = ShardSyncManager(
        home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH, telemetry=telemetry, peer_id="v"
    )
    marks = Marks(telemetry.registry)
    view.sync_from_store(StoreClient(names[1], network), names[0], on_done=lambda root: None)
    marks.run(sim, 5.0)  # a checkpoint, then the home shard and the digests past it

    def live(update) -> None:
        view.apply(update)
        marks.check()

    manager.on_shard_update(live)
    for i in range(3):
        testing.register_member(chain, contract, 0x2100 + i)
    assert view.root == manager.root  # the commit
    marks.check()
    other = ShardSyncManager(
        home_shard=3, depth=DEPTH, shard_depth=SHARD_DEPTH, telemetry=telemetry, peer_id="w"
    )
    marks.check()
    other.restore(manager.checkpoint())
    marks.check()
    assert {
        "treesync_events_total", "treesync_commits_total", "treesync_bytes_consumed_total",
        "treesync_checkpoints_restored_total",
    } <= marks.moved


def test_the_witness_client_and_service_mark_their_series(env):  # noqa: F811
    sim, network, names, manager, _ = env
    serving, asking = Telemetry(), Telemetry()
    WitnessService(names[0], manager, network, telemetry=serving)
    # The first provider never answers: every fetch fails over to the second.
    client = make_client(env, providers=(names[2], names[0]), telemetry=asking)
    manager.on_shard_update(client.on_shard_event)
    marks = Marks(serving.registry, asking.registry)
    client.witness(5, lambda proof: None)
    marks.check()
    marks.run(sim, 2.0)
    client.witness(5, lambda proof: None)  # a cache hit
    marks.check()
    client.witness(200, lambda proof: None, lambda failure: None)  # missed everywhere
    marks.run(sim, 2.0)
    testing.register_member(manager.chain, manager.contract, 0xABC)  # a refresh
    marks.check()
    marks.run(sim, 2.0)
    network.send(names[1], names[0], SnapshotRequest(request_id=99, shard_id=0),
                 protocol=WITNESS_PROTOCOL)
    marks.run(sim, 1.0)
    assert {
        "witness_served_total", "witness_service_misses_total", "witness_fetch_failures_total",
        "witness_cache_hits_total", "witness_cache_misses_total", "witness_refreshes_total",
        "witness_cache_hit_ratio", "witness_failovers",
    } <= marks.moved

