"""The collector's sampling discipline: one ring point per instant, taken
when the instant is over.

Driven on a bare :class:`CollectorPeer` — requests are handed straight to
``_on_export`` from scheduled events, so the test owns every simulated
instant and every same-instant arrival order.
"""

import random
from functools import partial

from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry.alerts import AlertRule
from repro.telemetry.collector import CollectorPeer
from repro.telemetry.otlp import CounterDelta, ExportRequest, TelemetryBatch
from repro.telemetry.query import Instant, Rate

SELF_METRICS = (
    "collector_acks_sent_total",
    "collector_duplicates_total",
    "collector_malformed_total",
    "collector_batches_total",
)


def rules():
    """One windowed rule per collector self-metric, plus a peer series."""
    watched = SELF_METRICS + ("collector_lost_batches_total", "pipeline_drops_total")
    return [
        AlertRule(name=name, expr=Rate(Instant(name), window=4.0), threshold=1e9)
        for name in watched
    ]


def build():
    sim = Simulator()
    graph = full_mesh(4)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01),
        rng=random.Random(3),
    )
    names = sorted(graph.nodes)
    collector = CollectorPeer(
        names[0], network, sim, rules=rules(), evaluation_interval=100.0
    )
    return sim, collector, names[1:]


def request(peer, seq, drops=1):
    metric = CounterDelta("pipeline_drops_total", (("stage", "verify"),), drops)
    return ExportRequest(
        request_id=seq,
        batch=TelemetryBatch(
            peer=peer, role="full", shard=0, seq=seq, time=0.0,
            dropped_batches=0, metrics=(metric,),
        ),
    )


def rings(collector):
    return {
        key: list(ring.points)
        for key, ring in collector.engine.querier._rings.items()
    }


def run_instant(order):
    """Deliver ``order`` at t=1.0 (after one fold per peer at t=0.5)."""
    sim, collector, (a, b, _) = build()
    arrivals = {
        "fold-a": partial(collector._on_export, a, request(a, 2)),
        "fold-b": partial(collector._on_export, b, request(b, 2)),
        "duplicate": partial(collector._on_export, a, request(a, 1)),
        "malformed": partial(collector._on_export, b, object()),
        "read": collector.firing,
        "evaluate": collector._evaluate,
    }
    for peer in (a, b):
        sim.schedule_at(0.5, partial(collector._on_export, peer, request(peer, 1)))
    for name in order:
        sim.schedule_at(1.0, arrivals[name])
    sim.run(2.0)
    collector._take_due_sample(even_now=True)
    return collector


def test_same_instant_arrival_order_does_not_reach_the_rings():
    first = run_instant(["fold-a", "fold-b", "duplicate", "malformed"])
    second = run_instant(["duplicate", "malformed", "fold-a", "fold-b"])
    third = run_instant(["fold-b", "duplicate", "fold-a", "malformed"])
    assert rings(first) == rings(second) == rings(third)
    # a reader or an evaluation tick in the middle of the instant does not
    # take the instant's final point away
    watched = run_instant(
        ["fold-a", "read", "fold-b", "evaluate", "duplicate", "read", "malformed"]
    )
    assert rings(watched) == rings(first)
    # ... and the point is "after everything delivered at that instant":
    # four folds, one retransmission, one malformed request, five acks
    # (the malformed request gets none).
    latest = {
        name: first.engine.querier.ring(Instant(name).key).points[-1]
        for name in SELF_METRICS
    }
    assert latest == {
        "collector_acks_sent_total": (1.0, 5),
        "collector_duplicates_total": (1.0, 1),
        "collector_malformed_total": (1.0, 1),
        "collector_batches_total": (1.0, 4),
    }


def test_one_point_per_instant_that_folded():
    collector = run_instant(["fold-a", "duplicate", "fold-b"])
    times = [t for t, _ in rings(collector)[Instant("pipeline_drops_total").key]]
    assert times == [0.5, 1.0]


def test_a_later_instant_s_loss_stays_out_of_the_earlier_point():
    sim, collector, (a, _, _) = build()
    sim.schedule_at(0.5, partial(collector._on_export, a, request(a, 1)))
    # seq 2 and 3 never arrive: the gap is observed at t=1.0, not before.
    sim.schedule_at(1.0, partial(collector._on_export, a, request(a, 4)))
    sim.run(2.0)
    collector._take_due_sample(even_now=True)
    ring = collector.engine.querier.ring(Instant("collector_lost_batches_total").key)
    assert list(ring.points) == [(0.5, 0), (1.0, 2)]


def test_readers_see_a_fold_without_an_evaluation_tick():
    key = Instant("pipeline_drops_total").key
    for read in ("firing", "alert_events", "render_prometheus"):
        sim, collector, (a, _, _) = build()
        sim.schedule_at(0.5, partial(collector._on_export, a, request(a, 1, drops=7)))
        sim.run(0.75)  # the evaluation ticker (every 100 s) has not run
        assert collector.engine.evaluations == 0
        getattr(collector, read)()
        assert collector.engine.querier.ring(key).points[-1] == (0.5, 7)
