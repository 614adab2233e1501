"""Property: end-of-instant sampling is exact, not approximate.

A real :class:`CollectorPeer` (rules on) takes one sample per simulated
instant, when the instant is over.  The reference is the discipline it
replaced, kept *here*: a twin :class:`RuleEngine` the test samples
eagerly after every fold and evaluates whenever the collector does.
Because ring points at one instant replace each other, the two must
agree on every ring, the whole alert event log and the firing set — over
random per-peer batch streams with sequence gaps (so
``collector_lost_batches_total`` moves), same-instant orderings,
retransmissions, malformed requests, mid-instant reads and interleaved
evaluation ticks.

The rules read peer series and ``collector_lost_batches_total`` only:
``collector_acks_sent_total`` / ``_duplicates_total`` / ``_malformed_total``
are the self-metrics whose eagerly sampled value depended on same-instant
arrival order (see ``tests/unit/test_collector_sampling.py``).
"""

import random
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry.alerts import AlertRule, RuleEngine
from repro.telemetry.collector import CollectorPeer
from repro.telemetry.otlp import CounterDelta, ExportRequest, TelemetryBatch
from repro.telemetry.query import Combined, Instant, Rate

PEERS = ("peer-a", "peer-b", "peer-c")
TICK = 0.25


def rules():
    return [
        AlertRule(
            name="spam",
            expr=Rate(Instant("pipeline_drops_total", stage="verify"), window=1.5),
            threshold=4.0,
            for_duration=0.5,
            clear_threshold=2.0,
        ),
        AlertRule(
            name="loss",
            expr=Rate(
                Combined(
                    [
                        Instant("telemetry_dropped_batches_total"),
                        Instant("collector_lost_batches_total"),
                    ]
                ),
                window=1.0,
            ),
            threshold=0.0,
        ),
        AlertRule(
            name="lost-many",
            expr=Instant("collector_lost_batches_total"),
            threshold=3.0,
            clear_threshold=3.0,
        ),
    ]


class MirroredCollector(CollectorPeer):
    """Every evaluation — the ticker's or the test's — also steps the twin."""

    twin: RuleEngine

    def _evaluate(self) -> None:
        super()._evaluate()
        self.twin.evaluate(
            self.simulator.now, self._alert_states(), health=self.health
        )


fold = st.tuples(
    st.just("fold"),
    st.sampled_from(PEERS),
    st.integers(min_value=0, max_value=9),  # verify-stage drops in the batch
    st.integers(min_value=0, max_value=2),  # batches lost before it
)
action = st.one_of(
    fold,
    fold,
    st.tuples(st.just("duplicate"), st.sampled_from(PEERS)),
    st.tuples(st.just("malformed")),
    st.tuples(st.just("evaluate")),
    st.tuples(st.just("read")),
)
#: (ticks since the previous instant, what lands at this one, in order)
schedule_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=2),
        st.lists(action, min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=12,
)


def ring_points(engine):
    return {key: list(ring.points) for key, ring in engine.querier._rings.items()}


@given(schedule=schedule_strategy)
# A later instant's loss must not land in the earlier instant's point.
@example(schedule=[(3, [("fold", "peer-a", 1, 0)]), (1, [("fold", "peer-a", 1, 2)])])
# A fold after the same instant's evaluation still rewrites that point.
@example(
    schedule=[
        (1, [("fold", "peer-a", 9, 0), ("evaluate",), ("fold", "peer-b", 9, 1)]),
        (2, [("read",), ("fold", "peer-b", 9, 0)]),
    ]
)
@settings(max_examples=80, deadline=None)
def test_end_of_instant_sampling_equals_sampling_after_every_fold(schedule):
    sim = Simulator()
    graph = full_mesh(2)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01),
        rng=random.Random(5),
    )
    collector_id, sender = sorted(graph.nodes)
    # The ticker lands on every fourth tick, so it shares instants with folds.
    collector = MirroredCollector(
        collector_id, network, sim, rules=rules(), evaluation_interval=4 * TICK
    )
    twin = collector.twin = RuleEngine(rules())
    last_seq = {peer: 0 for peer in PEERS}

    def deliver(step):
        kind = step[0]
        if kind == "fold":
            _, peer, drops, lost = step
            last_seq[peer] += lost + 1
            batch = TelemetryBatch(
                peer=peer, role="full", shard=0, seq=last_seq[peer],
                time=sim.now, dropped_batches=0,
                metrics=(
                    CounterDelta("pipeline_drops_total", (("stage", "verify"),), drops),
                ),
            )
            collector._on_export(sender, ExportRequest(1, batch))
            # the reference discipline: one eager sample after every fold
            twin.sample(sim.now, collector._alert_states())
        elif kind == "duplicate":
            batch = TelemetryBatch(
                peer=step[1], role="full", shard=0, seq=last_seq[step[1]],
                time=sim.now, dropped_batches=0, metrics=(),
            )
            collector._on_export(sender, ExportRequest(2, batch))
        elif kind == "malformed":
            collector._on_export(sender, b"not an export request")
        elif kind == "evaluate":
            collector._evaluate()
        else:
            assert collector.firing() == twin.firing()

    now = 0.0
    for gap, steps in schedule:
        now += gap * TICK
        for step in steps:
            sim.schedule_at(now, partial(deliver, step))
    sim.run(now + 1.0)
    collector._take_due_sample(even_now=True)

    assert collector.alert_events() == twin.event_log()
    assert collector.firing() == twin.firing()
    assert ring_points(collector.engine) == ring_points(twin)
    assert collector.engine.evaluations == twin.evaluations
