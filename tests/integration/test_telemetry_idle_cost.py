"""A budget, in counted work, on what an idle collector-profile fleet costs.

Counts, not seconds, as ``test_alert_scaling.py`` does.  Over 20 idle
simulated seconds of a fleet with the profile ``production_fleet`` runs
(two crypto lanes, batches of 8, one alerting collector with head
sampling), at 8 and 16 peers:

* an exporter tick reads no written series (counter or histogram) and
  never calls the delta tracker: no written series was written, and no
  bound series was marked;
* a rule pass regroups nothing and selects nothing: no entry is indexed,
  no index is built, the index's version does not move (only heartbeats
  arrive), so no pass calls the matcher, and the liveness counts are
  kept, so no pass classifies a peer;
* the collector's self-metric entries are the ones built before the
  window, updated in place: no pass builds one;
* an idle peer's liveness is one one-way heartbeat per tick: exactly
  one telemetry frame per peer per tick, and no reply;
* the simulation's own work is pinned: the same events per simulated
  second, whatever the telemetry path costs the host.

A pass that follows folds selects again, and what it selects grows with
the selected entries only: measured on a window in which every peer
publishes once, so there are folds to pass over.

And the telemetry round trip leaves no cyclic garbage: an idle fleet run
with the cyclic collector off leaves nothing for it to find.
"""

import gc

import pytest

from repro.core.deployment import RLNDeployment
from repro.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions, alerts
from repro.telemetry.health import HealthMonitor
from repro.telemetry.otlp import DeltaTracker
from repro.telemetry.registry import BoundMetric

IDLE_SECONDS = 20.0

#: Simulator events over the idle window: every exporter tick, heartbeat
#: delivery and evaluation.  Pinned exactly: per peer and idle second that
#: is one tick and one delivery, and a change to the idle path's events
#: must re-pin them.
EVENTS = {8: 531, 16: 1019}

#: ``CollectorOptions.evaluation_interval``, left at its default.
EVALUATION_INTERVAL = 0.5


def idle_fleet(peers: int) -> RLNDeployment:
    deployment = RLNDeployment.create(
        peer_count=peers,
        degree=4,
        seed=7,
        pipeline_config=PipelineConfig(workers=2, batch_size=8),
        collector=CollectorOptions(interval=1.0, trace_sample=0.25, alerting=True),
    )
    deployment.register_all()
    deployment.form_meshes()
    deployment.run(5.0)  # the last set-up deltas land
    return deployment


def watched(cls: type, reads: list) -> type:
    """``cls`` with every attribute read of an instance recorded."""

    def __getattribute__(self, name):
        reads.append((cls.__name__, name))
        return object.__getattribute__(self, name)

    return type(cls.__name__, (cls,), {"__slots__": (), "__getattribute__": __getattribute__})


def idle_work(peers: int, monkeypatch) -> dict:
    deployment = idle_fleet(peers)
    collector = deployment.collector
    work = {
        "diffs": 0, "written_reads": [], "passes": 0, "matches": [], "classified": 0,
        "indexed": 0, "built": 0,
    }
    real_deltas = DeltaTracker.deltas
    real_sample = alerts.RuleEngine.sample
    real_matches = alerts._matches
    real_classify = HealthMonitor.classify
    real_added = alerts.StateIndex.added
    real_entry = type(collector)._self_entry
    version = collector._index.version

    def deltas(self, series):
        work["diffs"] += 1
        return real_deltas(self, series)

    def classify(self, peer, now):
        work["classified"] += 1
        return real_classify(self, peer, now)

    def sample(self, now, states):
        work["passes"] += 1
        work["matches"].append(0)
        return real_sample(self, now, states)

    def matches(entry, name, matchers):
        work["matches"][-1] += 1
        return real_matches(entry, name, matchers)

    def added(self, order, entry):
        work["indexed"] += 1
        return real_added(self, order, entry)

    def built(self, name, **labels):
        work["built"] += 1
        return real_entry(self, name, **labels)

    entries = dict(collector._self_state)
    events = deployment.simulator.processed_events
    network, exporters = deployment.network, deployment.exporters.values()
    frames = {p: network.total_messages(protocol=p) for p in ("telemetry", "telemetry-reply")}
    ticks = sum(exporter.stats.ticks for exporter in exporters)
    written = [
        metric
        for telemetry in deployment.telemetries.values()
        for metric in telemetry.registry._metrics.values()
        if not isinstance(metric, BoundMetric)
    ]
    kinds = {cls: watched(cls, work["written_reads"]) for cls in {type(m) for m in written}}
    for metric in written:
        metric.__class__ = kinds[type(metric)]
    with monkeypatch.context() as patch:
        patch.setattr(DeltaTracker, "deltas", deltas)
        patch.setattr(alerts.RuleEngine, "sample", sample)
        patch.setattr(alerts, "_matches", matches)
        patch.setattr(HealthMonitor, "classify", classify)
        patch.setattr(alerts.StateIndex, "added", added)
        patch.setattr(alerts.StateIndex, "of", classmethod(lambda cls, s: pytest.fail("regrouped")))
        patch.setattr(type(collector), "_self_entry", built)
        deployment.run(IDLE_SECONDS)
    for metric in written:
        metric.__class__ = type(metric).__base__
    work["events"] = deployment.simulator.processed_events - events
    work["frames"] = {p: network.total_messages(protocol=p) - n for p, n in frames.items()}
    work["exporter_ticks"] = sum(exporter.stats.ticks for exporter in exporters) - ticks
    work["version_moved"] = collector._index.version != version
    # the entries a pass reads are the very objects it read before
    assert collector._self_state == entries
    assert all(collector._self_state[key] is entry for key, entry in entries.items())
    assert collector.stats.lost_batches == 0 and collector.firing() == []
    return work


@pytest.mark.parametrize("peers", sorted(EVENTS))
def test_an_idle_tick_and_pass_cost_only_what_moved(peers, monkeypatch):
    work = idle_work(peers, monkeypatch)
    # no peer read a written series or had a series to diff
    assert work["written_reads"] == []
    assert work["diffs"] == 0
    # no fold instant: one pass per evaluation, none indexing, selecting
    # or classifying — nothing moved since the last pass
    assert work["passes"] == IDLE_SECONDS / EVALUATION_INTERVAL
    assert work["indexed"] == 0 and work["built"] == 0
    assert not work["version_moved"]
    assert work["matches"] == [0] * work["passes"]
    assert work["classified"] == 0
    # one one-way frame per peer per tick, and nothing comes back
    assert work["exporter_ticks"] == peers * IDLE_SECONDS
    assert work["frames"] == {"telemetry": work["exporter_ticks"], "telemetry-reply": 0}
    assert work["events"] == EVENTS[peers]


def fold_work(peers: int, monkeypatch) -> tuple[list[int], int]:
    """Matcher calls per pass over a window in which every peer publishes
    once, and the entries stored at its end."""
    deployment = idle_fleet(peers)
    collector = deployment.collector
    batches = collector.stats.batches
    matches: list[int] = []
    real_sample = alerts.RuleEngine.sample
    real_matches = alerts._matches

    def sample(self, now, states):
        matches.append(0)
        return real_sample(self, now, states)

    def counted(entry, name, matchers):
        matches[-1] += 1
        return real_matches(entry, name, matchers)

    with monkeypatch.context() as patch:
        patch.setattr(alerts.RuleEngine, "sample", sample)
        patch.setattr(alerts, "_matches", counted)
        for number, peer in enumerate(deployment.peers.values()):
            peer.publish(b"fold|%d" % number)
        deployment.run(5.0)
    assert collector.stats.batches > batches  # the window holds folds
    return matches, sum(len(state) for state in collector._states.values())


def test_the_pass_work_grows_with_the_selected_entries_only(monkeypatch):
    (small, small_stored), (large, _) = fold_work(8, monkeypatch), fold_work(16, monkeypatch)
    # a pass after a fold filters the selected buckets (a sample's, or an
    # evaluation's): a small fraction of the stored entries
    assert 4 * max(small) <= small_stored
    # the selected names hold a few entries per peer, plus the
    # collector's own: twice the peers, at most twice the matcher calls
    assert max(small) > 0 and max(large) <= 2 * max(small)


def test_the_idle_round_trip_leaves_no_cyclic_garbage():
    deployment = idle_fleet(8)
    gc.collect()
    gc.disable()
    try:
        deployment.run(30.0)
        assert deployment.collector.stats.batches > 0
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0
