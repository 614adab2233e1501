"""Integration: every telemetry byte of a production-profile fleet, pinned.

An 8-peer fleet under the production profile — crypto lanes, batching,
a collector with head-sampled traces and the alert pack — runs four
honest rounds and drains its exporters.  One SHA-256 covers everything
the telemetry path lets an operator see:

* the collector's merged fleet snapshot (``to_json``);
* every exemplar span the collector kept, as its wire bytes;
* every assembled propagation tree (``to_json``);
* the bytes the network billed per protocol (telemetry included);
* every exporter's and the collector's own accounting;
* the alert-transition log.

A change to how spans are recorded, folded, drained or encoded, or to
how metric deltas are computed and folded, must leave this digest alone.
It does not depend on ``PYTHONHASHSEED``.
"""

import dataclasses
import hashlib
import json

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions

GOLDEN = "132d7f3f88df01246725cd64942bebda5e9be56f55d1f65e0bf1e25b96aa4796"


def run_fleet() -> RLNDeployment:
    deployment = RLNDeployment.create(
        peer_count=8,
        degree=3,
        seed=11,
        config=RLNConfig(epoch_length=1.0, max_epoch_gap=2),
        pipeline_config=PipelineConfig(workers=2, batch_size=8, batch_deadline=0.05),
        collector=CollectorOptions(interval=1.0, trace_sample=0.25, alerting=True),
    )
    deployment.register_all()
    deployment.form_meshes()
    for number in range(4):
        for index, peer_id in enumerate(deployment.peer_ids()):
            deployment.peers[peer_id].publish(b"golden|%d|%d" % (number, index))
        deployment.run(1.0)
    deployment.flush_telemetry()
    return deployment


def telemetry_digest(deployment: RLNDeployment) -> str:
    collector = deployment.collector
    digest = hashlib.sha256()

    def feed(label: str, data: bytes) -> None:
        digest.update(label.encode() + b"\0" + len(data).to_bytes(8, "big") + data)

    feed("fleet", collector.fleet_snapshot().to_json().encode())
    for seq, peer, record in collector.recent_traces():
        feed(f"exemplar {seq} {peer}", record.to_bytes())
    for tree in collector.assembler.trees():
        feed("tree", json.dumps(tree.to_json(), sort_keys=True).encode())
    feed("bytes", json.dumps(deployment.network.protocol_bytes(), sort_keys=True).encode())
    for peer_id in sorted(deployment.exporters):
        stats = dataclasses.asdict(deployment.exporters[peer_id].stats)
        feed(f"exporter {peer_id}", json.dumps(stats, sort_keys=True).encode())
    feed("collector", json.dumps(dataclasses.asdict(collector.stats), sort_keys=True).encode())
    feed("alerts", json.dumps(collector.alert_events(), sort_keys=True).encode())
    return digest.hexdigest()


def test_production_fleet_telemetry_is_byte_identical():
    deployment = run_fleet()
    collector = deployment.collector
    # The run is the one the digest was taken from: traces were sampled,
    # exemplars and trees reached the collector, nothing was lost.
    assert collector.stats.lost_batches == 0
    assert collector.recent_traces() and collector.assembler.trees()
    assert collector.firing() == []
    assert telemetry_digest(deployment) == GOLDEN
