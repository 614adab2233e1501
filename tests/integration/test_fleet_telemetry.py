"""Integration: fleet telemetry through a full deployment.

The push pipeline end to end — per-peer hubs, periodic exporters, the
collector node folding delta batches — against the two promises the
cost-of-observability benchmark rests on:

* the collector's merged fleet snapshot equals the offline merge of the
  per-peer live snapshots exactly on every integer field (and within
  float tolerance on the ``sum`` accumulators);
* default-off means *zero* telemetry bytes on the wire, and enabling the
  collector leaves the relay's own behaviour untouched (the telemetry
  channel shares the transport but consumes no relay randomness);
* one span model at every sampling rate: each validation is exactly one
  finished ``bundle`` span, local roots stay off the wire, and every
  exported record survives its codec.
"""

import math

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.core.deployment import RLNDeployment
from repro.errors import ProtocolError
from repro.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions, Telemetry, TelemetrySnapshot
from repro.telemetry.disttrace import SpanRecord
from repro.testing import inbox


def drive(deployment: RLNDeployment) -> None:
    deployment.register_all()
    deployment.form_meshes()
    deployment.peers["peer-000"].publish(b"figure-1")
    deployment.run(5.0)
    deployment.peers["peer-001"].publish(b"figure-2")
    deployment.run(5.0)


def offline_merge(deployment: RLNDeployment) -> TelemetrySnapshot:
    merged = TelemetrySnapshot({})
    for peer_id in sorted(deployment.telemetries):
        merged = merged.merge(deployment.telemetries[peer_id].snapshot())
    return merged


def assert_snapshots_match(fleet: TelemetrySnapshot, offline: TelemetrySnapshot) -> None:
    assert fleet.data.keys() == offline.data.keys()
    for key in fleet.data:
        a, b = fleet.data[key], offline.data[key]
        for field in a:
            if field in ("labels", "quantiles"):
                assert a[field] == b[field], (key, field)
            elif isinstance(a[field], float):
                assert math.isclose(
                    a[field], b[field], rel_tol=1e-9, abs_tol=1e-12
                ), (key, field)
            else:
                assert a[field] == b[field], (key, field)


def test_fleet_snapshot_equals_offline_merge():
    deployment = RLNDeployment.create(peer_count=6, degree=3, seed=7, collector=True)
    drive(deployment)
    deployment.flush_telemetry()
    collector = deployment.collector
    assert collector is not None
    assert collector.peers() == deployment.peer_ids()
    assert collector.stats.lost_batches == 0
    assert_snapshots_match(collector.fleet_snapshot(), offline_merge(deployment))
    # Resource attributes rode every batch.
    resources = collector._resources
    assert resources["peer-000"] == {"peer": "peer-000", "role": "full", "shard": "-1"}
    # The fleet exposition renders without blowing up on real label values.
    assert "# TYPE trace_stage_seconds histogram" in collector.render_prometheus()


def test_default_off_means_zero_telemetry_bytes():
    deployment = RLNDeployment.create(peer_count=6, degree=3, seed=7)
    drive(deployment)
    assert deployment.collector is None
    assert deployment.collectors == {} and deployment.exporters == {}
    per_protocol = deployment.network.protocol_bytes()
    assert "telemetry" not in per_protocol
    assert "telemetry-reply" not in per_protocol


def test_enabling_collector_does_not_perturb_relay_behaviour():
    plain = RLNDeployment.create(peer_count=6, degree=3, seed=7)
    observed = RLNDeployment.create(peer_count=6, degree=3, seed=7, collector=True)
    plain_tracker, observed_tracker = DeliveryTracker(plain), DeliveryTracker(observed)
    drive(plain)
    drive(observed)
    for payload in (b"figure-1", b"figure-2"):
        assert plain_tracker.delivery_count(payload) == observed_tracker.delivery_count(payload)
    for peer_id in plain.peer_ids():
        assert (
            plain.peers[peer_id].relay.traffic()
            == observed.peers[peer_id].relay.traffic()
        )


@pytest.mark.parametrize("trace_sample", [0.0, 0.25, 1.0])
def test_one_span_per_validation_at_every_sampling_rate(trace_sample):
    def fleet(**kwargs) -> tuple[RLNDeployment, list]:
        deployment = RLNDeployment.create(peer_count=8, degree=4, seed=12, **kwargs)
        deployment.register_all()
        deployment.form_meshes()
        inboxes = [inbox(peer) for peer in deployment.peers.values()]
        for peer_id, peer in deployment.peers.items():
            peer.publish(peer_id.encode())
            deployment.run(1.0)
        deployment.run(4.0)
        return deployment, inboxes

    traced, inboxes = fleet(collector=CollectorOptions(trace_sample=trace_sample))
    traced.flush_telemetry()
    collector = traced.collector
    validations = sum(p.router_stats.validations for p in traced.peers.values())
    assert validations > 0
    finished = collector.fleet_snapshot().value("traces_finished_total", kind="bundle")
    assert finished == validations

    records = [
        record
        for peer_id, telemetry in traced.telemetries.items()
        for record in telemetry.disttracer(peer_id).recent()
    ]
    exported = sum(e.stats.spans_exported for e in traced.exporters.values())
    assert exported == len(records) and collector.stats.lost_batches == 0
    for record in records:
        assert SpanRecord.from_bytes(record.to_bytes()) == record

    # Local roots never leave their peer: no tracer archives one, and
    # every context a peer forwarded belongs to a sampled trace the
    # collector can root at a publish span.
    assert not any(record.local for record in records)
    forwarded = {
        message.trace.trace_id
        for delivered in inboxes
        for message in delivered
        if message.trace is not None
    }
    assert forwarded <= set(collector.assembler.trace_ids())
    assert collector.assembler.span_count == len(records)
    sampled = {r.peer for r in records if r.kind == "publish"}
    if trace_sample == 0.25:
        assert 0 < len(sampled) < len(traced.peers)  # both kinds of bundle span
    if trace_sample == 1.0:
        assert len(sampled) == len(traced.peers)
    if trace_sample == 0.0:
        assert not forwarded and collector.assembler.span_count == 0
        assert exported == 0
        plain, _ = fleet()
        assert (
            plain.network.protocol_bytes()["gossipsub"]
            == traced.network.protocol_bytes()["gossipsub"]
        )


def test_a_deferred_accept_forwards_under_the_forwarding_hop(monkeypatch):
    # The production pipeline profile defers every relay verdict to a batch
    # on a crypto lane; the verdict, landing later, names the copy to
    # forward, and that copy's context is the forwarding peer's own span.
    deployment = RLNDeployment.create(
        peer_count=8, degree=4, seed=12,
        pipeline_config=PipelineConfig(workers=2, batch_size=8),
        collector=CollectorOptions(trace_sample=1.0),
    )
    deployment.register_all()
    deployment.form_meshes()
    copies = []  # (forwarding peer, its copy's context)
    real_send = deployment.network.send

    def send(src, dst, payload, **kwargs):
        if kwargs.get("protocol", "gossipsub") == "gossipsub":
            copies.extend((src, m.payload.trace) for m in payload.messages)
        return real_send(src, dst, payload, **kwargs)

    monkeypatch.setattr(deployment.network, "send", send)
    for peer_id, peer in deployment.peers.items():
        peer.publish(peer_id.encode())
        deployment.run(1.0)
    deployment.run(4.0)
    deployment.flush_telemetry()
    assert sum(p.router_stats.deferred for p in deployment.peers.values()) > 0
    spans = {
        (record.peer, record.trace_id): record
        for peer_id, telemetry in deployment.telemetries.items()
        for record in telemetry.disttracer(peer_id).recent()
        if record.kind in ("bundle", "publish")
    }
    relayed = [(src, ctx) for src, ctx in copies if ctx.origin != src]
    assert relayed and all(ctx is not None for _, ctx in copies)
    for src, ctx in copies:
        own = spans[src, ctx.trace_id]
        assert (ctx.span_id, ctx.hop) == (own.span_id, own.hop), src


def test_collector_and_shared_telemetry_are_mutually_exclusive():
    with pytest.raises(ProtocolError):
        RLNDeployment.create(peer_count=4, collector=True, telemetry=Telemetry())


def heard(deployment: RLNDeployment, collector: str) -> int:
    """Telemetry frames (batches and heartbeats) delivered to ``collector``."""
    channel = deployment.network.stats[collector].per_protocol.get("telemetry")
    return channel.messages_received if channel else 0


def test_backup_collector_joins_the_topology():
    deployment = RLNDeployment.create(
        peer_count=4, degree=3, seed=3, collector=CollectorOptions(backup=True, alerting=True)
    )
    assert sorted(deployment.collectors) == ["collector-0", "collector-1"]
    assert "collector-1" in deployment.network.links
    deployment.register_all()
    deployment.run(3.0)
    deployment.flush_telemetry()
    deployment.run(5.0)
    # The primary answers first, and hears the idle heartbeats too; the
    # backup stays warm but idle.
    primary, backup = deployment.collectors.values()
    assert primary.stats.batches > 0
    assert heard(deployment, "collector-0") > primary.stats.batches
    assert backup.stats.batches == 0 and heard(deployment, "collector-1") == 0
    assert backup.health.peers() == []


def test_heartbeats_follow_a_failover_to_the_backup():
    deployment = RLNDeployment.create(
        peer_count=4, degree=3, seed=3, collector=CollectorOptions(backup=True, alerting=True)
    )
    deployment.register_all()
    deployment.run(3.0)
    deployment.flush_telemetry()
    backup = deployment.collectors["collector-1"]
    deployment.network.remove_peer("collector-0")
    # Idle: within one tick (and its link delay) the backup hears every
    # peer's heartbeat.
    deployment.run(1.0 + deployment.network.latency.worst_case())
    assert backup.stats.batches == 0
    assert backup.health.peers() == sorted(deployment.peers)
    # One data batch per peer fails over too; later idle heartbeats stay.
    for telemetry in deployment.telemetries.values():
        telemetry.registry.counter("failover_probe_total").inc()
    deployment.run(1.5)
    assert backup.stats.batches == len(deployment.peers)
    silent_after = backup.health.silent_after
    frames = heard(deployment, "collector-1")
    deployment.run(silent_after + 2.0)
    assert backup.stats.batches == len(deployment.peers)
    assert heard(deployment, "collector-1") - frames >= len(deployment.peers) * silent_after
    report = backup.health_report()
    assert report["counts"] == {"healthy": len(deployment.peers)}
    assert all(row["age"] < 1.5 for row in report["peers"])
    assert "rln-peer-silent" not in backup.firing()


def test_stop_closes_the_exporter_ticker():
    deployment = RLNDeployment.create(peer_count=4, degree=3, seed=3, collector=True)
    deployment.register_all()
    deployment.run(3.0)
    peer = deployment.peers["peer-000"]
    sent_before = deployment.exporters["peer-000"].stats.ticks
    peer.stop()
    deployment.run(5.0)
    assert deployment.exporters["peer-000"].stats.ticks == sent_before
