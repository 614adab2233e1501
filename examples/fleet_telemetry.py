#!/usr/bin/env python3
"""Fleet telemetry: a 10-peer deployment pushing metrics to a collector.

One flag — ``collector=True`` — gives every peer its own telemetry hub
plus a push exporter, and stands up a collector node the fleet dials
directly (never meshed, so relay behaviour is untouched).  Exporters
snapshot-and-diff their registries every simulated second and push
OTLP-style delta batches over the ``telemetry`` protocol channel; the
collector folds them into per-peer state and re-renders the *whole
deployment* as one Prometheus exposition and one fleet-wide stage
waterfall.

With ``trace_sample=1.0`` every publish additionally mints a distributed
trace: a :class:`~repro.telemetry.disttrace.SpanContext` rides the
message through the mesh, every hop's validation becomes a child span,
and the collector's :class:`~repro.telemetry.disttrace.TraceAssembler`
stitches the exported spans back into the publish's propagation tree.

Run:  python examples/fleet_telemetry.py
"""

from repro.core import RLNConfig, RLNDeployment
from repro.telemetry import CollectorOptions


def main() -> None:
    print("== WAKU-RLN-RELAY fleet telemetry ==\n")

    # 1. Same one-call deployment as quickstart, plus the collector —
    #    here with distributed tracing on (default is 0.0: span-free
    #    wire, bit-identical relay).
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=10)
    deployment = RLNDeployment.create(
        peer_count=10, degree=4, seed=1, config=config,
        collector=CollectorOptions(trace_sample=1.0),
    )
    deployment.register_all()
    deployment.form_meshes()

    # 2. Generate some load: honest traffic and one epoch-reusing spammer.
    deployment.peer("peer-000").publish(b"hello, observable world")
    deployment.run(3.0)
    eve = deployment.peer("peer-007")
    eve.publish(b"spam a", force=True)
    eve.publish(b"spam b", force=True)
    deployment.run(5.0)

    # 3. Drain: push outstanding deltas and let the acks land.
    deployment.flush_telemetry()
    collector = deployment.collector
    assert collector is not None

    print(f"peers reporting    : {len(collector.peers())}/10")
    print(f"batches folded     : {collector.stats.batches} "
          f"({collector.stats.metrics_applied} metric deltas, "
          f"{collector.stats.duplicates} duplicates, "
          f"{collector.stats.lost_batches} lost)")

    # 4. The cost of observability, separable per protocol channel.
    per_protocol = deployment.network.protocol_bytes()
    relay = per_protocol.get("gossipsub", 0)
    telemetry = per_protocol.get("telemetry", 0) + per_protocol.get("telemetry-reply", 0)
    print(f"relay bytes        : {relay}")
    print(f"telemetry bytes    : {telemetry} (ratio {telemetry / relay:.2f})\n")

    # 5. Fleet-wide stage waterfall, rebuilt from the merged histograms.
    print("fleet bundle waterfall (bucket-estimate quantiles):")
    for row in collector.waterfall("bundle"):
        print(f"  {row['stage']:<14} n={row['count']:<4} "
              f"p50={row['p50'] * 1e6:8.2f}us  p99={row['p99'] * 1e6:8.2f}us")

    # 6. The whole deployment as one Prometheus text exposition.
    text = collector.render_prometheus()
    lines = text.splitlines()
    print(f"\nfleet Prometheus exposition: {len(lines)} lines; first 12:")
    for line in lines[:12]:
        print(f"  {line}")

    spam = deployment.total_spam_detected()
    print(f"\nspam detections observed fleet-wide: {spam}")

    # 7. One assembled propagation tree, hop by hop (the richest one —
    #    a spam publish even shows the evidence spans under each verdict).
    trees = collector.assembler.trees()
    exemplar = max(
        (t for t in trees if t.complete and t.relay_spans()),
        key=lambda t: t.span_count,
        default=None,
    )
    if exemplar is not None:
        print(f"\npropagation tree {exemplar.to_json()['trace_id'][:16]}… "
              f"({exemplar.span_count} spans, {exemplar.hops} hops, "
              f"max fan-out {exemplar.max_fanout}, "
              f"end-to-end {exemplar.end_to_end * 1e3:.1f}ms):")
        print(exemplar.render())
        q = collector.assembler.quantiles()
        print(f"\nfleet publish->verdict latency over {len(trees)} traces: "
              f"p50={q['p50'] * 1e3:.1f}ms p99={q['p99'] * 1e3:.1f}ms")

    # 8. Close the loop: alerting and liveness (PR 10).  A fresh fleet
    #    with ``alerting=True`` gets the built-in RLN rule pack evaluated
    #    on the simulated clock (and exporter heartbeats, so a quiet peer
    #    is distinguishable from a dead one).  Trigger an invalid-proof
    #    flood, watch ``rln-spam-flood`` fire; stop a peer, watch the
    #    liveness classifier call it silent.
    print("\n== alerting & fleet health ==\n")
    from repro.core.protocol import WakuMessage

    watched = RLNDeployment.create(
        peer_count=8, degree=4, seed=2,
        config=RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=8),
        collector=CollectorOptions(
            interval=0.5, alerting=True, evaluation_interval=0.5
        ),
    )
    watched.register_all()
    watched.form_meshes()
    watched.run(2.0)

    attacker = watched.peer("peer-000")
    for i in range(8):
        honest = attacker._build_message(
            b"flood-%d" % i, "t", attacker.current_epoch()
        )
        forged = WakuMessage(
            payload=honest.payload,
            content_topic=honest.content_topic,
            rate_limit_proof=honest.rate_limit_proof.forged_copy(),
        )
        attacker.relay.publish(forged)
        watched.run(0.5)

    fleet_collector = watched.collector
    print(f"firing alerts      : {fleet_collector.firing()}")
    for event in fleet_collector.alert_events():
        print(f"  t={event['time']:6.2f}s  {event['alertname']:<16} "
              f"-> {event['state']} (value {event['value']:.2f})")
    alerts = [line for line in fleet_collector.render_prometheus().splitlines()
              if line.startswith("ALERTS")]
    for line in alerts:
        print(f"  {line}")

    watched.peer("peer-007").stop()     # exporter closes: heartbeats stop
    watched.run(8.0)
    health = fleet_collector.health_report()
    print(f"\nfleet health score : {health['score']:.2f}  "
          f"(counts: {health['counts']})")
    for row in health["peers"]:
        if row["status"] != "healthy":
            print(f"  {row['peer']:<10} {row['status']:<8} "
                  f"last fold {row['last_fold']:.1f}s, age {row['age']:.1f}s")


if __name__ == "__main__":
    main()
