"""E19 — distributed tracing: propagation trees from publish to verdict.

PR 7's collector merges per-peer waterfalls; nothing connected one peer's
verdict to the upstream hop that forwarded the bundle.  This PR puts a
:class:`~repro.telemetry.disttrace.SpanContext` on the wire (minted at
publish, re-stamped at every relay hop) and teaches the collector's
:class:`~repro.telemetry.disttrace.TraceAssembler` to stitch the
exported spans back into rooted propagation trees.  Two claims, at two
depth-scaled group sizes (depth 14 / 17 ≈ 10k / 100k member capacity)
under honest+flood load:

* **every delivered bundle assembles** — with ``trace_sample=1.0`` each
  honest publish yields exactly one *complete* rooted tree whose relay
  spans match the routers' delivery records hop for hop: one span per
  non-origin delivery, every span's peer a real receiver, every span's
  hop exactly its parent's hop + 1, no duplicates.  The flood half's
  trace additionally carries the ``evidence`` leaf spans — one per
  fleet-wide conviction — so a single trace spans publish to verdict.
  Fleet p50/p99 publish→verdict latency comes from the assembled trees
  (exact per-trace figures, not bucket estimates), and the assembled
  trees are dropped as JSON artifacts (``reports/E19-*.traces.json``).
* **sampling off is free** — ``trace_sample=0.0`` (the default) mints
  no cross-peer span: every span stays a local root, folded into the
  stage histograms and never archived, none reaches the assembler, and
  every relay-side figure (per-peer gossipsub traffic, total relay
  bytes, deliveries) is bit-identical to a collector-less run — the
  context is simply absent from the wire, not an empty placeholder.

The silent-arm guard is written to ``reports/E19-guard.json`` so CI can
fail the build if a cross-peer span or a context byte ever leaks into an
untraced deployment.

A third arm is the fan-out table for the router's holder rule: a
24-peer batched fleet at topology degree 6 / 8 / 12 must still deliver
every honest bundle to every peer exactly once while peers with a
pending verdict announce what they hold (IDONTWANT) and are spared those
copies.  Gossipsub bytes and sends per delivery, copies suppressed,
IDONTWANT frames sent and mean first-delivery time per degree go to
``reports/E19-fanout.json``.
"""

import json
import pathlib

import pytest

from repro.analysis.reporting import ExperimentReport, format_seconds
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.pipeline.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions
from repro.testing import inbox

#: members -> tree depth: capacity 2^14 / 2^17 (E16/E17 convention).
SCALES = {10_000: 14, 100_000: 17}
PEERS = 8
DEGREE = 4
GUARD_PATH = pathlib.Path(__file__).parent / "reports" / "E19-guard.json"
FANOUT_PATH = pathlib.Path(__file__).parent / "reports" / "E19-fanout.json"
FANOUT_PEERS = 24
FANOUT_DEGREES = (6, 8, 12)
TRACES_PATH = pathlib.Path(__file__).parent / "reports"

#: The honest half of the load: one publish per peer, distinct epochs.
HONEST = (
    ("peer-000", b"e19-honest-0"),
    ("peer-001", b"e19-honest-1"),
    ("peer-002", b"e19-honest-2"),
)


def build(members: int, *, collector: bool, trace_sample: float = 0.0) -> RLNDeployment:
    config = RLNConfig(tree_depth=SCALES[members], epoch_length=2.0)
    return RLNDeployment.create(
        peer_count=PEERS,
        degree=DEGREE,
        seed=19,
        config=config,
        # Staged validation (E16 shape) so hop spans carry real queueing
        # and pairing marks, not an all-inline instant.
        pipeline_config=PipelineConfig(workers=2, batch_size=4),
        collector=(
            CollectorOptions(interval=1.0, trace_sample=trace_sample)
            if collector
            else None
        ),
    )


def drive(deployment: RLNDeployment) -> dict[str, list]:
    """Honest+flood load: honest publishers plus a double-spend spammer.

    Returns each peer's inbox of what its relay delivered, by peer id.
    """
    inboxes = {peer_id: inbox(peer) for peer_id, peer in deployment.peers.items()}
    deployment.register_all()
    deployment.form_meshes()
    for publisher, payload in HONEST:
        deployment.peers[publisher].publish(payload)
        deployment.run(2.5)  # next epoch
    spammer = deployment.peers["peer-003"]
    spammer.publish(b"e19-spam-a")
    spammer.publish(b"e19-spam-b", force=True)  # the flood half: epoch reuse
    deployment.run(5.0)
    return inboxes


def receivers_of(inboxes: dict[str, list], payload: bytes) -> set[str]:
    """The routers' delivery record: which peers delivered this payload."""
    return {
        peer_id
        for peer_id, delivered in inboxes.items()
        if any(m.payload == payload for m in delivered)
    }


def trees_by_origin(deployment: RLNDeployment) -> dict[str, list]:
    assembler = deployment.collector.assembler
    by_origin: dict[str, list] = {}
    for tree in assembler.trees():
        by_origin.setdefault(tree.root.peer, []).append(tree)
    for origin in by_origin:
        by_origin[origin].sort(key=lambda t: t.root.start)
    return by_origin


def assert_matches_delivery_record(tree, inboxes, origin, payload) -> None:
    """The tree IS the delivery record: hop for hop, peer for peer."""
    assert tree.complete, payload
    receivers = receivers_of(inboxes, payload)
    assert origin in receivers  # local delivery at the publisher
    relay = tree.relay_spans()
    # One relay span per non-origin delivery (the origin's local delivery
    # happens at publish time, inside the root span).
    assert len(relay) == len(receivers) - 1, payload
    assert {span.peer for span in relay} == receivers - {origin}, payload
    assert tree.duplicate_deliveries == 0, payload
    for span in relay:
        parent = tree.spans[span.parent_id]
        assert span.hop == parent.hop + 1, (payload, span.peer)
        assert span.start >= parent.start, (payload, span.peer)
    assert tree.root.kind == "publish" and tree.root.hop == 0
    assert tree.hops >= 1 and tree.max_fanout >= 1


@pytest.mark.parametrize("members", sorted(SCALES))
def test_every_delivery_assembles_into_one_rooted_tree(members, report_sink):
    deployment = build(members, collector=True, trace_sample=1.0)
    inboxes = drive(deployment)
    deployment.flush_telemetry()
    collector = deployment.collector
    assert collector is not None and collector.stats.lost_batches == 0
    assert collector.assembler.duplicates == 0
    for peer in deployment.peers.values():
        assert peer.disttracer.rewrites_missed == 0, peer.peer_id

    by_origin = trees_by_origin(deployment)

    # The tentpole assertion: every honest publish is exactly one
    # complete rooted tree matching the routers' delivery records.
    for publisher, payload in HONEST:
        assert len(receivers_of(inboxes, payload)) == PEERS, payload
        assert len(by_origin[publisher]) == 1, publisher
        assert_matches_delivery_record(
            by_origin[publisher][0], inboxes, publisher, payload
        )

    # The flood half: the spammer's two publishes are two traces.  Both
    # copies are *judged* everywhere they arrive (a relay span per
    # verdict, even a REJECT that is never delivered or forwarded), and
    # the convicting copy carries one evidence leaf per conviction — so
    # the delivery-record match above is an honest-bundle property, while
    # spam traces show judgment reach instead.
    spam_trees = by_origin["peer-003"]
    assert len(spam_trees) == 2
    evidence = [
        span
        for tree in spam_trees
        for span in tree.spans.values()
        if span.kind == "evidence"
    ]
    convictions = deployment.total_spam_detected()
    assert convictions > 0, "the flood half of the load never convicted"
    assert len(evidence) == convictions
    for tree in spam_trees:
        assert tree.complete
        # Linked leaves never widen the relay accounting, and every
        # judging span is a real fleet peer one hop below its parent.
        assert set(evidence).isdisjoint(tree.relay_spans())
        for span in tree.relay_spans():
            assert span.peer in deployment.peers
            assert span.hop == tree.spans[span.parent_id].hop + 1

    # Fleet publish->verdict latency, exact per assembled trace.
    quantiles = collector.assembler.quantiles()
    assert quantiles["count"] == sum(
        len(tree.relay_spans()) for tree in collector.assembler.trees()
    )
    assert 0.0 < quantiles["p50"] <= quantiles["p99"] <= quantiles["max"]

    # Assembled-trace JSON artifact (uploaded by CI next to the tables).
    artifact = TRACES_PATH / f"E19-{members}.traces.json"
    artifact.parent.mkdir(exist_ok=True)
    artifact.write_text(
        json.dumps(
            [tree.to_json() for tree in collector.assembler.trees()], indent=2
        )
        + "\n",
        encoding="utf-8",
    )

    report = ExperimentReport(
        experiment=f"E19-{members}",
        claim="every delivered bundle assembles into one rooted propagation "
        "tree; hop counts match the routers' delivery records",
        headers=("trace", "spans", "hops", "max fan-out", "end-to-end"),
    )
    for origin in sorted(by_origin):
        for index, tree in enumerate(by_origin[origin]):
            report.add_row(
                f"{origin}[{index}]",
                tree.span_count,
                tree.hops,
                tree.max_fanout,
                format_seconds(tree.end_to_end),
            )
    report.add_note(
        f"depth {SCALES[members]} (capacity {members}); {PEERS} peers, "
        f"trace_sample=1.0; {collector.assembler.span_count} spans over "
        f"{len(collector.assembler.trace_ids())} traces, "
        f"{collector.assembler.duplicates} duplicate arrivals; "
        f"{convictions} convictions = {len(evidence)} evidence spans"
    )
    report.add_note(
        f"fleet publish->verdict (exact, per assembled trace): "
        f"p50={format_seconds(quantiles['p50'])} "
        f"p99={format_seconds(quantiles['p99'])} "
        f"max={format_seconds(quantiles['max'])} over {quantiles['count']} "
        f"verdicts; artifact {artifact.name}"
    )
    report_sink(report)


def test_sample_zero_is_wire_silent_and_bit_identical(report_sink):
    """The default-off arm: no cross-peer span anywhere, relay untouched."""
    plain = build(10_000, collector=False)
    silent = build(10_000, collector=True, trace_sample=0.0)
    plain_inboxes = drive(plain)
    inboxes = drive(silent)
    silent.flush_telemetry()

    # Zero cross-peer spans minted, exported, or assembled: every span
    # was a local root, folded and dropped, so every tracer's ring is
    # empty; no publish was sampled and no message carried a context for
    # a child to hang from.
    collector = silent.collector
    assert collector is not None
    assert collector.assembler.span_count == 0
    spans_exported = collector.stats.spans
    assert spans_exported == 0
    assert all(
        telemetry.disttracer(peer_id).recent() == ()
        for peer_id, telemetry in silent.telemetries.items()
    )
    assert all(
        message.trace is None
        for delivered in inboxes.values()
        for message in delivered
    )

    # Relay figures bit-identical: the SpanContext is absent from the
    # wire (WakuMessage.byte_size counts it when present), the sampling
    # RNG never touches the router's, and collectors are never meshed.
    for peer_id in plain.peer_ids():
        assert (
            plain.peers[peer_id].relay.traffic()
            == silent.peers[peer_id].relay.traffic()
        ), peer_id
    relay_plain = plain.network.protocol_bytes()["gossipsub"]
    relay_silent = silent.network.protocol_bytes()["gossipsub"]
    assert relay_plain == relay_silent
    for _, payload in HONEST:
        assert receivers_of(plain_inboxes, payload) == receivers_of(inboxes, payload)

    GUARD_PATH.parent.mkdir(exist_ok=True)
    GUARD_PATH.write_text(
        json.dumps(
            {
                "experiment": "E19-guard",
                "span_records_exported_at_sample_zero": spans_exported,
                "spans_assembled_at_sample_zero": collector.assembler.span_count,
                "relay_bytes_plain": relay_plain,
                "relay_bytes_sample_zero": relay_silent,
                "relay_bit_identical": relay_plain == relay_silent,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    report = ExperimentReport(
        experiment="E19-overhead",
        claim="trace_sample=0.0 is free: no context on the wire, no "
        "cross-peer span, relay bit-identical to an untraced deployment",
        headers=("arm", "relay bytes", "cross-peer span records"),
    )
    report.add_row("collector=None (seed)", relay_plain, 0)
    report.add_row("trace_sample=0.0", relay_silent, spans_exported)
    report.add_note(
        "guard artifact reports/E19-guard.json: CI fails if cross-peer "
        "span records ever leak at sample 0.0 or relay bytes diverge"
    )
    report_sink(report)


def fanout_row(degree: int) -> dict:
    """One batched fleet at ``degree``: rounds of four honest publishes."""
    deployment = RLNDeployment.create(
        peer_count=FANOUT_PEERS,
        degree=degree,
        seed=19,
        config=RLNConfig(tree_depth=SCALES[10_000], epoch_length=2.0),
        pipeline_config=PipelineConfig(workers=2, batch_size=4),
    )
    deployment.register_all()
    deployment.form_meshes()
    network, simulator = deployment.network, deployment.simulator
    arrivals: dict[bytes, dict[str, float]] = {}
    inboxes = {peer_id: inbox(peer) for peer_id, peer in deployment.peers.items()}
    for peer_id, peer in deployment.peers.items():
        peer.relay.subscribe(
            lambda message, peer_id=peer_id: arrivals.setdefault(
                message.payload, {}
            ).setdefault(peer_id, simulator.now)
        )
    bytes_before = network.total_bytes(protocol="gossipsub")
    sends_before = network.total_messages(protocol="gossipsub")
    published: dict[bytes, tuple[str, float]] = {}
    ids = deployment.peer_ids()
    for round_index in range(3):
        for publisher in ids[round_index * 4 : round_index * 4 + 4]:
            payload = b"e19-fanout-%d-%s" % (degree, publisher.encode())
            published[payload] = (publisher, simulator.now)
            deployment.peers[publisher].publish(payload)
        deployment.run(2.5)  # next epoch

    # Complete, once-only delivery: the rule never costs a first copy.
    for payload in published:
        for peer_id, delivered in inboxes.items():
            count = sum(1 for m in delivered if m.payload == payload)
            assert count == 1, (degree, payload, peer_id, count)
    latencies = [
        when - published[payload][1]
        for payload, by_peer in arrivals.items()
        for peer_id, when in by_peer.items()
        if peer_id != published[payload][0]
    ]
    deliveries = len(latencies)
    assert deliveries == len(published) * (FANOUT_PEERS - 1)
    stats = [peer.router_stats for peer in deployment.peers.values()]
    return {
        "degree": degree,
        "deliveries": deliveries,
        "bytes_per_delivery": round(
            (network.total_bytes(protocol="gossipsub") - bytes_before) / deliveries, 2
        ),
        "sends_per_delivery": round(
            (network.total_messages(protocol="gossipsub") - sends_before) / deliveries, 3
        ),
        "suppressed": sum(s.suppressed for s in stats),
        "idontwant_sent": sum(s.idontwant_sent for s in stats),
        "mean_first_delivery_s": round(sum(latencies) / deliveries, 6),
    }


def test_fanout_table_delivers_once_and_spares_holders(report_sink):
    rows = [fanout_row(degree) for degree in FANOUT_DEGREES]
    for row in rows:
        # Deferred verdicts announce, and the announcements spare copies.
        assert row["idontwant_sent"] > 0 and row["suppressed"] > 0, row

    FANOUT_PATH.parent.mkdir(exist_ok=True)
    FANOUT_PATH.write_text(
        json.dumps({"experiment": "E19-fanout", "peers": FANOUT_PEERS, "rows": rows}, indent=2)
        + "\n",
        encoding="utf-8",
    )
    report = ExperimentReport(
        experiment="E19-fanout",
        claim="a pending verdict spares its holder every copy: complete, "
        "once-only delivery at every fan-out",
        headers=(
            "degree",
            "B/delivery",
            "sends/delivery",
            "suppressed",
            "IDONTWANT sent",
            "mean first delivery",
        ),
    )
    for row in rows:
        report.add_row(
            row["degree"],
            f"{row['bytes_per_delivery']:.0f}",
            f"{row['sends_per_delivery']:.2f}",
            row["suppressed"],
            row["idontwant_sent"],
            format_seconds(row["mean_first_delivery_s"]),
        )
    report.add_note(
        f"{FANOUT_PEERS} peers, batch_size=4 over 2 lanes; gossipsub traffic "
        f"after mesh formation over {rows[0]['deliveries']} deliveries per degree; "
        f"artifact {FANOUT_PATH.name}"
    )
    report_sink(report)
