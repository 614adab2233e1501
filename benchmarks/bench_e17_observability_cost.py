"""E17 — fleet telemetry: push export to a collector, and what it costs.

PR 6 left telemetry pull-only and process-local; this PR adds the push
path — per-peer delta batches over the simulated network's ``telemetry``
channel into a :class:`~repro.telemetry.CollectorPeer`.  Two claims,
measured at three depth-scaled group sizes (depth 14 / 17 / 20 ≈ 10k /
100k / 1M member capacity — the E1 observation that depth, not
occupancy, governs cost) under honest+flood load:

* **the collector view is exact** — its merged fleet snapshot equals the
  offline merge of every peer's live snapshot on *every integer field*
  (counts, bucket counts, counter values; float ``sum`` accumulators
  within 1e-9).  Delta temporality plus seq dedup loses nothing when
  every batch lands;
* **observability is cheap and separable** — the telemetry channel's
  bytes are billed on the same transport as relay traffic but accounted
  per protocol, so the telemetry/relay byte ratio is a measured figure,
  and a collector-disabled run puts *zero* telemetry bytes on the wire
  while every relay-side figure (deliveries, per-peer gossipsub traffic)
  stays bit-identical — collectors are dialed directly, never meshed.

The disabled-arm guard is also written to ``reports/E17-guard.json`` so
CI can fail the build if telemetry bytes ever leak into a default-off
deployment — and, beside it, the enabled arm's telemetry bytes per
delivered message, asserted at most :data:`BYTES_PER_DELIVERY_BOUND` so
the bytes a batch saves by not repeating itself (symbol tables, varints,
one-bit repeated stamps) and by leaving local roots on their peer cannot
silently grow back.
The telemetry/relay byte ratio is written too, but not asserted: relay
bytes move with routing (IDONTWANT cut E17's by 29 %), telemetry's do not.
"""

import json
import math
import pathlib

import pytest

from repro.analysis.reporting import ExperimentReport, format_seconds
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.errors import ProtocolError
from repro.pipeline.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions, TelemetrySnapshot
from repro.testing import inbox

#: members -> tree depth: capacity 2^14 / 2^17 / 2^20 (E16 convention).
SCALES = {10_000: 14, 100_000: 17, 1_000_000: 20}
PEERS = 8
DEGREE = 4
GUARD_PATH = pathlib.Path(__file__).parent / "reports" / "E17-guard.json"
#: Ceiling on telemetry bytes per delivery at these settings: 32 360 B
#: over 33 deliveries with the compact batch layout and local roots kept
#: on their peer (33 896 B when they travelled; about 1 960 B per
#: delivery when every batch repeated its strings).
BYTES_PER_DELIVERY_BOUND = 32_360 / 33


def build(members: int, *, collector: bool) -> RLNDeployment:
    config = RLNConfig(tree_depth=SCALES[members], epoch_length=2.0)
    return RLNDeployment.create(
        peer_count=PEERS,
        degree=DEGREE,
        seed=17,
        config=config,
        # Staged validation (E16 shape) so the waterfall has real queueing
        # and pairing durations, not an all-inline instant.
        pipeline_config=PipelineConfig(workers=2, batch_size=4),
        collector=CollectorOptions(interval=1.0) if collector else None,
    )


def drive(deployment: RLNDeployment) -> list[list]:
    """Honest+flood load: honest publishers plus a double-spend spammer.

    Returns each peer's inbox of what its relay delivered.
    """
    inboxes = [inbox(peer) for peer in deployment.peers.values()]
    deployment.register_all()
    deployment.form_meshes()
    for index, publisher in enumerate(("peer-000", "peer-001", "peer-002")):
        deployment.peers[publisher].publish(b"e17-honest-%d" % index)
        deployment.run(2.5)  # next epoch
    spammer = deployment.peers["peer-003"]
    spammer.publish(b"e17-spam-a")
    spammer.publish(b"e17-spam-b", force=True)  # the flood half: epoch reuse
    deployment.run(5.0)
    return inboxes


def offline_merge(deployment: RLNDeployment) -> TelemetrySnapshot:
    merged = TelemetrySnapshot({})
    for peer_id in sorted(deployment.telemetries):
        merged = merged.merge(deployment.telemetries[peer_id].snapshot())
    return merged


def assert_fleet_exact(fleet: TelemetrySnapshot, offline: TelemetrySnapshot) -> None:
    """Every integer field exactly equal; float sums within rounding."""
    assert fleet.data.keys() == offline.data.keys()
    for key in fleet.data:
        a, b = fleet.data[key], offline.data[key]
        assert a.keys() == b.keys(), key
        for field in a:
            x, y = a[field], b[field]
            if isinstance(x, float) or field == "quantiles":
                if field == "quantiles":
                    assert x.keys() == y.keys(), (key, field)
                    pairs = [(x[q], y[q]) for q in x]
                else:
                    pairs = [(x, y)]
                for u, v in pairs:
                    assert math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-12), (
                        key, field, u, v,
                    )
            else:
                assert x == y, (key, field, x, y)


def telemetry_bytes(deployment: RLNDeployment) -> int:
    per_protocol = deployment.network.protocol_bytes()
    return per_protocol.get("telemetry", 0) + per_protocol.get("telemetry-reply", 0)


@pytest.mark.parametrize("members", sorted(SCALES))
def test_fleet_waterfall_and_byte_ratio(members, report_sink, snapshot_sink):
    observed = build(members, collector=True)
    drive(observed)
    observed.flush_telemetry()
    collector = observed.collector
    assert collector is not None and collector.stats.lost_batches == 0

    # The tentpole assertion: collector state == offline merge, exactly.
    fleet = collector.fleet_snapshot()
    assert_fleet_exact(fleet, offline_merge(observed))

    per_protocol = observed.network.protocol_bytes()
    relay_bytes = per_protocol["gossipsub"]
    tele_bytes = telemetry_bytes(observed)
    assert tele_bytes > 0 and relay_bytes > 0

    report = ExperimentReport(
        experiment=f"E17-{members}",
        claim="fleet-aggregated stage waterfall from the collector's merged "
        "snapshot; telemetry cost separable from relay bytes per protocol",
        headers=("stage", "bundles", "p50", "p99", "max"),
    )
    rows = collector.waterfall("bundle")
    assert rows, "collector saw no bundle stages"
    for row in rows:
        report.add_row(
            row["stage"],
            row["count"],
            format_seconds(row["p50"]),
            format_seconds(row["p99"]),
            format_seconds(row["max"]),
        )
    spam = observed.total_spam_detected()
    assert spam > 0, "the flood half of the load never convicted"
    report.add_note(
        f"depth {SCALES[members]} (capacity {members}); {PEERS} peers, "
        f"{len(collector.peers())} reporting; collector folded "
        f"{collector.stats.batches} batches / "
        f"{collector.stats.metrics_applied} metric deltas, "
        f"{collector.stats.duplicates} dup, {collector.stats.lost_batches} lost"
    )
    report.add_note(
        f"bytes on the wire: relay {relay_bytes}, telemetry {tele_bytes} "
        f"(ratio {tele_bytes / relay_bytes:.2f}); quantiles are bucket "
        f"estimates (additive wire representation); spam convictions "
        f"across the fleet: {spam}"
    )
    report_sink(report)
    snapshot_sink(f"E17-{members}", fleet)


def test_disabled_collector_keeps_the_wire_clean(report_sink):
    """Default-off arm: zero telemetry bytes, relay figures bit-identical."""
    plain = build(10_000, collector=False)
    observed = build(10_000, collector=True)
    drive(plain)
    inboxes = drive(observed)
    observed.flush_telemetry()

    leaked = telemetry_bytes(plain)
    assert leaked == 0
    assert plain.collectors == {} and plain.exporters == {}

    # Relay behaviour is untouched by observation: collectors are dialed
    # directly (require_edge=False), never meshed, and telemetry traffic
    # draws no relay randomness.
    for peer_id in plain.peer_ids():
        assert (
            plain.peers[peer_id].relay.traffic()
            == observed.peers[peer_id].relay.traffic()
        ), peer_id
    relay_bytes = observed.network.protocol_bytes()["gossipsub"]
    assert plain.network.protocol_bytes()["gossipsub"] == relay_bytes
    ratio = telemetry_bytes(observed) / relay_bytes
    deliveries = sum(len(got) for got in inboxes)
    per_delivery = telemetry_bytes(observed) / deliveries
    assert per_delivery <= BYTES_PER_DELIVERY_BOUND, (
        f"telemetry bytes per delivery {per_delivery:.1f} > {BYTES_PER_DELIVERY_BOUND:.1f}"
    )

    GUARD_PATH.parent.mkdir(exist_ok=True)
    GUARD_PATH.write_text(
        json.dumps(
            {
                "experiment": "E17-guard",
                "telemetry_bytes_when_disabled": leaked,
                "relay_bytes_plain": plain.network.protocol_bytes()["gossipsub"],
                "relay_bytes_observed": relay_bytes,
                "deliveries": deliveries,
                "telemetry_bytes_per_delivery": round(per_delivery, 2),
                "telemetry_bytes_per_delivery_bound": round(BYTES_PER_DELIVERY_BOUND, 2),
                "telemetry_relay_ratio": round(ratio, 4),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    report = ExperimentReport(
        experiment="E17-overhead",
        claim="cost of observability: telemetry bytes ride their own "
        "protocol channel; disabled means zero bytes and bit-identical relay",
        headers=("arm", "relay bytes", "telemetry bytes"),
    )
    report.add_row(
        "collector=None (seed)",
        plain.network.protocol_bytes()["gossipsub"],
        0,
    )
    report.add_row("collector=True", relay_bytes, telemetry_bytes(observed))
    report.add_note(
        "guard artifact reports/E17-guard.json: CI fails if "
        "telemetry_bytes_when_disabled is ever nonzero, or if telemetry "
        f"bytes per delivery ({per_delivery:.1f}) exceed "
        f"{BYTES_PER_DELIVERY_BOUND:.1f}; telemetry/relay byte ratio {ratio:.2f}"
    )
    report_sink(report)


def test_collector_excludes_shared_hub():
    with pytest.raises(ProtocolError):
        from repro.telemetry import Telemetry

        RLNDeployment.create(peer_count=4, collector=True, telemetry=Telemetry())
