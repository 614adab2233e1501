"""Integration: every telemetry byte of a production-profile fleet, pinned.

An 8-peer fleet under the production profile — crypto lanes, batching,
a collector with head-sampled traces and the alert pack — runs four
honest rounds and drains its exporters.  Three SHA-256 digests cover
everything the telemetry path lets an operator see, split by what a
change may move:

* the **content** digests, two named parts:

  * ``collector`` — what the collector folded: the merged fleet snapshot
    (``to_json``), every assembled propagation tree, every exporter's and
    the collector's own accounting, and the alert-transition log.  A change
    to how spans are recorded, folded, drained or encoded, or to how
    metric deltas are computed and folded, must leave it alone;
  * ``network`` — what the fleet put on the wire: the messages sent per
    protocol and the gossipsub byte total.  Only a change to which
    copies are sent moves it;

* the **wire** digest — how those objects are laid down in bytes: every
  assembled span's ``to_bytes()`` and the ``telemetry`` /
  ``telemetry-reply`` byte totals.  Only a layout change moves it.

None depends on ``PYTHONHASHSEED``.
"""

import dataclasses
import hashlib
import json
from functools import lru_cache

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions

# ``collector`` and WIRE re-pinned when local roots stopped leaving their
# peer.  The fleet snapshot, the trees and the alert log hash as before;
# what moved: the exemplar fields and ``CollectorStats.traces`` are gone,
# each exporter ships 9 spans instead of 28-30, tree spans keep every
# field but ``seq`` (a local root no longer takes one), and telemetry
# bytes fell 53 957 -> 47 348.  Both re-pinned again when batches began
# leaving as soon as a lane could take them (no deadline): the spans'
# batch and dispatch marks moved earlier, telemetry bytes 47 348 -> 46 780;
# the same 9 trees, no alert firing, no batch lost, ``network`` unchanged.
# Both re-pinned again when a window began being split among the idle
# lanes: more, smaller batches land sooner (the spans' pairing marks move
# earlier) and fill other batch-size histogram buckets, telemetry bytes
# 46 780 -> 47 036; the same 9 trees, no alert, none lost, ``network``
# unchanged.
# All three re-pinned when an idle tick's liveness became a one-way
# ``Heartbeat`` instead of an empty, acked batch.  The fleet snapshot, the
# 9 trees and the alert log hash as before; the accounting moved (the
# collector folds 40 batches, not 232, and acks 40; each exporter builds
# only its 5 data batches, and the drain ends 4 ticks sooner), and so did
# the telemetry messages (240 -> 208 frames, 232 -> 40 replies) and bytes
# (47 036 -> 42 516 sent, 3 944 -> 680 in replies).
# ``collector`` re-pinned when the write-only ``ExporterStats.metrics_exported``
# was deleted: the parent's run without that key hashes to this digest.
CONTENT = {
    "collector": "a6e33c4554819073553ca02f038921a7d09321ce962e3c424479fec329944fce",
    # Re-pinned with IDONTWANT (fewer gossipsub copies), and when each mesh
    # peer's IDONTWANT began listing only the ids it is not known to hold:
    # the same 516 gossipsub messages, 135 780 bytes (144 996).
    "network": "abc6024a2b3609a0c983a6805189ec6d798fce25560de61b7221310a7701aba1",
}
WIRE = "8001f483c54e2106cad46f1af00f443be4d1e90dc86b5f10b88d776cee7fa5ac"


@lru_cache(maxsize=1)
def run_fleet() -> RLNDeployment:
    deployment = RLNDeployment.create(
        peer_count=8,
        degree=3,
        seed=11,
        config=RLNConfig(epoch_length=1.0, max_epoch_gap=2),
        pipeline_config=PipelineConfig(workers=2, batch_size=8),
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


class Digest:
    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def feed(self, label: str, data: bytes | object) -> None:
        if not isinstance(data, bytes):
            data = json.dumps(data, sort_keys=True).encode()
        self._hash.update(label.encode() + b"\0" + len(data).to_bytes(8, "big") + data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def content_digest(deployment: RLNDeployment) -> dict[str, str]:
    collector, network = deployment.collector, deployment.network
    folded = Digest()
    folded.feed("fleet", collector.fleet_snapshot().to_json().encode())
    for tree in collector.assembler.trees():
        folded.feed("tree", tree.to_json())
    for peer_id in sorted(deployment.exporters):
        folded.feed(f"exporter {peer_id}", dataclasses.asdict(deployment.exporters[peer_id].stats))
    folded.feed("collector", dataclasses.asdict(collector.stats))
    folded.feed("alerts", collector.alert_events())
    wire = Digest()
    messages = {p: network.total_messages(protocol=p) for p in network.protocol_bytes()}
    wire.feed("messages", messages)
    wire.feed("gossipsub bytes", network.protocol_bytes()["gossipsub"])
    return {"collector": folded.hexdigest(), "network": wire.hexdigest()}


def wire_digest(deployment: RLNDeployment) -> str:
    digest = Digest()
    assembler = deployment.collector.assembler
    for trace_id in assembler.trace_ids():
        for span in assembler.spans(trace_id):
            digest.feed(f"span {span.peer} {span.seq}", span.to_bytes())
    protocol_bytes = deployment.network.protocol_bytes()
    for protocol in ("telemetry", "telemetry-reply"):
        digest.feed(f"{protocol} bytes", protocol_bytes[protocol])
    return digest.hexdigest()


def test_production_fleet_telemetry_content_is_unchanged():
    deployment = run_fleet()
    collector = deployment.collector
    # The run is the one the digests were taken from: traces were
    # sampled, trees reached the collector, nothing was lost.
    assert collector.stats.lost_batches == 0
    assert collector.assembler.trees()
    assert collector.firing() == []
    assert content_digest(deployment) == CONTENT


def test_production_fleet_telemetry_is_byte_identical():
    assert wire_digest(run_fleet()) == WIRE


if __name__ == "__main__":  # pragma: no cover - reprints the pins
    fleet = run_fleet()
    print(f"CONTENT = {json.dumps(content_digest(fleet), indent=4)}")
    print(f'WIRE = "{wire_digest(fleet)}"')
