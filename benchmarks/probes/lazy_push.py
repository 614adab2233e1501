"""What does lazy push cost and save, by eager fan-out and mesh degree?

    python3 benchmarks/probes/lazy_push.py [--seeds 11] [--degrees 6 8 12] [--rounds 3]

A fleet of 20 WAKU-RLN-RELAY peers on a random regular graph of the given
degree, with GossipSub's mesh degree ``d`` set to the same number (so the
degree is the relay fan-out), registers, forms its meshes and runs
``honest_steady``'s load: every peer publishes once per 1-s epoch, all at
the same instant, over constant 50 ms links, then again over E7's
``UniformLatency(0.02, 0.2)`` links (where a fetch waits the 200 ms link
bound).  A relay pushes the full copy to ``D_EAGER`` mesh targets
(``d_eager`` here, patched into ``repro.gossipsub.router``) and announces
the id to the rest (IHAVE); ``d_eager = d`` is §III's flood.  For each
(links, degree, ``d_eager``) this prints, over the measured rounds (set-up
traffic excluded):

* ``B/delivery``: gossipsub bytes per delivery, publishers' own included,
* the simulated delivery latency's mean and p99 (publish to delivery),
* ``sends``: gossipsub copies sent (``net.sends``),
* ``iwants``: IWANT frames sent, i.e. fetches of an announced id,
* ``served``: copies sent in answer to an IWANT,
* ``wasted``: served copies that reached a router which had witnessed the
  id by then (counted by wrapping two router methods, no ``src/`` counter),
* ``idw``: IDONTWANT ids sent, one per (id, receiving peer) (counted by
  wrapping the router's ``_send_all``),
* ``dups``: copies a router received for an id it had witnessed.

Each links model ends with one row (``pipeline`` ``prod``) for the
production pipeline profile, ``workers=2, batch_size=8``, at the first
degree and the router's own ``D_EAGER``; the other rows verify inline.
The last line is the rows as JSON.  It exits 1 if any message missed a
peer.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import RLNConfig  # noqa: E402
from repro.core.deployment import RLNDeployment  # noqa: E402
from repro.gossipsub import router as router_module  # noqa: E402
from repro.gossipsub.router import GossipSubParams, GossipSubRouter  # noqa: E402
from repro.net.latency import ConstantLatency, LatencyModel, UniformLatency  # noqa: E402
from repro.pipeline import PipelineConfig  # noqa: E402

PEERS = 20
DEGREES = (6, 8, 12)
D_EAGERS = (1, 2, 3, 4)
#: Constant links, then E7's random ones.
LINKS = {"const": ConstantLatency(0.05), "uniform": UniformLatency(0.02, 0.2)}
#: Simulated seconds that let the last round reach everyone.
DRAIN_S = 3.0
#: The rows' verification: inline, or the production profile's lanes and batches.
PIPELINES = {"inline": None, "prod": PipelineConfig(workers=2, batch_size=8)}
#: Served copies (a reply to an IWANT) that found their id witnessed.
WASTED = [0]
#: IDONTWANT ids sent, counted once per receiving peer.
IDW = [0]


def count_wasted() -> None:
    """Wrap ``_handle_iwant`` to tag the RPCs it sends and ``_on_rpc`` to
    count a tagged RPC's messages the receiver had witnessed.  Call it
    before any router starts: the network holds the bound ``_on_rpc``."""
    served: dict[int, object] = {}  # id -> RPC, kept alive so ids stay unique
    handle_iwant, on_rpc = GossipSubRouter._handle_iwant, GossipSubRouter._on_rpc

    def tagging_iwant(self, sender, iwant):
        send = self._send

        def tagging_send(peer, rpc):
            served[id(rpc)] = rpc
            send(peer, rpc)

        self._send = tagging_send
        try:
            handle_iwant(self, sender, iwant)
        finally:
            del self._send  # back to the class's _send

    def counting_on_rpc(self, sender, rpc):
        if served.get(id(rpc)) is rpc:
            WASTED[0] += sum(self._table.seen(m.msg_id) for m in rpc.messages)
        on_rpc(self, sender, rpc)

    GossipSubRouter._handle_iwant = tagging_iwant
    GossipSubRouter._on_rpc = counting_on_rpc


def count_idontwant_ids() -> None:
    """Wrap ``_send_all`` to count the IDONTWANT ids each send carries, per peer."""
    send_all = GossipSubRouter._send_all

    def counting_send_all(self, peers, rpc):
        IDW[0] += len(peers) * sum(len(frame.msg_ids) for frame in rpc.idontwant)
        send_all(self, peers, rpc)

    GossipSubRouter._send_all = counting_send_all


def params(degree: int) -> GossipSubParams:
    """Mesh degree ``degree``, its bounds widened to hold it."""
    return GossipSubParams(d=degree, d_lo=min(4, degree), d_hi=max(12, degree))


def measure(
    latency: LatencyModel,
    degree: int,
    d_eager: int,
    seed: int,
    rounds: int,
    pipeline: PipelineConfig | None = None,
) -> dict:
    router_module.D_EAGER = d_eager
    dep = RLNDeployment.create(
        peer_count=PEERS,
        degree=degree,
        seed=seed,
        config=RLNConfig(epoch_length=1.0, max_epoch_gap=2),
        latency=latency,
        pipeline_config=pipeline,
    )
    routers = [peer.relay.router for peer in dep.peers.values()]
    for router in routers:
        router.params = params(degree)
    dep.register_all()
    dep.form_meshes()
    simulator, network = dep.simulator, dep.network
    deliveries: list[tuple[bytes, str, float]] = []
    for peer_id, peer in dep.peers.items():
        peer.relay.subscribe(
            lambda m, peer_id=peer_id: deliveries.append((m.payload, peer_id, simulator.now))
        )
    before = (
        network.total_bytes(protocol="gossipsub"),
        network.total_messages(protocol="gossipsub"),
        sum(r.stats.iwant_sent for r in routers),
        sum(r.stats.iwant_served for r in routers),
        WASTED[0],
        IDW[0],
        sum(r.stats.duplicates for r in routers),
    )
    sent_at: dict[bytes, float] = {}
    for number in range(rounds):
        for index, peer_id in enumerate(dep.peer_ids()):
            payload = b"lazy|%d|%d" % (number, index)
            sent_at[payload] = simulator.now
            dep.peer(peer_id).publish(payload)
        dep.run(1.0)
    dep.run(DRAIN_S)
    after = (
        network.total_bytes(protocol="gossipsub"),
        network.total_messages(protocol="gossipsub"),
        sum(r.stats.iwant_sent for r in routers),
        sum(r.stats.iwant_served for r in routers),
        WASTED[0],
        IDW[0],
        sum(r.stats.duplicates for r in routers),
    )
    gossip_bytes, sends, iwants, served, wasted, idw, dups = (
        b - a for a, b in zip(before, after)
    )
    latencies = sorted(when - sent_at[p] for p, _, when in deliveries if p in sent_at)
    received = {(p, peer_id) for p, peer_id, _ in deliveries if p in sent_at}
    return {
        "degree": degree,
        "d_eager": d_eager,
        "missing": len(sent_at) * PEERS - len(received),
        "bytes_per_delivery": gossip_bytes / max(1, len(latencies)),
        "delivery_mean_s": sum(latencies) / max(1, len(latencies)),
        "delivery_p99_s": latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))],
        "sends": sends,
        "iwants": iwants,
        "served": served,
        "wasted": wasted,
        "idontwant_ids": idw,
        "duplicates": dups,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--degrees", type=int, nargs="+", default=list(DEGREES))
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    count_wasted()
    count_idontwant_ids()
    default_eager = router_module.D_EAGER
    rows = []
    for links, latency in LINKS.items():
        print(
            f"{'links':>7} {'pipeline':>8} {'degree':>6} {'d_eager':>7} {'B/delivery':>10}"
            f" {'mean s':>7} {'p99 s':>6} {'sends':>7} {'iwants':>6} {'served':>6}"
            f" {'wasted':>6} {'idw':>6} {'dups':>7}"
        )
        cases = [
            ("inline", degree, d_eager)
            for degree in args.degrees
            for d_eager in sorted({*D_EAGERS, degree})
        ] + [("prod", args.degrees[0], default_eager)]
        for pipeline, degree, d_eager in cases:
            runs = [
                measure(latency, degree, d_eager, seed, args.rounds, PIPELINES[pipeline])
                for seed in args.seeds
            ]
            row = {
                "links": links,
                "pipeline": pipeline,
                "degree": degree,
                "d_eager": d_eager,
                "missing": sum(r["missing"] for r in runs),
                **{
                    key: sum(r[key] for r in runs) / len(runs)
                    for key in (
                        "bytes_per_delivery", "delivery_mean_s", "delivery_p99_s",
                        "sends", "iwants", "served", "wasted", "idontwant_ids",
                        "duplicates",
                    )
                },
            }
            rows.append(row)
            print(
                f"{links:>7} {pipeline:>8} {degree:>6} {d_eager:>7}"
                f" {row['bytes_per_delivery']:>10.1f} {row['delivery_mean_s']:>7.4f}"
                f" {row['delivery_p99_s']:>6.3f} {row['sends']:>7.0f} {row['iwants']:>6.0f}"
                f" {row['served']:>6.0f} {row['wasted']:>6.0f} {row['idontwant_ids']:>6.0f}"
                f" {row['duplicates']:>7.0f}"
            )
    router_module.D_EAGER = default_eager
    print(json.dumps(rows))
    return 0 if all(row["missing"] == 0 for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
