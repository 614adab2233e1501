"""Integration: a simulated run is the same under every ``PYTHONHASHSEED``.

A router or PoW peer built without ``rng=`` seeds its own generator from
its peer id; that seed fixes the heartbeat phase and every mesh shuffle,
so it must not come from ``hash()``, which is salted per interpreter.
A router with more mesh candidates than it needs shuffles them, so it
must shuffle them from a hash-independent (sorted) order.
A mesh grown past ``d_hi`` is ranked from a sorted order for the same
reason.  Each hash seed runs in a fresh interpreter, which reports the
first heartbeat offset of a default-seeded router and of a default-seeded
PoW peer, the meshes (and processed events) of a 16-peer, degree-10 fleet
after ``form_meshes()``, the mesh a default-seeded router shrinks to once
its whole 15-peer neighbourhood is grafted, and the named-part digests of
both relay-golden shapes (``test_relay_stats_golden.py``); all three
interpreters must agree.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

PROBE = """
import json

import networkx as nx

import test_relay_stats_golden as golden
from repro.baselines.pow import PoWRelayPeer
from repro.core.deployment import RLNDeployment
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.waku.relay import WakuRelay


def first_heartbeat(build):
    simulator = Simulator()
    graph = nx.Graph()
    graph.add_node("peer-000")
    router = build(Network(simulator, graph), simulator).router
    beats = []
    router.heartbeat = lambda: beats.append(simulator.now)
    router.start()
    simulator.step()
    return beats[0]


def dense_meshes():
    fleet = RLNDeployment.create(peer_count=16, degree=10, seed=7)
    fleet.form_meshes()
    meshes = {
        peer_id: sorted(peer.relay.router._mesh[peer.relay.pubsub_topic])
        for peer_id, peer in fleet.peers.items()
    }
    return {"meshes": meshes, "events": fleet.simulator.processed_events}


def shrunk_mesh():
    simulator = Simulator()
    network = Network(simulator, nx.complete_graph([f"peer-{i:03d}" for i in range(16)]))
    routers = [WakuRelay(peer, network, simulator).router for peer in sorted(network.graph)]
    for router in routers:
        router.subscribe("t")
        router.start()
    simulator.run(3.0)
    router = routers[0]
    router._mesh["t"] = router.topic_peers("t")
    router.heartbeat()
    return sorted(router._mesh["t"])


print(json.dumps({
    "shrink": shrunk_mesh(),
    "router": first_heartbeat(lambda net, sim: WakuRelay("peer-000", net, sim)),
    "pow": first_heartbeat(lambda net, sim: PoWRelayPeer("peer-000", net, sim).relay),
    "meshes": dense_meshes(),
    "golden": {shape: golden.shape_digests(shape) for shape in sorted(golden.SHAPES)},
}))
"""


def probe(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests" / "integration")]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_default_rngs_and_relay_goldens_ignore_the_hash_seed():
    runs = {seed: probe(seed) for seed in ("0", "1", "2")}
    for kind in ("router", "pow", "meshes", "shrink", "golden"):
        assert runs["0"][kind] == runs["1"][kind] == runs["2"][kind], kind
