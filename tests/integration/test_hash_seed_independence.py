"""Integration: a simulated run is the same under every ``PYTHONHASHSEED``.

A router or PoW peer built without ``rng=`` seeds its own generator from
its peer id; that seed fixes the heartbeat phase and every mesh shuffle,
so it must not come from ``hash()``, which is salted per interpreter.
Each hash seed runs in a fresh interpreter, which reports the first
heartbeat offset of a default-seeded router and of a default-seeded PoW
peer, plus the named-part digests of both relay-golden shapes
(``test_relay_stats_golden.py``); all three interpreters must agree.
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


print(json.dumps({
    "router": first_heartbeat(lambda net, sim: WakuRelay("peer-000", net, sim)),
    "pow": first_heartbeat(lambda net, sim: PoWRelayPeer("peer-000", net, sim).relay),
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
    assert runs["0"]["golden"] == runs["1"]["golden"] == runs["2"]["golden"]
    for kind in ("router", "pow"):
        offsets = {seed: run[kind] for seed, run in runs.items()}
        assert len(set(offsets.values())) == 1, (kind, offsets)
