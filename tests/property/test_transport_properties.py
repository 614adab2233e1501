"""Sharing delivery events is unobservable.  A fan-out
``Network.send(src, targets, payload)``, a loop of single-destination sends,
that loop with a no-op scheduled after every send (which stops any two
sends from sharing an event) and the reference — the loop with the open
batch closed after every send, one event per copy whatever the sharing
rule says — make the same deliveries at the same times in the same order,
the same per-protocol bills and the same rng draws.  Only
``Simulator.processed_events`` may differ.

The handlers are chosen to stress the grouping: they re-send at once
(after link latency), at delay 0 and at delay > 0, one removes the last
target of the send that reached it (a later member of its own batch) and
one raises.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network

ROLES = ("quiet", "echo", "defer-zero", "defer", "evict", "raise")


class Boom(Exception):
    """Thrown by the raising handler."""


LATENCIES = [ConstantLatency(0.0), ConstantLatency(0.05), UniformLatency(0.01, 0.1)]
MODES = ("fan-out", "loop", "isolated", "reference")


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    peers = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(peers) for b in peers[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=n, max_size=n))
    # Opening sends: a source and an ordered selection of targets; a
    # target may repeat, and the sender is linked to every target.
    opening = draw(
        st.lists(
            st.tuples(
                st.sampled_from(peers),
                st.lists(st.sampled_from(peers), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=3,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return peers, edges, roles, opening, seed


def play(scenario, latency, drop: float, mode: str):
    """Run one scenario; return everything a loop of sends makes observable."""
    peers, edges, roles, opening, seed = scenario
    graph = nx.Graph()
    graph.add_nodes_from(peers)
    graph.add_edges_from(edges)
    opening = [(src, [t for t in targets if t != src]) for src, targets in opening]
    for src, targets in opening:
        graph.add_edges_from((src, t) for t in targets)
    sim = Simulator()
    net = Network(
        simulator=sim,
        graph=graph,
        latency=latency,
        rng=random.Random(seed),
        drop_probability=drop,
    )
    log = []
    groups: dict[bytes, list[str]] = {}
    evicted: list[str] = []

    def emit(src: str, targets: list[str], hop: int) -> None:
        if src not in net.links or not targets:
            return
        payload = b"%s/%d/%d" % (src.encode(), hop, len(groups))
        groups[payload] = targets
        if mode == "fan-out":
            net.send(src, targets, payload)
            return
        for target in targets:
            net.send(src, target, payload)
            if mode == "isolated":
                sim.schedule(0.0, lambda: None)
            elif mode == "reference":
                net._batch = None

    def echo_targets(me: str) -> list[str]:
        return net.neighbors(me) if me in net.links else []

    def deferred(me: str, hop: int) -> None:
        # Logged, so a delivery that jumps this event shows in the log.
        log.append((sim.now, me, "deferred", hop))
        emit(me, echo_targets(me), hop)

    def handler(me: str, role: str):
        def on_message(sender: str, payload: bytes) -> None:
            log.append((sim.now, me, sender, payload))
            hop = int(payload.split(b"/")[1]) + 1
            if role == "raise":
                raise Boom(me)
            if hop > 2:
                return
            if role == "echo":
                emit(me, echo_targets(me), hop)
            elif role in ("defer-zero", "defer"):
                delay = 0.0 if role == "defer-zero" else 0.03
                sim.schedule(delay, lambda: deferred(me, hop))
            elif role == "evict" and not evicted:
                group = groups[payload]
                later = group[group.index(me) + 1:]
                if later and later[-1] in net.links and later[-1] != me:
                    evicted.append(later[-1])
                    net.remove_peer(later[-1])

        return on_message

    for me, role in zip(peers, roles):
        net.register(me, handler(me, role))
    for src, targets in opening:
        emit(src, targets, 0)
    while True:
        try:
            sim.run_until_idle(max_events=100_000)
            break
        except Boom:
            continue
    return {
        "log": log,
        "stats": {peer: stats.per_protocol for peer, stats in net.stats.items()},
        "total_messages": net.total_messages(),
        "rng": net.rng.getstate(),
        "evicted": evicted,
    }, sim.processed_events


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_fan_out_send_is_a_loop_of_single_sends(scenario):
    for latency in LATENCIES:
        for drop in (0.0, 0.3):
            played = {mode: play(scenario, latency, drop, mode) for mode in MODES}
            reference, copy_events = played["reference"]
            for mode in MODES:
                observed, events = played[mode]
                assert observed == reference, (latency, drop, mode)
                assert mode == "isolated" or events <= copy_events
