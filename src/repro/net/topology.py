"""Network-topology generators (networkx-backed).

The WAKU-RELAY layer maintains "a constant number of direct
connections/neighbors" per peer (§I), which a random regular graph models
exactly.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.errors import NetworkError


def peer_names(count: int, prefix: str = "peer") -> list[str]:
    """Stable peer ids: peer-000, peer-001, ..."""
    width = max(3, len(str(count - 1)))
    return [f"{prefix}-{i:0{width}d}" for i in range(count)]


def _relabel(graph: nx.Graph, names: list[str]) -> nx.Graph:
    return nx.relabel_nodes(graph, dict(enumerate(names)))


def _ensure_connected(graph: nx.Graph, rng: random.Random) -> nx.Graph:
    """Join components by adding bridge edges (keeps degree near-constant)."""
    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        a = rng.choice(components[0])
        b = rng.choice(components[1])
        graph.add_edge(a, b)
        components = [list(c) for c in nx.connected_components(graph)]
    return graph


def random_regular(count: int, degree: int, seed: int = 0) -> nx.Graph:
    """Random ``degree``-regular graph — the canonical p2p overlay model."""
    if count <= degree:
        raise NetworkError(f"need more peers ({count}) than degree ({degree})")
    if (count * degree) % 2:
        raise NetworkError("count * degree must be even for a regular graph")
    graph = nx.random_regular_graph(degree, count, seed=seed)
    graph = _ensure_connected(graph, random.Random(seed))
    return _relabel(graph, peer_names(count))


def full_mesh(count: int) -> nx.Graph:
    """Complete graph — tiny deterministic tests only."""
    return _relabel(nx.complete_graph(count), peer_names(count))
