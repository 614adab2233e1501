"""Unit tests for clocks, latency models, and topologies."""

import random

import networkx as nx
import pytest

from repro.errors import NetworkError
from repro.net.clock import DriftModel, PeerClock
from repro.net.latency import (
    ConstantLatency,
    UniformLatency,
    dissemination_bound,
)
from repro.net.topology import (
    erdos_renyi,
    full_mesh,
    peer_names,
    random_regular,
    small_world,
    star,
)


class TestClock:
    def test_unix_time_includes_offset_and_genesis(self):
        clock = PeerClock(offset=2.5, genesis_unix=1000.0)
        assert clock.unix_time(10.0) == 1012.5

    def test_zero_drift_model(self):
        assert DriftModel(0.0).sample_offset(random.Random(1)) == 0.0

    def test_offsets_bounded(self):
        model = DriftModel(max_offset=3.0)
        rng = random.Random(7)
        for _ in range(100):
            assert abs(model.sample_offset(rng)) <= 3.0

    def test_asynchrony_bound_is_twice_offset(self):
        assert DriftModel(1.5).asynchrony_bound == 3.0

    def test_negative_offset_rejected(self):
        with pytest.raises(NetworkError):
            DriftModel(-1.0).sample_offset(random.Random(1))


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.1)
        assert model.sample("a", "b", random.Random(1)) == 0.1
        assert model.worst_case() == 0.1

    def test_constant_negative_rejected(self):
        with pytest.raises(NetworkError):
            ConstantLatency(-0.1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(0.01, 0.05)
        rng = random.Random(2)
        for _ in range(100):
            assert 0.01 <= model.sample("a", "b", rng) <= 0.05
        assert model.worst_case() == 0.05

    def test_uniform_bounds_validated(self):
        with pytest.raises(NetworkError):
            UniformLatency(0.5, 0.1)

    def test_dissemination_bound_grows_with_network(self):
        model = ConstantLatency(0.1)
        small = dissemination_bound(model, 10, 6)
        large = dissemination_bound(model, 10_000, 6)
        assert large > small >= model.worst_case()


class TestTopologies:
    def test_peer_names_stable_width(self):
        names = peer_names(5)
        assert names[0] == "peer-000" and names[4] == "peer-004"

    def test_random_regular_degree(self):
        graph = random_regular(20, 4, seed=1)
        degrees = [d for _, d in graph.degree]
        assert min(degrees) >= 4  # bridging may add, never remove
        assert nx.is_connected(graph)

    def test_random_regular_validation(self):
        with pytest.raises(NetworkError):
            random_regular(4, 5)
        with pytest.raises(NetworkError):
            random_regular(5, 3)  # odd product

    def test_small_world_connected(self):
        graph = small_world(30, 4, seed=2)
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() == 30

    def test_erdos_renyi_connected(self):
        graph = erdos_renyi(25, mean_degree=3.0, seed=3)
        assert nx.is_connected(graph)

    def test_erdos_renyi_needs_two(self):
        with pytest.raises(NetworkError):
            erdos_renyi(1, 1.0)

    def test_full_mesh(self):
        graph = full_mesh(5)
        assert graph.number_of_edges() == 10

    def test_star(self):
        graph = star(6)
        degrees = sorted(d for _, d in graph.degree)
        assert degrees == [1, 1, 1, 1, 1, 5]

    def test_deterministic_by_seed(self):
        a = random_regular(20, 4, seed=9)
        b = random_regular(20, 4, seed=9)
        assert set(a.edges) == set(b.edges)
