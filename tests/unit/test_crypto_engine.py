"""PoseidonEngine backend selection, equivalence, and telemetry tests.

The engine is the wall-clock crypto hot path: every ``hasher=None`` seam
(Merkle trees, the sharded forest, checkpoint replay, identity derivation)
resolves to :func:`repro.crypto.engine.default_engine`.  These tests pin the
selection rules and the bit-identity guarantee between backends.
"""

import pytest

import repro.crypto.engine as engine_mod
from repro.crypto.engine import (
    ENV_BACKEND,
    HAVE_GMPY2,
    available_backends,
    default_engine,
    engine_stats,
    get_engine,
    publish_engine_telemetry,
    use_backend,
)
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleTree
from repro.crypto.poseidon import poseidon_hash
from repro.errors import CryptoError
from repro.telemetry.registry import MetricsRegistry, NULL_REGISTRY


# -- selection ---------------------------------------------------------------


def test_available_backends_always_has_reference_and_int():
    names = available_backends()
    assert "reference" in names
    assert "int" in names


def test_get_engine_is_singleton_per_backend():
    assert get_engine("int") is get_engine("int")
    assert get_engine("reference") is not get_engine("int")


def test_unknown_backend_rejected():
    with pytest.raises(CryptoError, match="unknown crypto backend"):
        get_engine("fpga")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "reference")
    assert default_engine().backend == "reference"
    monkeypatch.setenv(ENV_BACKEND, "int")
    assert default_engine().backend == "int"


def test_auto_resolution(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    expected = "gmpy2" if HAVE_GMPY2 else "int"
    assert default_engine().backend == expected


def test_use_backend_scopes_and_restores(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    outer = default_engine().backend
    with use_backend("reference") as engine:
        assert engine.backend == "reference"
        assert default_engine() is engine
    assert default_engine().backend == outer


def test_use_backend_beats_env_var(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "int")
    with use_backend("reference"):
        assert default_engine().backend == "reference"


def test_gmpy2_unavailable_raises():
    if HAVE_GMPY2:
        pytest.skip("gmpy2 installed in this interpreter")
    with pytest.raises(CryptoError, match="gmpy2"):
        get_engine("gmpy2")


# -- bit-identity across backends -------------------------------------------


@pytest.mark.parametrize("backend", available_backends())
def test_hash_matches_reference(backend):
    engine = get_engine(backend)
    for n in range(1, 9):
        inputs = [FieldElement(1000 * n + i) for i in range(n)]
        assert engine.hash(inputs) == poseidon_hash(inputs)


@pytest.mark.parametrize("backend", available_backends())
def test_hash2_matches_poseidon2(backend):
    engine = get_engine(backend)
    left, right = FieldElement(7), FieldElement(FIELD_MODULUS - 2)
    assert engine.hash2(left, right) == poseidon_hash([left, right])


def test_hash2_carries_engine_handle():
    engine = get_engine("int")
    assert engine.hash2.engine is engine


@pytest.mark.parametrize("backend", available_backends())
def test_batched_api_matches_singles(backend):
    engine = get_engine(backend)
    pairs = [
        (FieldElement(2 * i + 1), FieldElement(2 * i + 2)) for i in range(17)
    ]
    assert engine.hash_many(pairs) == [engine.hash2(l, r) for l, r in pairs]


def test_batched_api_empty():
    engine = get_engine("int")
    assert engine.hash_many([]) == []


@pytest.mark.parametrize("backend", available_backends())
def test_width_and_arity_validation(backend):
    engine = get_engine(backend)
    with pytest.raises(CryptoError):
        engine.hash([])
    with pytest.raises(CryptoError):
        engine.hash([FieldElement(i) for i in range(9)])


def test_merkle_roots_identical_across_backends():
    leaves = [FieldElement(i + 1) for i in range(40)]
    roots = set()
    for backend in available_backends():
        with use_backend(backend):
            roots.add(MerkleTree.from_leaves(leaves, depth=8).root)
    assert len(roots) == 1


# -- stats and telemetry -----------------------------------------------------


def test_stats_count_work():
    engine = get_engine("int")
    before = (engine.stats.hashes, engine.stats.permutations)
    engine.hash2(FieldElement(1), FieldElement(2))
    engine.hash_many([(FieldElement(3), FieldElement(4))] * 5)
    assert engine.stats.hashes == before[0] + 6
    assert engine.stats.permutations == before[1] + 6
    assert engine.stats.seconds > 0
    assert engine_stats()["int"] is engine.stats


def test_publish_engine_telemetry_mirrors_counters():
    engine = get_engine("int")
    engine.hash2(FieldElement(5), FieldElement(6))
    registry = MetricsRegistry()
    publish_engine_telemetry(registry)
    counter = registry.counter("crypto_hashes_total", backend="int")
    assert counter.value == engine.stats.hashes
    # Idempotent: publishing twice must not double-count.
    publish_engine_telemetry(registry)
    assert counter.value == engine.stats.hashes


def test_publish_engine_telemetry_null_registry_is_noop():
    publish_engine_telemetry(NULL_REGISTRY)  # must not raise or allocate
