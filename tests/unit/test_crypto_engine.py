"""PoseidonEngine equivalence and telemetry tests.

The engine is the wall-clock crypto hot path: every ``hasher=None`` seam
(Merkle trees, the sharded forest, checkpoint replay, identity derivation)
resolves to :func:`repro.crypto.engine.default_engine`.  These tests pin it
bit-identical to the reference implementation,
:func:`repro.crypto.poseidon.poseidon_hash`; the ``poseidon_hasher``
fixture runs the shared checks on the engine (``int``) and on the sponge
restated over the reference permutation (``reference``).
"""

import pytest

from repro.crypto.engine import (
    default_engine,
    engine_stats,
    publish_engine_telemetry,
    use_backend,
)
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleTree
from repro.crypto.poseidon import poseidon_hash
from repro.errors import CryptoError
from repro.telemetry import resolve
from repro.telemetry.registry import MetricsRegistry

ENGINE = default_engine()


def test_unknown_backend_rejected():
    with pytest.raises(CryptoError, match="unknown crypto backend"):
        with use_backend("fpga"):
            pass


# -- bit-identity with the reference implementation --------------------------


def test_hash_matches_reference(poseidon_hasher):
    for n in range(1, 9):
        inputs = [FieldElement(1000 * n + i) for i in range(n)]
        assert poseidon_hasher.hash(inputs) == poseidon_hash(inputs)


def test_hash2_matches_poseidon2(poseidon_hasher):
    left, right = FieldElement(7), FieldElement(FIELD_MODULUS - 2)
    assert poseidon_hasher.hash2(left, right) == poseidon_hash([left, right])


def test_hash2_carries_engine_handle():
    assert ENGINE.hash2.engine is ENGINE


def test_batched_api_matches_singles(poseidon_hasher):
    """The engine's batch equals one-at-a-time hashing by each implementation."""
    pairs = [
        (FieldElement(2 * i + 1), FieldElement(2 * i + 2)) for i in range(17)
    ]
    assert ENGINE.hash_many(pairs) == [poseidon_hasher.hash2(l, r) for l, r in pairs]


def test_batched_api_empty():
    assert ENGINE.hash_many([]) == []


def test_width_and_arity_validation(poseidon_hasher):
    with pytest.raises(CryptoError):
        poseidon_hasher.hash([])
    with pytest.raises(CryptoError):
        poseidon_hasher.hash([FieldElement(i) for i in range(9)])


def test_merkle_root_matches_reference_hasher():
    leaves = [FieldElement(i + 1) for i in range(40)]
    reference = MerkleTree.from_leaves(
        leaves, depth=8, hasher=lambda l, r: poseidon_hash([l, r])
    )
    assert MerkleTree.from_leaves(leaves, depth=8).root == reference.root


# -- stats and telemetry -----------------------------------------------------


def test_stats_count_work():
    before = ENGINE.stats.hashes
    ENGINE.hash2(FieldElement(1), FieldElement(2))
    ENGINE.hash_many([(FieldElement(3), FieldElement(4))] * 5)
    assert ENGINE.stats.hashes == before + 6
    assert ENGINE.stats.seconds > 0
    assert engine_stats()["int"] is ENGINE.stats


def test_publish_engine_telemetry_mirrors_counters():
    ENGINE.hash2(FieldElement(5), FieldElement(6))
    registry = MetricsRegistry()
    publish_engine_telemetry(registry)
    counter = registry.counter("crypto_hashes_total")
    assert counter.value == ENGINE.stats.hashes
    # Idempotent: publishing twice must not double-count.
    publish_engine_telemetry(registry)
    assert counter.value == ENGINE.stats.hashes


def test_publish_engine_telemetry_null_registry_is_noop():
    publish_engine_telemetry(resolve(None).registry)  # must not raise or allocate
