"""Unit tests for epoch arithmetic and deployment configuration."""

import pytest

from repro.core.config import RLNConfig, compute_max_epoch_gap
from repro.core.epoch import epoch_gap, external_nullifier
from repro.crypto.field import FieldElement
from repro.errors import ProtocolError
from tests.conftest import epoch_at


class TestEpoch:
    def test_paper_example(self):
        # §III-D: UnixTime 1644810116, T = 30 s -> epoch 54827003.
        assert epoch_at(1_644_810_116, 30) == 54_827_003

    def test_boundary(self):
        assert epoch_at(59.999, 30) == 1
        assert epoch_at(60.0, 30) == 2

    def test_epoch_start_inverse(self):
        assert epoch_at(12345, 30) * 30 <= 12345 < (epoch_at(12345, 30) + 1) * 30

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError):
            epoch_at(100, 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ProtocolError):
            epoch_at(-1, 30)

    def test_external_nullifier_is_field_element(self):
        assert external_nullifier(54_827_003) == FieldElement(54_827_003)

    def test_external_nullifier_rejects_negative(self):
        with pytest.raises(ProtocolError):
            external_nullifier(-1)

    def test_gap_symmetric(self):
        assert epoch_gap(10, 12) == epoch_gap(12, 10) == 2


class TestThrFormula:
    def test_paper_formula(self):
        # Thr = ceil((NetworkDelay + ClockAsynchrony) / T)
        assert compute_max_epoch_gap(4.0, 2.0, 3.0) == 2
        assert compute_max_epoch_gap(4.0, 2.0, 6.0) == 1
        assert compute_max_epoch_gap(4.1, 2.0, 6.0) == 2

    def test_minimum_is_one(self):
        assert compute_max_epoch_gap(0.0, 0.0, 30.0) == 1

    def test_validation(self):
        with pytest.raises(ProtocolError):
            compute_max_epoch_gap(1.0, 1.0, 0.0)
        with pytest.raises(ProtocolError):
            compute_max_epoch_gap(-1.0, 0.0, 1.0)


class TestConfig:
    def test_defaults_sane(self):
        config = RLNConfig()
        assert config.epoch_length == 30.0
        assert config.tree_depth == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epoch_length": 0},
            {"max_epoch_gap": 0},
            {"tree_depth": 0},
            {"tree_depth": 33},
            {"root_window": 0},
            {"tree_backend": "bogus"},
            {"shard_depth": 0},
            {"tree_depth": 8, "shard_depth": 8},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ProtocolError):
            RLNConfig(**kwargs)
