"""Tests for the hyper-parameter configurations (Table II defaults)."""

import pytest

from repro.core import ForwardConfig, Node2VecConfig


class TestForwardConfigDefaults:
    """The defaults must match Table II of the paper."""

    def test_table_ii_values(self):
        config = ForwardConfig()
        assert config.dimension == 100
        assert config.n_samples == 5_000
        assert config.batch_size == 50_000
        assert 1 <= config.max_walk_length <= 3
        assert 5 <= config.epochs <= 10
        assert config.n_new_samples == 2_500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 0},
            {"max_walk_length": -1},
            {"epochs": 0},
            {"n_samples": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"n_new_samples": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ForwardConfig(**kwargs)


class TestNode2VecConfigDefaults:
    def test_table_ii_values(self):
        config = Node2VecConfig()
        assert config.dimension == 100
        assert config.walks_per_node == 40
        assert config.walk_length == 30
        assert config.window_size == 5
        assert config.negatives_per_positive == 20
        assert config.batch_size == 40_000
        assert config.epochs == 10
        assert config.dynamic_epochs == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 0},
            {"walks_per_node": 0},
            {"walk_length": 0},
            {"window_size": 0},
            {"epochs": 0},
            {"dynamic_epochs": 0},
            {"p": 0.0},
            {"q": 0.0},
            {"batch_size": 0},
            {"negatives_per_positive": 0},
            {"negatives_per_positive": -1},
            {"learning_rate": 0.0},
            {"dynamic_walks_per_node": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Node2VecConfig(**kwargs)
