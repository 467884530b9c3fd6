"""Tests for the skip-gram model, including analytic-gradient verification."""

import numpy as np
import pytest

from repro.nn import SkipGramConfig, SkipGramModel, UnigramNegativeSampler
from repro.optim import numerical_gradient


def small_model(num_nodes=6, dim=5, seed=0):
    config = SkipGramConfig(
        dimension=dim, negatives_per_positive=2, batch_size=64, epochs=3, learning_rate=0.05
    )
    return SkipGramModel(num_nodes, config, rng=seed)


def test_embedding_shapes():
    model = small_model()
    assert model.input_embeddings.shape == (6, 5)
    assert model.output_embeddings.shape == (6, 5)
    assert model.embedding(2).shape == (5,)
    assert model.embeddings([0, 3]).shape == (2, 5)
    assert model.embeddings().shape == (6, 5)


def test_invalid_num_nodes():
    with pytest.raises(ValueError):
        SkipGramModel(0)


def test_analytic_gradients_match_finite_differences():
    model = small_model()
    centers = np.array([0, 1, 2])
    contexts = np.array([1, 2, 3])
    negatives = np.array([[4, 5], [5, 0], [3, 4]])

    _, grads, rows = model._forward_backward(centers, contexts, negatives)

    def input_loss(flat_inputs):
        original = model.input_embeddings
        model.input_embeddings = flat_inputs
        value = model.loss(centers, contexts, negatives)
        model.input_embeddings = original
        return value

    numeric = numerical_gradient(input_loss, model.input_embeddings.copy(), epsilon=1e-5)
    dense_analytic = np.zeros_like(model.input_embeddings)
    dense_analytic[rows["input"]] = grads["input"]
    assert np.allclose(dense_analytic, numeric, atol=1e-4)

    def output_loss(flat_outputs):
        original = model.output_embeddings
        model.output_embeddings = flat_outputs
        value = model.loss(centers, contexts, negatives)
        model.output_embeddings = original
        return value

    numeric_out = numerical_gradient(output_loss, model.output_embeddings.copy(), epsilon=1e-5)
    dense_out = np.zeros_like(model.output_embeddings)
    dense_out[rows["output"]] = grads["output"]
    assert np.allclose(dense_out, numeric_out, atol=1e-4)


def test_training_reduces_loss():
    rng = np.random.default_rng(0)
    # Two clusters: nodes 0-2 co-occur, nodes 3-5 co-occur.
    pairs = []
    for _ in range(300):
        a, b = rng.choice(3, size=2, replace=False)
        pairs.append((a, b))
        a, b = rng.choice(3, size=2, replace=False) + 3
        pairs.append((a, b))
    pairs = np.array(pairs)
    model = small_model(dim=8)
    sampler = UnigramNegativeSampler(np.ones(6), rng=1)
    history = model.train_pairs(pairs, sampler, epochs=8)
    assert history[-1] < history[0]


def test_training_separates_clusters():
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(400):
        a, b = rng.choice(3, size=2, replace=False)
        pairs.append((a, b))
        a, b = rng.choice(3, size=2, replace=False) + 3
        pairs.append((a, b))
    model = small_model(dim=8, seed=2)
    sampler = UnigramNegativeSampler(np.ones(6), rng=1)
    model.train_pairs(np.array(pairs), sampler, epochs=15)
    emb = model.input_embeddings
    within = np.dot(emb[0], emb[1])
    across = np.dot(emb[0], emb[4])
    assert within > across


def test_frozen_nodes_do_not_move():
    model = small_model()
    frozen_before = model.input_embeddings[:3].copy()
    frozen_out_before = model.output_embeddings[:3].copy()
    model.freeze([0, 1, 2])
    pairs = np.array([[0, 3], [3, 0], [1, 4], [4, 1], [2, 5], [5, 2], [3, 4], [4, 5]])
    sampler = UnigramNegativeSampler(np.ones(6), rng=1)
    model.train_pairs(pairs, sampler, epochs=5)
    assert np.array_equal(model.input_embeddings[:3], frozen_before)
    assert np.array_equal(model.output_embeddings[:3], frozen_out_before)
    # unfrozen nodes did move
    assert not np.allclose(model.input_embeddings[3:], small_model().input_embeddings[3:])


def test_unfreeze_all():
    model = small_model()
    model.freeze([0])
    model.unfreeze_all()
    assert model.frozen == set()


def test_add_nodes_extends_tables_and_returns_indices():
    model = small_model()
    new = model.add_nodes(3)
    assert new.tolist() == [6, 7, 8]
    assert model.num_nodes == 9
    assert model.add_nodes(0).size == 0


def test_empty_pairs_is_a_no_op():
    model = small_model()
    sampler = UnigramNegativeSampler(np.ones(6), rng=1)
    assert model.train_pairs(np.zeros((0, 2)), sampler) == []


def test_fused_batch_loss_equals_the_loss_oracle_before_the_update():
    model = small_model(num_nodes=8, dim=6)
    rng = np.random.default_rng(3)
    centers = rng.integers(8, size=40)
    contexts = rng.integers(8, size=40)
    negatives = rng.integers(8, size=(40, 2))
    expected = model.loss(centers, contexts, negatives)
    fused, _, _ = model._forward_backward(centers, contexts, negatives)
    assert abs(fused - expected) <= 1e-12

    # the same holds for the loss train_pairs reports for a one-batch epoch
    pairs = np.stack([centers, contexts], axis=1)
    oracle_negatives = UnigramNegativeSampler(np.ones(8), rng=5).sample((40, 2))
    expected = model.loss(centers, contexts, oracle_negatives)
    sampler = UnigramNegativeSampler(np.ones(8), rng=5)
    history = model.train_pairs(pairs, sampler, epochs=1, batch_size=64, shuffle=False)
    assert abs(history[0] - expected) <= 1e-12


def test_repeated_rows_are_summed_into_one_gradient_row():
    model = small_model()
    centers = np.array([0, 0, 1])
    contexts = np.array([2, 2, 2])
    negatives = np.array([[3, 3], [2, 4], [0, 3]])
    _, grads, rows = model._forward_backward(centers, contexts, negatives)
    assert rows["input"].tolist() == [0, 1]
    assert rows["output"].tolist() == [0, 2, 3, 4]
    assert grads["input"].shape == (2, 5)
    assert grads["output"].shape == (4, 5)


def test_frozen_rows_stay_bit_identical_after_add_nodes_and_training():
    model = small_model()
    sampler = UnigramNegativeSampler(np.ones(6), rng=1)
    model.train_pairs(np.array([[0, 1], [1, 2], [3, 4], [4, 5]]), sampler, epochs=2)
    model.add_nodes(3)
    model.freeze(range(6))
    assert model.frozen == set(range(6))
    old_in = model.input_embeddings[:6].copy()
    old_out = model.output_embeddings[:6].copy()
    new_in = model.input_embeddings[6:].copy()
    pairs = np.array([[6, 0], [0, 6], [7, 1], [1, 7], [8, 2], [6, 7], [7, 8]])
    model.train_pairs(pairs, UnigramNegativeSampler(np.ones(9), rng=2), epochs=5)
    assert np.array_equal(model.input_embeddings[:6], old_in)
    assert np.array_equal(model.output_embeddings[:6], old_out)
    assert not np.allclose(model.input_embeddings[6:], new_in)
    # nodes added while others are frozen start unfrozen
    model.add_nodes(2)
    assert model.frozen == set(range(6))
    model.unfreeze_all()
    assert model.frozen == set()
