"""Tests for the skip-gram model, including analytic-gradient verification."""

import numpy as np
import pytest

from repro.nn import SkipGramConfig, SkipGramModel, UnigramNegativeSampler
from repro.nn.skipgram import CHUNK_PAIRS, SHARED_NEGATIVES
from repro.optim import numerical_gradient


def small_model(num_nodes=6, dim=5, seed=0):
    config = SkipGramConfig(
        dimension=dim, negatives_per_positive=2, batch_size=64, epochs=3, learning_rate=0.05
    )
    return SkipGramModel(num_nodes, config, rng=seed)


def float64_model(num_nodes=6, dim=5, seed=0):
    """``small_model`` on float64 tables, so the math runs in float64."""
    model = small_model(num_nodes, dim, seed)
    model.input_embeddings = model.input_embeddings.astype(np.float64)
    model.output_embeddings = model.output_embeddings.astype(np.float64)
    return model


def training_layout(sampler, batch, k):
    """The ``(chunks, S)`` negatives ``train_pairs`` draws for one batch."""
    return sampler.sample((-(-batch // CHUNK_PAIRS), max(SHARED_NEGATIVES, k)))


def fused_pass(model, centers, contexts, negatives):
    """``_forward_backward``'s loss, and its gradients scattered into full-table arrays."""
    loss, grads, rows = model._forward_backward(centers, contexts, negatives)
    dense = {}
    for name, table in (("input", model.input_embeddings), ("output", model.output_embeddings)):
        dense[name] = np.zeros_like(table)
        dense[name][rows[name]] = grads[name]
    return loss, dense


def numerical_gradients(model, centers, contexts, negatives):
    """Central differences of ``model.loss`` over both tables."""
    numeric = {}
    for name in ("input", "output"):
        attribute = f"{name}_embeddings"
        original = getattr(model, attribute)

        def table_loss(table):
            setattr(model, attribute, table)
            value = model.loss(centers, contexts, negatives)
            setattr(model, attribute, original)
            return value

        numeric[name] = numerical_gradient(table_loss, original.copy(), epsilon=1e-5)
    return numeric


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
    model = float64_model()
    centers = np.array([0, 1, 2])
    contexts = np.array([1, 2, 3])
    negatives = training_layout(UnigramNegativeSampler(np.arange(1.0, 7.0), rng=4), 3, 2)

    _, dense = fused_pass(model, centers, contexts, negatives)
    numeric = numerical_gradients(model, centers, contexts, negatives)
    assert np.allclose(dense["input"], numeric["input"], atol=1e-4)
    assert np.allclose(dense["output"], numeric["output"], atol=1e-4)


def test_shared_negative_gradients_match_finite_differences():
    """Several chunks, S != k, a padded last chunk and frozen rows."""
    model = float64_model(num_nodes=9, dim=4, seed=3)
    model.freeze([0, 5])
    rng = np.random.default_rng(11)
    centers = rng.integers(9, size=7)
    contexts = rng.integers(9, size=7)
    negatives = rng.integers(9, size=(3, 5))  # 3 chunks of 3 pairs, the last padded by 2
    assert 7 % 3 and negatives.shape[1] != model.config.negatives_per_positive

    _, _, rows = model._forward_backward(centers, contexts, negatives)
    assert not set(rows["input"]) & {0, 5} and not set(rows["output"]) & {0, 5}
    _, dense = fused_pass(model, centers, contexts, negatives)
    numeric = numerical_gradients(model, centers, contexts, negatives)
    for name in ("input", "output"):
        numeric[name][[0, 5]] = 0.0  # frozen rows get no gradient
        assert np.allclose(dense[name], numeric[name], atol=1e-4)


def parent_loss(model, centers, contexts, negatives):
    """The per-pair SGNS loss as first written: one gather of ``b × k`` rows."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))

    x = model.input_embeddings[centers]
    pos_score = np.sum(x * model.output_embeddings[contexts], axis=1)
    neg_score = np.einsum("bd,bkd->bk", x, model.output_embeddings[negatives])
    loss = -np.log(sigmoid(pos_score) + 1e-12).sum()
    loss -= np.log(sigmoid(-neg_score) + 1e-12).sum()
    return float(loss / len(pos_score))


def test_per_pair_layout_reproduces_the_per_pair_loss():
    model = float64_model(num_nodes=8, dim=6)
    rng = np.random.default_rng(5)
    model.input_embeddings *= 20.0  # scores up to the clip, not only near 0
    centers = rng.integers(8, size=50)
    contexts = rng.integers(8, size=50)
    negatives = rng.integers(8, size=(50, 2))
    expected = parent_loss(model, centers, contexts, negatives)
    assert abs(model.loss(centers, contexts, negatives) - expected) <= 1e-12
    fused, _, _ = model._forward_backward(centers, contexts, negatives)
    assert abs(fused - expected) <= 1e-12


def test_shared_negatives_match_the_per_pair_expectation():
    """Averaged over many draws, shared negatives weighted k/S give the
    expected loss and gradients of k i.i.d. negatives per pair.

    The oracle is the exact expectation over the sampler's law.  Both the
    shared layout (4 chunks of 3 pairs, the last padded, S = 5, k = 2) and
    the per-pair ``(b, k)`` layout must land within 4 standard errors of it
    in every entry.
    """
    model = float64_model(num_nodes=6, dim=3, seed=1)
    model.input_embeddings *= 5.0
    model.output_embeddings *= 5.0
    k = model.config.negatives_per_positive
    rng = np.random.default_rng(2)
    centers = rng.integers(6, size=11)
    contexts = rng.integers(6, size=11)
    sampler = UnigramNegativeSampler(np.array([1.0, 4.0, 2.0, 9.0, 3.0, 6.0]), rng=3)
    p = sampler.probabilities

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    x = model.input_embeddings[centers]
    y = model.output_embeddings
    pos = np.sum(x * y[contexts], axis=1)
    neg = x @ y.T  # (b, n): every pair against every node
    b = len(centers)
    expected_loss = np.mean(-np.log(sigmoid(pos)) - k * (np.log(sigmoid(-neg)) @ p))
    expected = {"input": np.zeros_like(y), "output": np.zeros_like(y)}
    np.add.at(expected["input"], centers, ((sigmoid(pos) - 1)[:, None] * y[contexts]
                                            + k * (sigmoid(neg) * p) @ y) / b)
    np.add.at(expected["output"], contexts, (sigmoid(pos) - 1)[:, None] * x / b)
    expected["output"] += k * (sigmoid(neg) * p).T @ x / b

    for shape in [(4, 5), (b, k)]:
        losses, grads = [], {"input": [], "output": []}
        for _ in range(2000):
            loss, dense = fused_pass(model, centers, contexts, sampler.sample(shape))
            losses.append(loss)
            for name, value in dense.items():
                grads[name].append(value)
        losses = np.array(losses)
        assert abs(losses.mean() - expected_loss) <= 4 * losses.std() / np.sqrt(len(losses))
        for name, draws in grads.items():
            draws = np.array(draws)
            error = np.abs(draws.mean(axis=0) - expected[name])
            assert np.all(error <= 4 * draws.std(axis=0) / np.sqrt(len(draws)) + 1e-12)


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
    model = float64_model(num_nodes=8, dim=6)
    rng = np.random.default_rng(3)
    centers = rng.integers(8, size=40)
    contexts = rng.integers(8, size=40)
    negatives = training_layout(UnigramNegativeSampler(np.ones(8), rng=4), 40, 2)
    expected = model.loss(centers, contexts, negatives)
    fused, _, _ = model._forward_backward(centers, contexts, negatives)
    assert abs(fused - expected) <= 1e-12

    # the same holds for the loss train_pairs reports for a one-batch epoch
    pairs = np.stack([centers, contexts], axis=1)
    oracle_negatives = training_layout(UnigramNegativeSampler(np.ones(8), rng=5), 40, 2)
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


def test_tables_are_float32_casts_of_the_same_draws():
    model = small_model()
    draws = np.random.default_rng(0).normal(0.0, 0.1, size=(2, 6, 5))
    assert model.input_embeddings.dtype == np.float32
    assert np.array_equal(model.input_embeddings, draws[0].astype(np.float32))
    assert np.array_equal(model.output_embeddings, draws[1].astype(np.float32))
    sampler = UnigramNegativeSampler(np.ones(6), rng=1)
    model.train_pairs(np.array([[0, 1], [1, 2], [3, 4]]), sampler, epochs=2)
    model.add_nodes(2)
    assert model.input_embeddings.dtype == model.output_embeddings.dtype == np.float32
    assert model.embedding(7).dtype == np.float32


def test_float64_tables_train_in_float64():
    model = float64_model()
    sampler = UnigramNegativeSampler(np.ones(6), rng=1)
    model.train_pairs(np.array([[0, 1], [1, 2], [3, 4]]), sampler, epochs=2)
    model.add_nodes(1)
    assert model.input_embeddings.dtype == model.output_embeddings.dtype == np.float64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"negatives_per_positive": 0},
        {"learning_rate": 0.0},
        {"dimension": 0},
        {"epochs": 0},
    ],
    ids=["batch_size", "negatives_per_positive", "learning_rate", "dimension", "epochs"],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        SkipGramConfig(**kwargs)
