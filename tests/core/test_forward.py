"""Tests for the static FoRWaRD embedder."""

import numpy as np
import pytest

from repro.core import ForwardConfig, ForwardEmbedder
from repro.core.forward import _symmetrize
from repro.datasets import load_dataset
from repro.datasets.movies import movies_database
from repro.optim import numerical_gradient


@pytest.fixture(scope="module")
def genes():
    return load_dataset("genes", scale=0.05, seed=5)


@pytest.fixture(scope="module")
def trained_model(genes):
    config = ForwardConfig(
        dimension=12, n_samples=150, batch_size=256, max_walk_length=2, epochs=4,
        learning_rate=0.02, n_new_samples=30,
    )
    db = genes.masked_database()
    return ForwardEmbedder(db, genes.prediction_relation, config, rng=0).fit()


class TestTargets:
    def test_targets_enumerated_with_kernels(self, genes, fast_forward_config):
        embedder = ForwardEmbedder(
            genes.masked_database(), "CLASSIFICATION", fast_forward_config, rng=0
        )
        targets = embedder.build_targets()
        assert targets, "there must be at least one walk target"
        assert [t.index for t in targets] == list(range(len(targets)))
        for target in targets:
            assert target.scheme.start_relation == "CLASSIFICATION"
            assert target.attribute not in genes.db.schema.fk_attributes(
                target.scheme.end_relation
            )

    def test_movies_targets_reach_other_relations(self, fast_forward_config):
        db = movies_database()
        embedder = ForwardEmbedder(db, "MOVIES", fast_forward_config, rng=0)
        end_relations = {t.scheme.end_relation for t in embedder.build_targets()}
        assert "STUDIOS" in end_relations


class TestTraining:
    def test_model_shapes(self, trained_model, genes):
        num_facts = genes.db.num_facts("CLASSIFICATION")
        assert trained_model.phi.shape == (num_facts, 12)
        assert trained_model.psi.shape[0] == len(trained_model.targets)
        assert trained_model.psi.shape[1:] == (12, 12)

    def test_loss_decreases(self, trained_model):
        assert trained_model.loss_history[-1] < trained_model.loss_history[0]

    def test_embedding_covers_all_prediction_facts(self, trained_model, genes):
        embedding = trained_model.embedding()
        for fact in genes.db.facts("CLASSIFICATION"):
            assert fact in embedding

    def test_vectors_are_finite(self, trained_model):
        assert np.all(np.isfinite(trained_model.phi))
        assert np.all(np.isfinite(trained_model.psi))

    def test_reproducible_with_same_seed(self, genes):
        config = ForwardConfig(
            dimension=8, n_samples=60, batch_size=128, max_walk_length=1, epochs=2,
            n_new_samples=10,
        )
        db = genes.masked_database()
        first = ForwardEmbedder(db, "CLASSIFICATION", config, rng=42).fit()
        second = ForwardEmbedder(db, "CLASSIFICATION", config, rng=42).fit()
        assert np.allclose(first.phi, second.phi)

    def test_distributions_cached_per_target(self, trained_model, genes):
        # one training-time attribute matrix per walk target, a row per φ row
        assert len(trained_model.training_matrices) == len(trained_model.targets)
        for matrix, vocab in trained_model.training_matrices:
            assert matrix.shape == (len(trained_model.fact_ids), vocab.size)

    def test_too_few_facts_rejected(self, fast_forward_config):
        db = movies_database()
        # STUDIOS has 3 facts but COLLABORATIONS-only relation check: create a
        # database view with one fact by deleting the others.
        for fact in list(db.facts("COLLABORATIONS"))[1:]:
            db.delete(fact)
        with pytest.raises(ValueError):
            ForwardEmbedder(db, "COLLABORATIONS", fast_forward_config, rng=0).fit()

    def test_unknown_relation_rejected(self, fast_forward_config):
        with pytest.raises(KeyError):
            ForwardEmbedder(movies_database(), "NOPE", fast_forward_config)


class TestGradients:
    def test_batch_step_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        dim, facts = 5, 6
        phi = rng.normal(size=(facts, dim))
        psi = np.stack([_symmetrize(rng.normal(size=(dim, dim)))])

        from repro.core.forward import _TargetSamples

        samples = _TargetSamples(
            target_index=0,
            left_rows=np.array([0, 1, 2, 3]),
            right_rows=np.array([1, 2, 3, 4]),
            kernel_values=rng.uniform(size=4),
        )
        batch = np.arange(4)

        def loss_of_phi(phi_matrix):
            matrix = psi[0]
            left = phi_matrix[samples.left_rows]
            right = phi_matrix[samples.right_rows]
            scores = np.sum((left @ matrix) * right, axis=1)
            return float(0.5 * np.mean((scores - samples.kernel_values) ** 2))

        _loss, grads, rows = ForwardEmbedder._batch_step(phi, psi, samples, batch)
        numeric = numerical_gradient(loss_of_phi, phi.copy(), epsilon=1e-6)
        dense = np.zeros_like(phi)
        dense[rows["phi"]] = grads["phi"]
        assert np.allclose(dense, numeric, atol=1e-5)

        def loss_of_psi(matrix):
            sym = matrix
            left = phi[samples.left_rows]
            right = phi[samples.right_rows]
            scores = np.sum((left @ sym) * right, axis=1)
            return float(0.5 * np.mean((scores - samples.kernel_values) ** 2))

        numeric_psi = numerical_gradient(loss_of_psi, psi[0].copy(), epsilon=1e-6)
        # The analytic ψ gradient is the symmetrised version of the full gradient.
        assert np.allclose(grads["psi"][0], _symmetrize(numeric_psi), atol=1e-5)


class TestEmbeddingQuality:
    def test_same_class_pairs_more_similar_on_average(self, trained_model, genes):
        """FoRWaRD should pull facts with equal FK-context closer together."""
        labels = genes.labels()
        embedding = trained_model.embedding()
        ids = [fid for fid in labels if fid in embedding]
        vectors = {fid: embedding.vector(fid) for fid in ids}

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        same, diff = [], []
        rng = np.random.default_rng(0)
        for _ in range(400):
            a, b = rng.choice(ids, size=2, replace=False)
            value = cosine(vectors[a], vectors[b])
            (same if labels[a] == labels[b] else diff).append(value)
        assert np.mean(same) > np.mean(diff)
