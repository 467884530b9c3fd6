"""Tests for the NumPy optimizers (dense and sparse row updates)."""

import numpy as np
import pytest

from repro.optim import Adam


def quadratic_grad(x):
    """Gradient of 0.5 * ||x - 3||²."""
    return x - 3.0


@pytest.mark.parametrize("optimizer", [Adam(0.2)], ids=["adam"])
def test_converges_on_quadratic(optimizer):
    params = {"x": np.zeros(4)}
    for _ in range(300):
        optimizer.update(params, {"x": quadratic_grad(params["x"])})
    assert np.allclose(params["x"], 3.0, atol=1e-2)


def test_sparse_update_only_touches_given_rows():
    params = {"emb": np.ones((5, 3))}
    grads = {"emb": np.full((2, 3), 2.0)}
    rows = {"emb": np.array([1, 3])}
    optimizer = Adam(0.5)
    optimizer.update(params, grads, rows)
    # Adam's first bias-corrected step moves each coordinate by the learning
    # rate against the sign of its gradient
    assert np.allclose(params["emb"][[1, 3]], 0.5)
    assert np.array_equal(params["emb"][[0, 2, 4]], np.ones((3, 3)))
    assert np.array_equal(optimizer._first["emb"][[0, 2, 4]], np.zeros((3, 3)))
    assert np.array_equal(optimizer._second["emb"][[0, 2, 4]], np.zeros((3, 3)))


def test_adam_reset_clears_state():
    optimizer = Adam(0.1)
    params = {"x": np.array([0.0])}
    optimizer.update(params, {"x": np.array([1.0])})
    optimizer.reset()
    assert optimizer._step == 0
    assert optimizer._first == {}


def test_adam_sparse_and_dense_mix():
    optimizer = Adam(0.05)
    params = {"emb": np.zeros((4, 2)), "w": np.zeros(2)}
    for _ in range(200):
        grads = {"emb": (params["emb"][[0, 2]] - 1.0), "w": params["w"] - 2.0}
        optimizer.update(params, grads, rows={"emb": np.array([0, 2])})
    assert np.allclose(params["emb"][[0, 2]], 1.0, atol=0.05)
    assert np.allclose(params["emb"][[1, 3]], 0.0)
    assert np.allclose(params["w"], 2.0, atol=0.05)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_invalid_learning_rate_rejected(bad):
    with pytest.raises(ValueError):
        Adam(bad)


def test_invalid_adam_betas_rejected():
    with pytest.raises(ValueError):
        Adam(0.1, beta1=1.0)


def test_adam_sparse_step_is_bit_identical_to_the_scatter_formulation():
    """Pin the indexed sparse Adam step against the np.subtract.at form."""

    def reference_update(opt, params, grads, rows):
        opt._step += 1
        correction1 = 1.0 - opt.beta1**opt._step
        correction2 = 1.0 - opt.beta2**opt._step
        for name, grad in grads.items():
            param = params[name]
            first = opt._first.setdefault(name, np.zeros_like(param))
            second = opt._second.setdefault(name, np.zeros_like(param))
            idx = rows[name]
            first[idx] = opt.beta1 * first[idx] + (1 - opt.beta1) * grad
            second[idx] = opt.beta2 * second[idx] + (1 - opt.beta2) * grad * grad
            m_hat = first[idx] / correction1
            v_hat = second[idx] / correction2
            np.subtract.at(param, idx, opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.epsilon))

    rng = np.random.default_rng(0)
    start = {"a": rng.normal(size=(50, 7)), "b": rng.normal(size=(20, 3))}
    ours = {name: value.copy() for name, value in start.items()}
    theirs = {name: value.copy() for name, value in start.items()}
    optimizer, reference = Adam(0.03), Adam(0.03)
    for _ in range(25):
        rows = {
            "a": np.sort(rng.choice(50, size=int(rng.integers(1, 50)), replace=False)),
            "b": rng.permutation(20)[: int(rng.integers(1, 20))],
        }
        grads = {name: rng.normal(size=(idx.size, start[name].shape[1])) for name, idx in rows.items()}
        optimizer.update(ours, grads, rows)
        reference_update(reference, theirs, grads, rows)
    for name in start:
        assert np.array_equal(ours[name], theirs[name])
        assert np.array_equal(optimizer._first[name], reference._first[name])
        assert np.array_equal(optimizer._second[name], reference._second[name])
