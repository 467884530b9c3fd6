"""The pseudo-inverse the batched extender caches against the lstsq oracle."""

import numpy as np
import pytest

from repro.utils.linalg import pseudo_inverse, solve_least_squares


@pytest.mark.parametrize("seed", range(5))
def test_pseudo_inverse_solves_like_lstsq_on_an_ill_conditioned_system(seed):
    """At cond(A) = 1e7 ``A⁺ @ b`` stays within 1e-12 (relative) of lstsq;
    the normal-equations form ``(AᵀA)⁺ Aᵀb`` is ~1e-9 off here."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.normal(size=(40, 8)))
    right, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    matrix = (left * np.logspace(0, -7, 8)) @ right.T
    rhs = rng.normal(size=40)
    expected = solve_least_squares(matrix, rhs)
    error = np.linalg.norm(pseudo_inverse(matrix) @ rhs - expected)
    assert error <= 1e-12 * np.linalg.norm(expected)


def test_pseudo_inverse_applies_the_lstsq_cut():
    """A singular value below ``rcond`` times the largest is cut, as lstsq
    cuts it: the minimum-norm solution of a rank-deficient system."""
    matrix = np.array([[1.0, 0.0], [0.0, 1e-12], [0.0, 0.0]])
    rhs = np.array([2.0, 1.0, 5.0])
    np.testing.assert_array_equal(pseudo_inverse(matrix) @ rhs, [2.0, 0.0])
    np.testing.assert_allclose(solve_least_squares(matrix, rhs), [2.0, 0.0], atol=0)


def test_pseudo_inverse_rejects_a_vector():
    with pytest.raises(ValueError):
        pseudo_inverse(np.ones(3))
