"""Linear-algebra helpers used by the embedding algorithms."""

from __future__ import annotations

import numpy as np


#: Singular values at or below ``RCOND`` times the largest are cut.
RCOND = 1e-10


def solve_least_squares(matrix: np.ndarray, rhs: np.ndarray, rcond: float = RCOND) -> np.ndarray:
    """Minimum-norm least-squares solution of ``matrix @ x = rhs``.

    The FoRWaRD dynamic extension (Equation (10) of the paper) solves the
    over-determined system ``C · φ(f_new) = b`` with the pseudo-inverse; we
    use ``numpy.linalg.lstsq`` which computes the same minimum-norm solution
    without forming the pseudo-inverse explicitly.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if matrix.shape[0] != rhs.shape[0]:
        raise ValueError(
            f"incompatible shapes: matrix {matrix.shape} vs rhs {rhs.shape}"
        )
    solution, _residuals, _rank, _svals = np.linalg.lstsq(matrix, rhs, rcond=rcond)
    return solution


def pseudo_inverse(matrix: np.ndarray, rcond: float = RCOND) -> np.ndarray:
    """The pseudo-inverse ``matrix⁺`` under :func:`solve_least_squares`'s cut.

    ``pseudo_inverse(A) @ b`` is the minimum-norm least-squares solution of
    ``A @ x = b`` to rounding (its error grows with cond(A), like lstsq's);
    one factorisation serves every right-hand side.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    return np.linalg.pinv(matrix, rcond=rcond)


def normalize_rows(matrix: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Scale every row of ``matrix`` to unit Euclidean norm (zero rows stay zero)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.maximum(norms, epsilon)
