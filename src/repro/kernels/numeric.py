"""Kernels for numeric attribute domains."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.kernels.base import Kernel


class GaussianKernel(Kernel):
    """The Gaussian kernel ``κ(a, b) = exp(-(a - b)² / (2·υ))``.

    This is the paper's default kernel for numeric domains.  Non-numeric or
    null inputs fall back to strict equality, which keeps the kernel total on
    dirty real-world columns.
    """

    def __init__(self, variance: float = 1.0):
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.variance = float(variance)

    def __call__(self, a: Any, b: Any) -> float:
        try:
            diff = float(a) - float(b)
        except (TypeError, ValueError):
            return 1.0 if a == b else 0.0
        return float(np.exp(-(diff * diff) / (2.0 * self.variance)))

    def cross_matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        try:
            xa = np.asarray([float(x) for x in xs], dtype=np.float64)
            ya = np.asarray([float(y) for y in ys], dtype=np.float64)
        except (TypeError, ValueError):
            return super().cross_matrix(xs, ys)
        diff = xa[:, None] - ya[None, :]
        return np.exp(-(diff * diff) / (2.0 * self.variance))

    def elementwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        try:
            xa = np.fromiter(map(float, xs), dtype=np.float64, count=len(xs))
            ya = np.fromiter(map(float, ys), dtype=np.float64, count=len(ys))
        except (TypeError, ValueError):
            return super().elementwise(xs, ys)
        diff = xa - ya
        return np.exp(-(diff * diff) / (2.0 * self.variance))

    @classmethod
    def for_values(cls, values: Sequence[float], min_variance: float = 1e-6) -> "GaussianKernel":
        """A kernel whose variance is the empirical variance of ``values``.

        Scaling the bandwidth to the column's spread makes the similarity
        meaningful for columns of very different magnitude (budgets in the
        hundreds of millions vs. ages below one hundred).
        """
        numeric = [float(v) for v in values if v is not None]
        if not numeric:
            return cls(1.0)
        variance = float(np.var(numeric))
        return cls(max(variance, min_variance))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"GaussianKernel(variance={self.variance:g})"
