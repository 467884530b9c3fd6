"""Gradient-descent optimizers over named NumPy parameter arrays.

Parameters live in a plain ``{name: ndarray}`` dict owned by the model; an
optimizer keeps its own per-parameter state (momenta, second moments) keyed
by the same names.  Sparse updates — updating only a subset of the rows of an
embedding matrix, as both skip-gram and FoRWaRD training do — are supported
through the optional ``rows`` argument of :meth:`Optimizer.update`.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np


class Optimizer(abc.ABC):
    """Base class: applies gradients to parameters in place."""

    def __init__(self, learning_rate: float = 0.01):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    @abc.abstractmethod
    def update(
        self,
        params: Mapping[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        rows: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Apply one update step in place.

        ``grads[name]`` must have the same shape as ``params[name]`` unless
        ``rows`` provides row indices for ``name``, in which case the gradient
        has shape ``(len(rows[name]), *params[name].shape[1:])`` and only those
        rows are updated (sparse update).  ``rows[name]`` must not repeat a
        row: a row's gradient is its one summed gradient, and a stateful
        optimizer gathers and writes back each row once.
        """

    def reset(self) -> None:
        """Drop optimizer state (momenta, step counters)."""


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    For sparse updates the step counter is global (not per row), which is the
    usual "dense step count" treatment and is adequate for the small models
    trained here.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._first: dict[str, np.ndarray] = {}
        self._second: dict[str, np.ndarray] = {}
        self._step = 0

    def update(self, params, grads, rows=None):
        self._step += 1
        correction1 = 1.0 - self.beta1**self._step
        correction2 = 1.0 - self.beta2**self._step
        for name, grad in grads.items():
            param = params[name]
            if name not in self._first:  # setdefault would allocate every step
                self._first[name] = np.zeros_like(param)
                self._second[name] = np.zeros_like(param)
            first, second = self._first[name], self._second[name]
            if rows is not None and name in rows:
                # the dense formula on the gathered rows; rows are unique, so
                # plain indexed writes are exact
                idx = rows[name]
                m = self.beta1 * first[idx] + (1 - self.beta1) * grad
                v = self.beta2 * second[idx] + (1 - self.beta2) * grad * grad
                first[idx] = m
                second[idx] = v
                param[idx] -= self.learning_rate * (m / correction1) / (
                    np.sqrt(v / correction2) + self.epsilon
                )
            else:
                first *= self.beta1
                first += (1 - self.beta1) * grad
                second *= self.beta2
                second += (1 - self.beta2) * grad * grad
                m_hat = first / correction1
                v_hat = second / correction2
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        self._first.clear()
        self._second.clear()
        self._step = 0
