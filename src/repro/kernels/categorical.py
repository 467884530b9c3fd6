"""Kernels for categorical and identifier domains."""

from __future__ import annotations

from itertools import repeat
from typing import Any, Sequence

import numpy as np

from repro.kernels.base import Kernel


class EqualityKernel(Kernel):
    """The equality kernel: ``κ(a, a) = 1`` and ``κ(a, b) = 0`` for ``a ≠ b``.

    The paper's fallback kernel, used for finite categorical domains and for
    identifiers that carry no semantic meaning.
    """

    def __call__(self, a: Any, b: Any) -> float:
        return 1.0 if a == b else 0.0

    def cross_matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        # each distinct value's first position in ys, under dict equality,
        # which is the scalar kernel's: 1 == 1.0 == True, tuples compare by
        # value and a NaN matches only the very same object
        n, m = len(xs), len(ys)
        position = dict(zip(reversed(ys), range(m - 1, -1, -1)))
        x_pos = np.fromiter(map(position.get, xs, repeat(-1)), dtype=np.int64, count=n)
        out = np.zeros((n, m), dtype=np.float64)
        rows = np.flatnonzero(x_pos >= 0)
        out[rows, x_pos[rows]] = 1.0
        if len(position) < m:  # a repeated value copies its first column
            y_pos = np.fromiter(map(position.__getitem__, ys), dtype=np.int64, count=m)
            repeats = np.flatnonzero(y_pos != np.arange(m))
            out[:, repeats] = out[:, y_pos[repeats]]
        return out

    def elementwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        return (_object_array(xs) == _object_array(ys)).astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "EqualityKernel()"


def _object_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-d object array (safe for tuple-valued entries, unlike asarray)."""
    if isinstance(values, np.ndarray) and values.dtype == object and values.ndim == 1:
        return values
    out = np.empty(len(values), dtype=object)
    out[:] = list(values)
    return out
