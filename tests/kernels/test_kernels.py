"""Tests for the attribute-domain kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    EditDistanceKernel,
    EqualityKernel,
    GaussianKernel,
    TokenJaccardKernel,
)
from repro.kernels.text import levenshtein_distance


class TestEqualityKernel:
    def test_identity(self):
        kernel = EqualityKernel()
        assert kernel("a", "a") == 1.0
        assert kernel(3, 3) == 1.0

    def test_mismatch(self):
        kernel = EqualityKernel()
        assert kernel("a", "b") == 0.0
        assert kernel(1, "1") == 0.0

    def test_cross_matrix(self):
        kernel = EqualityKernel()
        matrix = kernel.cross_matrix(["a", "b", "a"], ["a", "c"])
        assert matrix.tolist() == [[1, 0], [0, 0], [1, 0]]


class TestGaussianKernel:
    def test_equal_values_have_similarity_one(self):
        assert GaussianKernel(2.0)(5.0, 5.0) == pytest.approx(1.0)

    def test_value_matches_formula(self):
        kernel = GaussianKernel(variance=2.0)
        assert kernel(1.0, 3.0) == pytest.approx(np.exp(-4.0 / 4.0))

    def test_symmetry(self):
        kernel = GaussianKernel(0.5)
        assert kernel(1.0, 4.0) == pytest.approx(kernel(4.0, 1.0))

    def test_monotone_in_distance(self):
        kernel = GaussianKernel(1.0)
        assert kernel(0, 1) > kernel(0, 2) > kernel(0, 5)

    def test_non_numeric_falls_back_to_equality(self):
        kernel = GaussianKernel(1.0)
        assert kernel("x", "x") == 1.0
        assert kernel("x", "y") == 0.0

    def test_cross_matrix_matches_scalar(self):
        kernel = GaussianKernel(3.0)
        xs, ys = [0.0, 1.0, 2.5], [1.0, -2.0]
        matrix = kernel.cross_matrix(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert matrix[i, j] == pytest.approx(kernel(x, y))

    def test_for_values_uses_empirical_variance(self):
        kernel = GaussianKernel.for_values([0.0, 10.0])
        assert kernel.variance == pytest.approx(25.0)

    def test_for_values_handles_constant_column(self):
        kernel = GaussianKernel.for_values([3.0, 3.0, 3.0])
        assert kernel.variance > 0

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)


class TestTextKernels:
    def test_levenshtein_basics(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "abc") == 0

    def test_edit_distance_kernel_range(self):
        kernel = EditDistanceKernel()
        assert kernel("color", "colour") == pytest.approx(1 - 1 / 6)
        assert kernel("same", "same") == 1.0
        assert 0.0 <= kernel("abc", "xyz") <= 1.0

    def test_token_jaccard(self):
        kernel = TokenJaccardKernel()
        assert kernel("warner bros", "warner studios") == pytest.approx(1 / 3)
        assert kernel("", "") == 1.0
        assert kernel("a b", "") == 0.0


class TestExpectedSimilarity:
    def test_point_masses(self):
        kernel = EqualityKernel()
        value = kernel.expected_similarity(["a"], [1.0], ["a"], [1.0])
        assert value == 1.0

    def test_mixture_matches_hand_computation(self):
        kernel = EqualityKernel()
        # P(X = Y) with X ~ {a:0.5, b:0.5}, Y ~ {a:0.25, c:0.75} = 0.5*0.25
        value = kernel.expected_similarity(["a", "b"], [0.5, 0.5], ["a", "c"], [0.25, 0.75])
        assert value == pytest.approx(0.125)

    def test_gaussian_expected_similarity(self):
        kernel = GaussianKernel(1.0)
        value = kernel.expected_similarity([0.0, 2.0], [0.5, 0.5], [0.0], [1.0])
        assert value == pytest.approx(0.5 * 1.0 + 0.5 * np.exp(-2.0))

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            EqualityKernel().expected_similarity([], [], ["a"], [1.0])


def _loop_cross_matrix(xs, ys):
    """The scalar-loop form ``EqualityKernel.cross_matrix`` replaced."""
    out = np.zeros((len(xs), len(ys)), dtype=np.float64)
    index = {}
    for j, y in enumerate(ys):
        index.setdefault(y, []).append(j)
    for i, x in enumerate(xs):
        for j in index.get(x, ()):
            out[i, j] = 1.0
    return out


_HASHABLES = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.sampled_from([1.0, 0.0, -0.0, float("nan")]),
    st.text(alphabet="ab1", max_size=2),
    st.tuples(st.integers(0, 2), st.sampled_from(["a", 1.0])),
    st.none(),
)


class TestEqualityCrossMatrix:
    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(_HASHABLES, min_size=1, max_size=12),
        picks=st.tuples(
            st.lists(st.integers(0, 11), max_size=15), st.lists(st.integers(0, 11), max_size=15)
        ),
    )
    def test_matches_the_loop(self, pool, picks):
        # picks index one shared pool, so xs and ys share objects (a NaN too)
        xs = [pool[i % len(pool)] for i in picks[0]]
        ys = [pool[i % len(pool)] for i in picks[1]]
        got = EqualityKernel().cross_matrix(xs, ys)
        expected = _loop_cross_matrix(xs, ys)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_dict_equality_semantics(self):
        nan = float("nan")
        xs = [1, True, 1.0, (1, "a"), nan, float("nan"), "1"]
        matrix = EqualityKernel().cross_matrix(xs, [1.0, (1, "a"), nan])
        assert matrix.tolist() == [
            [1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0],
        ]
