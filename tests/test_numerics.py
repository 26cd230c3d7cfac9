"""Unit and property tests for the row-wise kernels the adaptation loop runs.

Softmax, entropy and L1 distances live in ``numerics``; the label argmax is
the one ``denoise_labels`` takes and the reweighting is the memory's
``_reweight_rows``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bimem import numerics
from bimem.adapt import denoise_labels
from bimem.memory import _reweight_rows

# Independent scalar computations, frozen:
#   softmax(-1, -2) = (1/(1+e^-1), e^-1/(1+e^-1))
#   softmax(0, -4)  = (1/(1+e^-4), e^-4/(1+e^-4))
SOFTMAX_1_2 = (0.7310585786300049, 0.2689414213699951)
SOFTMAX_0_4 = (0.9820137900379085, 0.017986209962091555)
# Entropies in nats of the two vectors above, computed at 40 significant digits.
ENTROPY_1_2 = 0.5822031088882179
ENTROPY_0_4 = 0.09009476776617598

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def scores_lists(min_size=1, max_size=8):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


def score_matrices(min_cols=1, max_cols=8, max_rows=4):
    """(n, k) score matrices, every row of the same width."""
    return st.integers(min_cols, max_cols).flatmap(
        lambda k: st.lists(scores_lists(k, k), min_size=1, max_size=max_rows).map(np.array)
    )


def random_probs(rng, n, c):
    raw = rng.random((n, c)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def label_argmax(scores):
    """The label ``denoise_labels`` takes from calibrated scores under uniform black-box probs."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n = scores.shape[0]
    return denoise_labels(scores, True, np.zeros(n, dtype=int), np.ones_like(scores))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(numerics.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_two_point_values(self):
        out = numerics.softmax_rows(np.array([[-1.0, -2.0], [0.0, -4.0]]))
        np.testing.assert_allclose(out, [SOFTMAX_1_2, SOFTMAX_0_4], atol=1e-12)

    def test_overflow_safety(self):
        out = numerics.softmax_rows(np.array([[1000.0, 999.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0], SOFTMAX_1_2, atol=1e-12)

    @given(score_matrices())
    def test_output_is_valid_prob_vector(self, scores):
        for row in numerics.softmax_rows(scores):
            numerics.check_prob_vector(row)

    @given(score_matrices(), st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_shift_invariance(self, scores, c):
        base = numerics.softmax_rows(scores)
        shifted = numerics.softmax_rows(scores + c)
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @given(score_matrices(min_cols=2))
    def test_monotone_in_scores(self, scores):
        out = numerics.softmax_rows(scores)
        for score_row, prob_row in zip(scores, out):
            order = np.argsort(score_row)
            assert np.all(np.diff(prob_row[order]) >= -1e-15)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert numerics.entropy_rows(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0

    def test_uniform_is_log_c(self):
        assert numerics.entropy_rows(np.full((1, 4), 0.25))[0] == pytest.approx(math.log(4), abs=1e-12)
        assert numerics.entropy_rows(np.full((1, 2), 0.5))[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_bounds_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(1, 9))
            h = numerics.entropy_rows(random_probs(rng, 4, c))
            assert np.all(h >= 0.0) and np.all(h <= math.log(c) + 1e-9)

    def test_maximized_exactly_at_uniform(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = int(rng.integers(2, 7))
            p = random_probs(rng, 1, c)
            h = numerics.entropy_rows(p)[0]
            if np.allclose(p, 1.0 / c):
                assert h == pytest.approx(math.log(c), abs=1e-9)
            else:
                assert h < math.log(c)

    def test_rows_variant_matches_scalar(self):
        out = numerics.entropy_rows(np.array([SOFTMAX_1_2, SOFTMAX_0_4] * 10))
        np.testing.assert_allclose(out, [ENTROPY_1_2, ENTROPY_0_4] * 10, atol=1e-12, rtol=0)


class TestL1Distance:
    def test_large_row_set_allocates_under_two_mib(self):
        # The full (1024, 20, 32) difference buffer would take 5 MiB.
        rng = np.random.default_rng(0)
        features, centroids = rng.normal(size=(1024, 32)), rng.normal(size=(20, 32))
        tracemalloc.start()
        try:
            numerics.l1_distances(features, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_identity(self):
        assert numerics.l1_distances(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))[0, 0] == 0.0

    def test_hand_values(self):
        features = np.array([[1.0, 0.0], [0.0, 0.0]])
        centroids = np.array([[0.0, 2.0], [1.0, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(
            numerics.l1_distances(features, centroids), [[3.0, 0.0, 2.0], [2.0, 1.0, 3.0]]
        )
        assert numerics.l1_distances(np.array([[1.0]]), np.array([[3.0]]))[0, 0] == 2.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            points = rng.normal(size=(3, 6))
            d = numerics.l1_distances(points, points)
            np.testing.assert_array_equal(d, d.T)
            assert np.all(d >= 0.0)
            # d[i, j] <= d[i, k] + d[k, j] for every i, j, k.
            assert np.all(d[:, :, None] <= d[:, None, :] + d.T[None, :, :] + 1e-12)


class TestArgmaxLabel:
    def test_simple(self):
        assert label_argmax([0.1, 0.7, 0.2])[0] == 1
        assert label_argmax([0.18, 0.28])[0] == 1

    def test_tie_breaks_low_index(self):
        assert label_argmax([0.5, 0.5])[0] == 0
        assert label_argmax([0.2, 0.4, 0.4])[0] == 1

    @given(scores_lists(), st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_invariance(self, scores, scale):
        arr = np.abs(np.asarray(scores)) + 0.1
        # Scaling rounds, so a maximum within a few ulps of the runner-up can
        # swap or tie with it: scores [49.99999999999999, 50.0] give two values
        # that both print as 50.1 with argmax 1, and after scaling by 821.0
        # the argmax is 0. Exact ties stay in.
        top = arr.max()
        runner_up = arr[arr < top]
        assume(runner_up.size == 0 or top - runner_up.max() > 4 * np.spacing(top))
        assert label_argmax(arr)[0] == label_argmax(arr * scale)[0]


class TestReweightNormalize:
    def test_uniform_passes_weights_through(self):
        out, n_degenerate = _reweight_rows(np.array([[0.5, 0.5]]), np.array([[0.731, 0.269]]))
        np.testing.assert_allclose(out[0], [0.731, 0.269], atol=1e-12)
        assert n_degenerate == 0

    def test_identity_weights(self):
        out, _ = _reweight_rows(np.array([[0.5, 0.5]]), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out[0], [0.5, 0.5])

    def test_hand_arithmetic(self):
        out, _ = _reweight_rows(np.array([[0.6, 0.4]]), np.array([[0.5, 1.5]]))
        np.testing.assert_allclose(out[0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_all_zero_product_falls_back_to_uniform(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0], [0.6, 0.4]])
        weights = np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 1.5]])
        out, n_degenerate = _reweight_rows(probs, weights)
        np.testing.assert_array_equal(out[:2], [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(out[2], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert n_degenerate == 2

    def test_preserves_argmax_of_raw_product(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            c = int(rng.integers(2, 7))
            p = random_probs(rng, 4, c)
            w = rng.random((4, c))
            out, n_degenerate = _reweight_rows(p, w)
            assert n_degenerate == 0
            np.testing.assert_array_equal(out.argmax(axis=1), (p * w).argmax(axis=1))
            for row in out:
                numerics.check_prob_vector(row)


class TestSoftmaxRows:
    def test_matches_scalar_softmax(self):
        # Each row is a shifted copy of one of the frozen score pairs.
        rng = np.random.default_rng(12)
        even = np.arange(40)[:, None] % 2 == 0
        scores = np.where(even, [[-1.0, -2.0]], [[0.0, -4.0]]) + rng.normal(size=(40, 1)) * 10
        expected = np.where(even, [SOFTMAX_1_2], [SOFTMAX_0_4])
        np.testing.assert_allclose(numerics.softmax_rows(scores), expected, atol=1e-12)
