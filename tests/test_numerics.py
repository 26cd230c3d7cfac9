"""Unit and property tests for the shared vector arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bimem import numerics
from bimem.errors import DegenerateCalibrationError, InvalidArgumentError

# Independent scalar computations, frozen:
#   softmax(-1, -2) = (1/(1+e^-1), e^-1/(1+e^-1))
#   softmax(0, -4)  = (1/(1+e^-4), e^-4/(1+e^-4))
SOFTMAX_1_2 = (0.7310585786300049, 0.2689414213699951)
SOFTMAX_0_4 = (0.9820137900379085, 0.017986209962091555)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def scores_lists(min_size=1, max_size=8):
    return st.lists(finite_floats, min_size=min_size, max_size=max_size)


def random_prob(rng, c):
    raw = rng.random(c) + 1e-3
    return raw / raw.sum()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(numerics.softmax([0.0, 0.0]), [0.5, 0.5])

    def test_two_point_values(self):
        np.testing.assert_allclose(numerics.softmax([-1.0, -2.0]), SOFTMAX_1_2, atol=1e-12)
        np.testing.assert_allclose(numerics.softmax([0.0, -4.0]), SOFTMAX_0_4, atol=1e-12)

    def test_overflow_safety(self):
        out = numerics.softmax([1000.0, 999.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, SOFTMAX_1_2[::-1][::-1], atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            numerics.softmax([0.0, float("nan")])
        with pytest.raises(InvalidArgumentError):
            numerics.softmax([float("inf"), 0.0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            numerics.softmax([])

    @given(scores_lists())
    def test_output_is_valid_prob_vector(self, scores):
        out = numerics.softmax(scores)
        numerics.check_prob_vector(out)

    @given(scores_lists(), st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_shift_invariance(self, scores, c):
        base = numerics.softmax(scores)
        shifted = numerics.softmax(np.asarray(scores) + c)
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @given(scores_lists(min_size=2))
    def test_monotone_in_scores(self, scores):
        out = numerics.softmax(scores)
        order = np.argsort(scores)
        assert np.all(np.diff(out[order]) >= -1e-15)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert numerics.entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_c(self):
        assert numerics.entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)
        assert numerics.entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_rejects_invalid_prob(self):
        with pytest.raises(InvalidArgumentError):
            numerics.entropy([0.5, 0.6])
        with pytest.raises(InvalidArgumentError):
            numerics.entropy([-0.1, 1.1])

    def test_bounds_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(1, 9))
            p = random_prob(rng, c)
            h = numerics.entropy(p)
            assert 0.0 <= h <= math.log(c) + 1e-9

    def test_maximized_exactly_at_uniform(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = int(rng.integers(2, 7))
            p = random_prob(rng, c)
            h = numerics.entropy(p)
            if np.allclose(p, 1.0 / c):
                assert h == pytest.approx(math.log(c), abs=1e-9)
            else:
                assert h < math.log(c)

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(9)
        probs = np.stack([random_prob(rng, 5) for _ in range(20)])
        rows = numerics.entropy_rows(probs)
        for i in range(20):
            assert rows[i] == pytest.approx(numerics.entropy(probs[i]), abs=1e-12)


class TestL1Distance:
    def test_identity(self):
        assert numerics.l1_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        assert numerics.l1_distance([1.0, 0.0], [0.0, 2.0]) == 3.0
        assert numerics.l1_distance([1.0], [3.0]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            numerics.l1_distance([1.0], [1.0, 2.0])

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            a, b, c = rng.normal(size=(3, 6))
            dab = numerics.l1_distance(a, b)
            assert dab == numerics.l1_distance(b, a)
            assert dab >= 0.0
            assert dab <= numerics.l1_distance(a, c) + numerics.l1_distance(c, b) + 1e-12


class TestArgmaxLabel:
    def test_simple(self):
        assert numerics.argmax_label([0.1, 0.7, 0.2]) == 1
        assert numerics.argmax_label([0.18, 0.28]) == 1

    def test_tie_breaks_low_index(self):
        assert numerics.argmax_label([0.5, 0.5]) == 0
        assert numerics.argmax_label([0.2, 0.4, 0.4]) == 1

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            numerics.argmax_label([])

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
        assert numerics.argmax_label(arr) == numerics.argmax_label(arr * scale)


class TestReweightNormalize:
    def test_uniform_passes_weights_through(self):
        out = numerics.reweight_normalize([0.5, 0.5], [0.731, 0.269])
        np.testing.assert_allclose(out, [0.731, 0.269], atol=1e-12)

    def test_identity_weights(self):
        out = numerics.reweight_normalize([0.5, 0.5], [1.0, 1.0])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_hand_arithmetic(self):
        out = numerics.reweight_normalize([0.6, 0.4], [0.5, 1.5])
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_all_zero_product_raises(self):
        with pytest.raises(DegenerateCalibrationError):
            numerics.reweight_normalize([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(DegenerateCalibrationError):
            numerics.reweight_normalize([1.0, 0.0], [0.0, 1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidArgumentError):
            numerics.reweight_normalize([0.5, 0.5], [-1.0, 1.0])

    def test_preserves_argmax_of_raw_product(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            c = int(rng.integers(2, 7))
            p = random_prob(rng, c)
            w = rng.random(c)
            raw = p * w
            if raw.sum() <= 0:
                continue
            out = numerics.reweight_normalize(p, w)
            assert numerics.argmax_label(out) == numerics.argmax_label(raw)
            numerics.check_prob_vector(out)


class TestSoftmaxRows:
    def test_matches_scalar_softmax(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(size=(40, 6))
        rows = numerics.softmax_rows(scores)
        for i in range(40):
            np.testing.assert_array_equal(rows[i], numerics.softmax(scores[i]))
