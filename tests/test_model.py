"""Tests for the classifier, loss, analytic gradients, and EMA updates."""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from bimem import model
from bimem.errors import DataError, InvalidArgumentError, NumericFailureError
from bimem.model import (
    ClassifierParams,
    Layout,
    MomentumModel,
    batch_loss,
    forward_batch,
    init_params,
    load_params,
    loss_gradients,
    momentum_update,
    save_params,
    sgd_step,
)

SOFTMAX_0_4 = (0.9820137900379085, 0.017986209962091555)


def zero_params(layout):
    params = init_params(layout, np.random.default_rng(0))
    for a in params.arrays():
        a[:] = 0.0
    return params


def finite_difference_gradients(params, x, labels, step=1e-5):
    grads = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + step
            up = batch_loss(params, x, labels)
            flat[i] = old - step
            down = batch_loss(params, x, labels)
            flat[i] = old
            gflat[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def one_row(x):
    return np.asarray(x, dtype=float)[None, :]


def identity_loss(logits, label):
    """``batch_loss`` of one sample whose logits are ``logits``: a linear model with W = I."""
    params = zero_params(Layout(len(logits), 0, len(logits)))
    params.out_w[:] = np.eye(len(logits))
    return batch_loss(params, one_row(logits), np.array([label]))


class TestForward:
    def test_zero_weights_give_uniform(self):
        for hidden in (0, 8):
            params = zero_params(Layout(3, hidden, 4))
            _, prob = forward_batch(params, one_row([1.0, -2.0, 0.5]))
            np.testing.assert_allclose(prob[0], [0.25] * 4)

    def test_linear_feature_is_input(self):
        params = zero_params(Layout(2, 0, 3))
        feature, _ = forward_batch(params, one_row([1.5, -0.5]))
        np.testing.assert_array_equal(feature[0], [1.5, -0.5])

    def test_identity_weight_logits(self):
        params = zero_params(Layout(2, 0, 2))
        params.out_w[:] = np.eye(2)
        _, prob = forward_batch(params, one_row([0.0, -4.0]))
        np.testing.assert_allclose(prob[0], SOFTMAX_0_4, atol=1e-12)

    def test_dimension_mismatch(self):
        params = zero_params(Layout(2, 0, 2))
        with pytest.raises(InvalidArgumentError):
            forward_batch(params, one_row([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("sizes", [(0, 0, 2), (2, -1, 2), (2, 0, 0)])
    def test_invalid_layout_rejected(self, sizes):
        with pytest.raises(InvalidArgumentError, match="invalid layout"):
            Layout(*sizes)

    def test_forward_always_emits_valid_prob(self):
        from bimem import numerics

        rng = np.random.default_rng(1)
        for _ in range(50):
            layout = Layout(int(rng.integers(1, 5)), int(rng.choice([0, 6])), int(rng.integers(2, 5)))
            params = init_params(layout, rng)
            x = rng.normal(size=layout.input_dim) * 10
            _, prob = forward_batch(params, one_row(x))
            numerics.check_prob_vector(prob[0])

    def test_hidden_feature_is_tanh_activation(self):
        rng = np.random.default_rng(2)
        layout = Layout(3, 5, 2)
        params = init_params(layout, rng)
        x = rng.normal(size=3)
        feature, _ = forward_batch(params, one_row(x))
        np.testing.assert_allclose(
            feature[0], np.tanh(params.hidden_w @ x + params.hidden_b), atol=1e-12
        )


class TestCrossEntropyLoss:
    def test_one_hot_is_zero(self):
        # exp(-1000) underflows, so the label's probability is exactly 1.
        assert identity_loss([-1000.0, 0.0], 1) == 0.0

    def test_uniform_is_ln2(self):
        assert identity_loss([0.0, 0.0], 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_derived_value(self):
        # -ln(0.9820137900379085) by independent computation
        assert identity_loss([0.0, -4.0], 0) == pytest.approx(0.01814992791780973, abs=1e-12)

    def test_probability_floor(self):
        # The label's probability underflows to 0 and is floored at 1e-12.
        assert identity_loss([0.0, -1000.0], 1) == pytest.approx(-math.log(1e-12))

    def test_invalid_label(self):
        params = zero_params(Layout(2, 0, 2))
        for label in (2, -1):
            with pytest.raises(InvalidArgumentError):
                loss_gradients(params, one_row([0.5, 0.5]), np.array([label]))


BAD_LABELS = {
    "one label for five rows": np.array([1]),
    "one label too many": np.zeros(6, dtype=int),
    "a row of labels": np.zeros((1, 5), dtype=int),
    "float labels": np.zeros(5),
    "out of range": np.array([0, 1, 2, 1, 0]),
    "negative": np.array([0, 1, -1, 1, 0]),
}


class TestLabelValidation:
    """Labels must be one integer class index per batch row, or nothing runs."""

    def batch(self, hidden):
        rng = np.random.default_rng(18)
        return init_params(Layout(2, hidden, 2), rng), rng.normal(size=(5, 2))

    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS.keys())
    def test_bad_labels_raise_and_change_nothing(self, hidden, labels):
        params, x = self.batch(hidden)
        before = params.flat.copy()
        with pytest.raises(InvalidArgumentError, match="labels"):
            loss_gradients(params, x, labels)
        with pytest.raises(InvalidArgumentError, match="labels"):
            batch_loss(params, x, labels)
        with pytest.raises(InvalidArgumentError, match="labels"):
            sgd_step(params, x, labels, lr=0.1)
        assert params.flat.tobytes() == before.tobytes()

    def test_empty_batch_rejected(self):
        params, _ = self.batch(4)
        for call in (loss_gradients, batch_loss):
            with pytest.raises(InvalidArgumentError, match="empty batch"):
                call(params, np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_any_integer_dtype_gives_the_same_gradient(self, dtype):
        params, x = self.batch(4)
        labels = np.array([0, 1, 1, 0, 1])
        expected = loss_gradients(params, x, labels)
        assert loss_gradients(params, x, labels.astype(dtype)).tobytes() == expected.tobytes()

    def test_gradient_buffer_is_checked(self):
        params, x = self.batch(4)
        labels = np.array([0, 1, 1, 0, 1])
        out = np.empty(params.layout.n_params)
        assert loss_gradients(params, x, labels, out=out) is out
        assert out.tobytes() == loss_gradients(params, x, labels).tobytes()
        for bad in (np.empty(params.layout.n_params + 1), out.astype(np.float32)):
            with pytest.raises(InvalidArgumentError, match="flat buffer"):
                loss_gradients(params, x, labels, out=bad)


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        rng = np.random.default_rng(3)
        params = init_params(Layout(2, 4, 3), rng)
        before = [a.copy() for a in params.arrays()]
        sgd_step(params, rng.normal(size=(5, 2)), rng.integers(0, 3, size=5), lr=0.0)
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("hidden", [0, 4])
    def test_non_finite_gradient_raises_and_changes_nothing(self, hidden):
        # An infinite input saturates every tanh unit (0 * inf in the hidden
        # weight gradient) or makes the linear logits non-finite.
        rng = np.random.default_rng(13)
        params = init_params(Layout(2, hidden, 3), rng)
        before = params.flat.copy()
        x = rng.normal(size=(5, 2))
        x[2, 1] = np.inf
        labels = rng.integers(0, 3, size=5)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericFailureError, match="non-finite gradient"):
                sgd_step(params, x, labels, lr=0.1)
        assert params.flat.tobytes() == before.tobytes()

    def test_negative_lr_rejected(self):
        params = zero_params(Layout(2, 0, 2))
        with pytest.raises(InvalidArgumentError):
            sgd_step(params, np.zeros((1, 2)), np.array([0]), lr=-0.1)

    def test_near_zero_gradient_when_confident(self):
        params = zero_params(Layout(1, 0, 2))
        params.out_w[:] = [[40.0], [-40.0]]
        x = np.array([[1.0]])
        y = np.array([0])
        assert batch_loss(params, x, y) < 1e-9
        before = [a.copy() for a in params.arrays()]
        sgd_step(params, x, y, lr=1.0)
        change = max(
            np.abs(a - b).max() for a, b in zip(params.arrays(), before)
        )
        assert change < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            d = int(rng.integers(1, 6))
            c = int(rng.integers(2, 5))
            h = int(rng.choice([0, 8]))
            layout = Layout(d, h, c)
            params = init_params(layout, rng)
            for a in params.arrays():
                a += rng.normal(size=a.shape) * 0.3
            n = int(rng.integers(1, 7))
            x = rng.normal(size=(n, d))
            labels = rng.integers(0, c, size=n)
            analytic = layout.views(loss_gradients(params, x, labels))
            numeric = finite_difference_gradients(params, x, labels)
            for ga, gn in zip(analytic, numeric):
                scale = max(np.abs(gn).max(), np.abs(ga).max(), 1e-8)
                assert np.abs(ga - gn).max() / scale < 1e-5

    def test_small_step_does_not_increase_loss_much(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layout = Layout(3, 6, 3)
            params = init_params(layout, rng)
            x = rng.normal(size=(8, 3))
            labels = rng.integers(0, 3, size=8)
            lr = 1e-3
            before = batch_loss(params, x, labels)
            sgd_step(params, x, labels, lr)
            after = batch_loss(params, x, labels)
            assert after <= before + 100 * lr**2


class TestMomentumUpdate:
    def test_single_update(self):
        student = zero_params(Layout(1, 0, 2))
        tracked = zero_params(Layout(1, 0, 2))
        tracked.out_w[:] = 1.0
        mm = MomentumModel(tracked, gamma=0.9)
        momentum_update(mm, student)
        np.testing.assert_allclose(mm.params.out_w, 0.9)

    def test_geometric_convergence_to_frozen_student(self):
        rng = np.random.default_rng(6)
        student = init_params(Layout(2, 3, 2), rng)
        mm = MomentumModel(init_params(Layout(2, 3, 2), rng), gamma=0.8)
        gap0 = np.abs(mm.params.out_w - student.out_w).max()
        for t in range(1, 6):
            momentum_update(mm, student)
            gap = np.abs(mm.params.out_w - student.out_w).max()
            assert gap == pytest.approx(0.8**t * gap0, rel=1e-9)

    def test_gamma_zero_copies_student(self):
        rng = np.random.default_rng(7)
        student = init_params(Layout(2, 3, 2), rng)
        mm = MomentumModel(init_params(Layout(2, 3, 2), rng), gamma=0.0)
        momentum_update(mm, student)
        for a, b in zip(mm.params.arrays(), student.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_layout_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        mm = MomentumModel(init_params(Layout(2, 3, 2), rng), gamma=0.5)
        with pytest.raises(InvalidArgumentError):
            momentum_update(mm, init_params(Layout(2, 4, 2), rng))

    @pytest.mark.parametrize("gamma", [-0.1, 1.0])
    def test_gamma_out_of_range_rejected(self, gamma):
        with pytest.raises(InvalidArgumentError, match="gamma must be in"):
            MomentumModel(zero_params(Layout(2, 0, 2)), gamma=gamma)

    def test_convex_combination_componentwise(self):
        rng = np.random.default_rng(9)
        for gamma in (0.0, 0.3, 0.99):
            student = init_params(Layout(2, 3, 2), rng)
            tracked = init_params(Layout(2, 3, 2), rng)
            mm = MomentumModel(tracked.copy(), gamma=gamma)
            momentum_update(mm, student)
            for updated, old, target in zip(
                mm.params.arrays(), tracked.arrays(), student.arrays()
            ):
                lo = np.minimum(old, target) - 1e-12
                hi = np.maximum(old, target) + 1e-12
                assert np.all(updated >= lo) and np.all(updated <= hi)


class TestCheckpoint:
    def test_round_trip_hidden(self, tmp_path):
        rng = np.random.default_rng(10)
        params = init_params(Layout(3, 7, 4), rng)
        path = tmp_path / "model.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.layout == params.layout
        for a, b in zip(loaded.arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_linear(self, tmp_path):
        rng = np.random.default_rng(11)
        params = init_params(Layout(3, 0, 2), rng)
        path = tmp_path / "model.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.hidden_w is None
        for a, b in zip(loaded.arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(("layout", "flat", "expected"), [
        (Layout(2, 1, 2), [0.5, -0.0, 0.25, 1.5, -2.0, 1 / 3, 3e-300],
         {"layout": {"input_dim": 2, "hidden_dim": 1, "n_categories": 2},
          "out_w": [[1.5], [-2.0]], "out_b": [0.3333333333333333, 3e-300],
          "hidden_w": [[0.5, -0.0]], "hidden_b": [0.25]}),
        (Layout(2, 0, 2), [-0.0, 1.0, 0.1, -1e-300, 2.5, -3.0],
         {"layout": {"input_dim": 2, "hidden_dim": 0, "n_categories": 2},
          "out_w": [[-0.0, 1.0], [0.1, -1e-300]], "out_b": [2.5, -3.0]}),
    ], ids=["hidden", "linear"])
    def test_checkpoint_bytes_are_pinned(self, tmp_path, layout, flat, expected):
        # Key order, number format and the sign of zero are all part of the file.
        params = ClassifierParams(layout, np.array(flat))
        path = tmp_path / "model.json"
        save_params(params, path)
        assert path.read_text() == json.dumps(expected)
        assert load_params(path).flat.tobytes() == params.flat.tobytes()

    def test_bias_shape_mismatch_rejected(self, tmp_path):
        # Length-1 biases would broadcast silently; a length-2 out_b with 3
        # classes would fail later inside numpy.
        rng = np.random.default_rng(12)
        path = tmp_path / "model.json"
        for layout, key, bias in (
            (Layout(3, 7, 4), "hidden_b", [0.0]),
            (Layout(3, 7, 4), "out_b", [0.0]),
            (Layout(3, 0, 3), "out_b", [0.0, 0.0]),
        ):
            save_params(init_params(layout, rng), path)
            payload = json.loads(path.read_text())
            payload[key] = bias
            path.write_text(json.dumps(payload))
            with pytest.raises(DataError, match=key):
                load_params(path)

    def test_initialization_is_deterministic_and_bounded(self):
        a = init_params(Layout(4, 5, 3), np.random.default_rng([7, 0]))
        b = init_params(Layout(4, 5, 3), np.random.default_rng([7, 0]))
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)
            assert np.abs(x).max() <= model.INIT_SCALE


LAYOUTS = [Layout(3, 7, 4), Layout(3, 0, 2)]


@pytest.mark.parametrize("layout", LAYOUTS, ids=["hidden", "linear"])
class TestStepScratch:
    """Steps write their intermediates into buffers shared per layout; none may leak out."""

    def test_returned_arrays_survive_later_steps(self, layout):
        rng = np.random.default_rng(19)
        student = init_params(layout, rng)
        mm = MomentumModel(init_params(layout, rng), gamma=0.9)
        kept = []
        for n in (4, 9, 4, 1):
            x = rng.normal(size=(n, layout.input_dim))
            labels = rng.integers(0, layout.n_categories, size=n)
            outputs = [*forward_batch(student, x), *forward_batch(mm.params, x),
                       loss_gradients(student, x, labels)]
            kept.append((outputs, [a.copy() for a in outputs]))
            sgd_step(student, x, labels, lr=0.5)
            momentum_update(mm, student)
        for outputs, copies in kept:
            for array, copy in zip(outputs, copies):
                assert array.tobytes() == copy.tobytes()

    def test_parameters_hold_no_scratch(self, layout):
        rng = np.random.default_rng(20)
        student = init_params(layout, rng)
        mm = MomentumModel(student.copy(), gamma=0.9)
        before = (set(vars(student)), set(vars(mm.params)))
        x = rng.normal(size=(6, layout.input_dim))
        sgd_step(student, x, rng.integers(0, layout.n_categories, size=6), lr=0.1)
        momentum_update(mm, student)
        assert (set(vars(student)), set(vars(mm.params))) == before


def assert_flat_layout(params):
    """``flat`` is one contiguous buffer that the named arrays tile in ``arrays()`` order."""
    flat = params.flat
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    assert flat.shape == (params.layout.n_params,)
    named = [getattr(params, name) for name in params.layout.shapes]
    assert [a.shape for a in named] == [a.shape for a in params.arrays()]
    assert all(np.shares_memory(a, flat) for a in [*named, *params.arrays()])
    saved = flat.copy()
    flat[:] = np.arange(flat.size)
    start = 0
    for array, listed in zip(named, params.arrays()):
        expected = np.arange(start, start + array.size).reshape(array.shape)
        np.testing.assert_array_equal(array, expected)
        np.testing.assert_array_equal(listed, expected)
        start += array.size
    flat[:] = saved


class TestFlatBuffer:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=["hidden", "linear"])
    def test_init_and_load_give_flat_layout(self, layout, tmp_path):
        params = init_params(layout, np.random.default_rng(14))
        assert_flat_layout(params)
        save_params(params, tmp_path / "model.json")
        loaded = load_params(tmp_path / "model.json")
        assert_flat_layout(loaded)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert (loaded.hidden_w is None) == (layout.hidden_dim == 0)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["hidden", "linear"])
    def test_init_draws_each_array_in_order(self, layout):
        params = init_params(layout, np.random.default_rng(15))
        rng = np.random.default_rng(15)
        for array in params.arrays():
            drawn = rng.uniform(-model.INIT_SCALE, model.INIT_SCALE, size=array.shape)
            assert array.tobytes() == drawn.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["hidden", "linear"])
    def test_copies_share_no_memory(self, layout):
        student = init_params(layout, np.random.default_rng(16))
        for other in (student.copy(), MomentumModel(student.copy(), gamma=0.9).params,
                      pickle.loads(pickle.dumps(student)), copy.deepcopy(student)):
            assert_flat_layout(other)
            assert not np.shares_memory(other.flat, student.flat)
            assert other.flat.tobytes() == student.flat.tobytes()
            other.flat += 1.0
            assert not np.any(other.flat == student.flat)

    def test_in_place_writes_are_seen_through_flat(self):
        params = zero_params(Layout(2, 3, 2))
        params.out_w[:] = np.eye(2, 3)
        params.hidden_b[1] = 5.0
        params.out_b += 2.0
        _, hidden_b, out_w, out_b = params.layout.views(params.flat)
        np.testing.assert_array_equal(out_w, np.eye(2, 3))
        np.testing.assert_array_equal(hidden_b, [0.0, 5.0, 0.0])
        np.testing.assert_array_equal(out_b, [2.0, 2.0])
        assert params.flat.sum() == 2.0 + 5.0 + 4.0
        params.flat[:] = 0.0
        assert not params.out_w.any()

    def test_constructor_views_the_given_buffer(self):
        layout = Layout(3, 0, 2)
        flat = np.random.default_rng(17).normal(size=layout.n_params)
        params = ClassifierParams(layout, flat)
        assert params.flat is flat
        assert_flat_layout(params)
        for bad in (np.zeros(7), np.zeros(8, dtype=np.float32), np.zeros((2, 4))):
            with pytest.raises(InvalidArgumentError, match="flat buffer"):
                ClassifierParams(layout, bad)
