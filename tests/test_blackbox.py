"""Tests for source training and the prediction export boundary."""

import inspect

import numpy as np
import pytest

from bimem import adapt, blackbox, cli, metrics, model
from bimem.blackbox import (
    PredictionSet,
    export_predictions,
    predict,
    read_predictions,
    smooth_hard_labels,
    train_source,
    write_predictions,
)
from bimem.data import LabeledDataset, gen_shifted_gaussians
from bimem.errors import DataError, InvalidArgumentError


def blobs(seed=0, n=80):
    """Two linearly separable Gaussian blobs (means 8 apart, sigma 1)."""
    return gen_shifted_gaussians(
        n_categories=2,
        feature_dim=2,
        n_per_class=n,
        class_separation=4.0,
        target_shift=np.zeros(2),
        target_rotation_deg=0.0,
        noise_sigma=1.0,
        seed=seed,
    )


class TestTrainSource:
    def test_separable_blobs_reach_bayes_level_accuracy(self):
        # Oracle: with means 8 apart and sigma 1, the Bayes classifier
        # (nearest mean) is essentially perfect, so >= 0.97 held-out is
        # attainable.
        train, heldout = blobs(seed=0)
        means = np.stack(
            [train.features[train.labels == c].mean(axis=0) for c in range(2)]
        )
        bayes = np.argmin(
            np.linalg.norm(heldout.features[:, None, :] - means[None], axis=2), axis=1
        )
        assert metrics.accuracy(bayes, heldout.labels) >= 0.97
        params = train_source(train, epochs=50, lr=0.05, seed=0)
        preds = predict(params, heldout)
        assert metrics.accuracy(preds.yhat, heldout.labels) >= 0.97

    def test_zero_epochs_returns_initialization(self):
        train, _ = blobs(seed=1)
        params = train_source(train, epochs=0, lr=0.05, seed=3)
        expected = model.init_params(
            model.Layout(2, 32, 2), np.random.default_rng([3, 0])
        )
        for a, b in zip(params.arrays(), expected.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_identical_parameters(self):
        train, _ = blobs(seed=2)
        p1 = train_source(train, epochs=5, lr=0.05, seed=9)
        p2 = train_source(train, epochs=5, lr=0.05, seed=9)
        for a, b in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("epochs, batch_size", [(0, 32), (3, 500), (4, 48), (3, 32)])
    def test_matches_a_per_epoch_permutation_loop(self, epochs, batch_size):
        """The sampler-driven loop is the straight-line form: a fresh permutation
        each epoch, cut into batches with a short last one. 160 samples: batch
        500 exceeds the set and 48 does not divide it."""
        train, _ = blobs(seed=4)
        params = train_source(train, epochs=epochs, lr=0.05, seed=5, batch_size=batch_size,
                              hidden_dim=8)
        expected = model.init_params(model.Layout(2, 8, 2), np.random.default_rng([5, 0]))
        shuffle_rng = np.random.default_rng([5, 1])
        for _ in range(epochs):
            order = shuffle_rng.permutation(train.n_samples)
            for start in range(0, train.n_samples, batch_size):
                idx = order[start : start + batch_size]
                model.sgd_step(expected, train.features[idx], train.labels[idx], 0.05)
        assert params.flat.tobytes() == expected.flat.tobytes()

    def test_empty_dataset_rejected(self):
        empty = LabeledDataset(
            ids=np.array([], dtype=int),
            features=np.zeros((0, 2)),
            labels=np.array([], dtype=int),
        )
        with pytest.raises(InvalidArgumentError):
            train_source(empty, epochs=1, lr=0.05, seed=0)

    @pytest.mark.parametrize("schedule, message", [
        (dict(epochs=-1), "epochs must be >= 0"),
        (dict(epochs=1, batch_size=0), "batch_size must be >= 1"),
    ])
    def test_bad_schedule_rejected(self, schedule, message):
        source, _ = blobs(n=4)
        with pytest.raises(InvalidArgumentError, match=message):
            train_source(source, lr=0.05, seed=0, **schedule)


class TestPredictionExport:
    def test_zero_weight_model_uniform_and_tiebreak(self, tmp_path):
        _, target = blobs(seed=3, n=10)
        params = model.init_params(model.Layout(2, 0, 3), np.random.default_rng(0))
        for a in params.arrays():
            a[:] = 0.0
        preds = export_predictions(params, target, tmp_path / "p.csv")
        assert np.all(preds.yhat == 0)
        np.testing.assert_allclose(preds.probs, 1.0 / 3.0)

    def test_one_record_per_sample_unique_ids(self, tmp_path):
        _, target = blobs(seed=4, n=25)
        params = train_source(target, epochs=1, lr=0.05, seed=0)
        preds = export_predictions(params, target, tmp_path / "p.csv")
        assert preds.ids.shape[0] == target.n_samples
        assert len(np.unique(preds.ids)) == target.n_samples

    def test_round_trip_bit_equal_at_printed_precision(self, tmp_path):
        _, target = blobs(seed=5, n=30)
        params = train_source(target, epochs=2, lr=0.05, seed=1)
        path = tmp_path / "p.csv"
        export_predictions(params, target, path)
        loaded = read_predictions(path)
        write_predictions(loaded, tmp_path / "p2.csv")
        assert path.read_bytes() == (tmp_path / "p2.csv").read_bytes()

    @pytest.mark.parametrize("hard_only, body", [
        (False, b"4,1,-0,1\r\n0,1,0.333333333,0.666666667\r\n7,0,1,1e-300\r\n"),
        (True, b"4,1,0.05,0.95\r\n0,1,0.05,0.95\r\n7,0,0.95,0.05\r\n"),
    ], ids=["soft", "hard-only"])
    def test_bytes_are_pinned(self, tmp_path, hard_only, body):
        """CRLF line ends and ``%.9g`` cells, which a write-read-write round trip cannot see."""
        probs = [[-0.0, 1.0], [1 / 3, 2 / 3], [1.0, 1e-300]]
        preds = PredictionSet(ids=[4, 0, 7], yhat=[1, 1, 0], probs=probs)
        write_predictions(smooth_hard_labels(preds) if hard_only else preds, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == b"id,yhat,p0,p1\r\n" + body

    def test_ground_truth_never_written(self, tmp_path):
        _, target = blobs(seed=6, n=10)
        params = train_source(target, epochs=1, lr=0.05, seed=0)
        export_predictions(params, target, tmp_path / "p.csv")
        header = (tmp_path / "p.csv").read_text().splitlines()[0]
        assert header == "id,yhat,p0,p1"
        assert "label" not in header

    def test_yhat_is_argmax_for_every_record(self, tmp_path):
        _, target = blobs(seed=7, n=40)
        params = train_source(target, epochs=3, lr=0.05, seed=2)
        preds = export_predictions(params, target, tmp_path / "p.csv")
        np.testing.assert_array_equal(preds.yhat, preds.probs.argmax(axis=1))
        loaded = read_predictions(tmp_path / "p.csv")
        np.testing.assert_array_equal(loaded.yhat, preds.yhat)

    def test_hard_only_mode_smooths_one_hots(self, tmp_path):
        _, target = blobs(seed=8, n=10)
        params = train_source(target, epochs=2, lr=0.05, seed=3)
        soft = predict(params, target)
        hard = export_predictions(params, target, tmp_path / "p.csv", hard_only=True)
        np.testing.assert_array_equal(hard.yhat, soft.yhat)
        c = hard.probs.shape[1]
        eps = blackbox.HARD_LABEL_SMOOTHING
        expected = np.full_like(hard.probs, eps / c)
        expected[np.arange(len(hard.yhat)), hard.yhat] += 1 - eps
        np.testing.assert_allclose(hard.probs, expected, atol=1e-12)

    def test_smoothing_preserves_argmax(self):
        preds = PredictionSet(
            ids=np.arange(3),
            yhat=np.array([2, 0, 1]),
            probs=np.eye(3)[[2, 0, 1]],
        )
        smoothed = smooth_hard_labels(preds)
        np.testing.assert_array_equal(smoothed.probs.argmax(axis=1), preds.yhat)


class TestReadPredictionsValidation:
    def test_inconsistent_yhat_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,yhat,p0,p1\n0,0,0.1,0.9\n")
        with pytest.raises(DataError, match="line 2"):
            read_predictions(path)

    def test_invalid_probabilities_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,yhat,p0,p1\n0,0,0.9,0.9\n")
        with pytest.raises(DataError, match="line 2"):
            read_predictions(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,yhat,p0,p1\n0,0,0.6,0.4\n0,1,0.4,0.6\n")
        with pytest.raises(DataError, match="line 3"):
            read_predictions(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,label,p0,p1\n")
        with pytest.raises(DataError, match="line 1"):
            read_predictions(path)


class TestBlackBoxBoundary:
    def test_adaptation_module_has_no_source_code_path(self):
        # The adaptation loop consumes only {target features, predictions};
        # its module must not reference source training or checkpoint loading.
        source = inspect.getsource(adapt)
        assert "train_source" not in source
        assert "load_params" not in source

    def test_adapt_cli_handler_takes_no_source_argument(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["adapt", "target.csv", "preds.csv", "--out", "trace.csv"]
        )
        assert not hasattr(args, "source")
