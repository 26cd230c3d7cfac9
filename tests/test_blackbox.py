"""Tests for source training and the prediction export boundary."""

import inspect

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bimem import adapt, blackbox, cli, config, metrics, model, numerics
from bimem.blackbox import (
    PredictionSet,
    Scenario,
    export_predictions,
    predict,
    read_predictions,
    smooth_hard_labels,
    train_source,
    write_predictions,
)
from bimem.data import FLOAT_FORMAT, LabeledDataset, gen_shifted_gaussians
from bimem.errors import DataError, InvalidArgumentError


def blobs(seed=0, n=80):
    """Two linearly separable Gaussian blobs (means 8 apart, sigma 1)."""
    return Scenario(n_categories=2, dim=2, n_per_class=n, target_shift=(0.0, 0.0),
                    target_rotation_deg=0.0, seed=seed).generate()


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


class TestScenario:
    def test_defaults_are_the_config_defaults(self):
        assert config.scenario(config.resolve()) == Scenario()
        assert Scenario().target_shift == (1.5,) + (0.0,) * 7
        assert Scenario(dim=2).target_shift == (1.5, 0.0)

    def test_shift_is_kept_as_a_tuple_of_floats(self):
        """So a built record is hashable and equal to one given another spelling."""
        spelled = Scenario(target_shift=np.array([1.5, 0, 0, 0, 0, 0, 0, 0]))
        assert spelled == Scenario(target_shift=[1.5] + [0] * 7) == Scenario()
        assert hash(spelled) == hash(Scenario())
        assert all(type(v) is float for v in spelled.target_shift)

    def test_stages_make_the_direct_calls(self):
        scenario = Scenario(n_categories=3, dim=4, n_per_class=10, target_shift=(0.5, 1, 0, 0),
                            source_epochs=2, source_lr=0.1, source_batch_size=8,
                            source_hidden_dim=4, seed=6)
        source, target = scenario.generate()
        direct = gen_shifted_gaussians(3, 4, 10, 4.0, np.array([0.5, 1, 0, 0]), 25.0, 1.0, 6)
        for got, want in zip((source, target), direct):
            for name in ("ids", "features", "labels"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        want = train_source(direct[0], epochs=2, lr=0.1, seed=6, batch_size=8, hidden_dim=4,
                            n_categories=3)
        assert [a.tobytes() for a in scenario.train(source).arrays()] == [
            a.tobytes() for a in want.arrays()]

    @pytest.mark.parametrize("bad, message", [
        (dict(n_categories=1), "n_categories must be >= 2, got 1"),
        (dict(dim=1), "dim must be >= 2, got 1"),
        (dict(dim=-1), "dim must be >= 2, got -1"),
        (dict(n_per_class=0), "n_per_class must be >= 1"),
        (dict(noise_sigma=0.0), "noise_sigma must be > 0"),
        (dict(noise_sigma=np.inf), "noise_sigma must be finite"),
        (dict(class_separation=np.nan), "class_separation must be finite"),
        (dict(target_rotation_deg=-np.inf), "target_rotation_deg must be finite"),
        (dict(target_shift=(1.0, 0.0)), r"target_shift must have dimension 8, got shape \(2,\)"),
        (dict(target_shift=(np.nan,) * 8), "target_shift must be finite"),
        (dict(source_epochs=-1), "source_epochs must be >= 0"),
        (dict(source_lr=np.nan), "source_lr must be finite"),
        (dict(source_batch_size=0), "source_batch_size must be >= 1"),
        (dict(source_hidden_dim=-1), "invalid layout"),
        (dict(seed=-1), "seed must be >= 0"),
    ])
    def test_a_bad_value_names_its_field(self, bad, message):
        """The generator's and ``train_source``'s own rules, under the field's name."""
        with pytest.raises(InvalidArgumentError, match=f"^{message}"):
            Scenario(**bad)

    @pytest.mark.parametrize("name, value, what", [
        *((name, value, "an integer") for name in ("n_categories", "dim", "n_per_class",
                                                   "source_epochs", "source_batch_size",
                                                   "source_hidden_dim", "seed")
          for value in (8.0, True)),
        *((name, value, "a number") for name in ("class_separation", "target_rotation_deg",
                                                 "noise_sigma", "source_lr")
          for value in (False, "1.0")),
        ("target_shift", "1.5", "a list of numbers"),
        ("target_shift", (True,) * 8, "a list of numbers"),
        ("target_shift", np.zeros((2, 4)), "a list of numbers"),
        # Each once a bare OverflowError: float() cannot hold the integer.
        pytest.param("class_separation", 10**400, "a number", id="class_separation-past-float"),
        pytest.param("target_shift", (10**400,) + (0.0,) * 7, "a list of numbers",
                     id="target_shift-past-float"),
    ])
    def test_a_value_of_another_type_names_its_field(self, name, value, what):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be {what}, got "):
            Scenario(**{name: value})

    def test_numpy_numbers_are_taken(self):
        assert Scenario(n_categories=np.int64(5), class_separation=np.float32(4.0),
                        source_lr=np.float64(0.05)) == Scenario()


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


@st.composite
def rows_at_a_bound(draw):
    """Prediction rows of one width, each within 1e-12 of a rule's bound: a
    sum of 1 +- ``PROB_SUM_TOL``, or a label ``DEFAULT_TOL`` below the largest
    probability. Printing at 9 significant digits can move either across."""
    c = draw(st.integers(2, 20))
    rows, labels = [], []
    for _ in range(draw(st.integers(1, 8))):
        off = draw(st.floats(-1e-12, 1e-12))
        if draw(st.booleans()):
            w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=c, max_size=c)))
            sign = draw(st.sampled_from([-1.0, 1.0]))
            row = w / w.sum() * (1.0 + sign * (numerics.PROB_SUM_TOL + off))
            label = int(row.argmax())
        else:
            # Label 0 holds a, and a + gap is the largest probability.
            gap = numerics.DEFAULT_TOL + off
            if c == 2:
                row = np.array([(1.0 - gap) / 2, (1.0 + gap) / 2])
            else:
                a = draw(st.floats(1 / 3, 0.49))
                w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=c - 2,
                                           max_size=c - 2)))
                row = np.array([a, a + gap, *(w / w.sum() * (1.0 - 2 * a - gap))])
            label = 0
        order = draw(st.permutations(range(c)))
        rows.append(row[order])
        labels.append(order.index(label))
    return np.array(rows), np.array(labels)


class TestPrintedRows:
    @given(table=rows_at_a_bound())
    @example(table=(np.array([[0.6000005004, 0.40000049950000005]]), np.array([0])))
    @example(table=(np.array([[0.09999999984, 0.10000000083] + [0.079999999933] * 10]),
                    np.array([0])))
    def test_a_set_that_builds_reads_back(self, tmp_path_factory, table):
        """Every set ``PredictionSet`` builds is read back from its file, with
        the values printed. The examples are the two rows of
        ``test_a_row_that_breaks_a_rule_once_printed_is_refused``."""
        probs, yhat = table
        try:
            preds = PredictionSet(ids=np.arange(len(yhat)), yhat=yhat, probs=probs)
        except InvalidArgumentError:
            return
        path = tmp_path_factory.getbasetemp() / "near-bound.csv"
        write_predictions(preds, path)
        loaded = read_predictions(path)
        expected = [[float(FLOAT_FORMAT % p) for p in row] for row in probs.tolist()]
        assert loaded.probs.tobytes() == np.array(expected).tobytes()
        assert loaded.yhat.tolist() == yhat.tolist()

    @pytest.mark.parametrize("row, message", [
        ([0.6000005004, 0.40000049950000005],
         "probabilities sums to 1.000001000000000.*, expected 1 within 1e-06 once printed"),
        # Printing rounds label 0 down to 0.0999999998 and the largest up to 0.100000001.
        ([0.09999999984, 0.10000000083] + [0.079999999933] * 10,
         "stored label 0 is not an argmax of the probabilities once printed"),
    ], ids=["sum", "label"])
    def test_a_row_that_breaks_a_rule_once_printed_is_refused(self, row, message):
        """The row keeps both rules as built, and its set was built before
        printed rows were checked, but its file was refused."""
        with pytest.raises(InvalidArgumentError, match=f"^{message}") as caught:
            PredictionSet(ids=[0, 1], yhat=[1, 0], probs=[np.eye(len(row))[1], row])
        assert caught.value.index == 1


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
