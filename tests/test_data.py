"""Tests for synthetic benchmark generation and dataset file I/O."""

import numpy as np
import pytest

from bimem import blackbox, metrics
from bimem.adapt import TRACE_HEADER, RunTrace
from bimem.data import LabeledDataset, gen_shifted_gaussians, read_dataset, write_dataset
from bimem.errors import DataError, InvalidArgumentError

DEFAULT_SHIFT = np.array([1.5, 0, 0, 0, 0, 0, 0, 0])
NON_FINITE = [np.nan, np.inf, -np.inf]


def default_benchmark(seed):
    return gen_shifted_gaussians(5, 8, 100, 4.0, DEFAULT_SHIFT, 25.0, 1.0, seed)


class TestGeneration:
    def test_null_shift_gives_identical_class_means(self):
        source, target = gen_shifted_gaussians(
            3, 4, 400, 4.0, np.zeros(4), 0.0, 1.0, seed=0
        )
        for c in range(3):
            sm = source.features[source.labels == c].mean(axis=0)
            tm = target.features[target.labels == c].mean(axis=0)
            np.testing.assert_allclose(sm, tm, atol=0.25)

    def test_exact_balanced_counts(self):
        source, target = gen_shifted_gaussians(3, 2, 100, 4.0, np.zeros(2), 10.0, 1.0, 1)
        for ds in (source, target):
            assert ds.n_samples == 300
            assert np.bincount(ds.labels, minlength=3).tolist() == [100, 100, 100]

    def test_deterministic_per_seed_and_seeds_differ(self):
        a1, b1 = default_benchmark(3)
        a2, b2 = default_benchmark(3)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.labels, b2.labels)
        a3, _ = default_benchmark(4)
        assert not np.array_equal(a1.features, a3.features)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gen_shifted_gaussians(1, 2, 10, 4.0, np.zeros(2), 0.0, 1.0, 0)
        with pytest.raises(InvalidArgumentError):
            gen_shifted_gaussians(2, 1, 10, 4.0, np.zeros(1), 0.0, 1.0, 0)
        with pytest.raises(InvalidArgumentError):
            gen_shifted_gaussians(2, 2, 0, 4.0, np.zeros(2), 0.0, 1.0, 0)
        with pytest.raises(InvalidArgumentError):
            gen_shifted_gaussians(2, 2, 10, 4.0, np.zeros(3), 0.0, 1.0, 0)
        with pytest.raises(InvalidArgumentError):
            gen_shifted_gaussians(2, 2, 10, 4.0, np.zeros(2), 0.0, 0.0, 0)

    @pytest.mark.parametrize(
        "argument, bad",
        [pytest.param("target_shift", bad, id=str(bad)) for bad in NON_FINITE]
        + [pytest.param(argument, bad, id=f"{argument}-{bad}") for bad in NON_FINITE
           for argument in ("class_separation", "target_rotation_deg", "noise_sigma")],
    )
    def test_non_finite_shift_rejected(self, argument, bad):
        """A non-finite shift, separation, rotation or noise scale raises,
        naming the argument; each would make every generated feature non-finite."""
        args = dict(n_categories=2, feature_dim=2, n_per_class=10, class_separation=4.0,
                    target_shift=np.zeros(2), target_rotation_deg=0.0, noise_sigma=1.0, seed=0)
        args[argument] = np.array([bad, 0.0]) if argument == "target_shift" else bad
        with pytest.raises(InvalidArgumentError, match=argument):
            gen_shifted_gaussians(**args)

    def test_default_benchmark_initial_accuracy_band(self):
        # Regression band: the source model's target accuracy must leave a
        # meaningful amount of label noise for adaptation to correct.
        for seed in range(5):
            source, target = default_benchmark(seed)
            params = blackbox.train_source(source, epochs=50, lr=0.05, seed=seed)
            preds = blackbox.predict(params, target)
            acc = metrics.accuracy(preds.yhat, target.labels)
            assert 0.55 <= acc <= 0.85, f"seed {seed}: initial accuracy {acc}"


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        source, _ = gen_shifted_gaussians(3, 2, 20, 4.0, np.zeros(2), 0.0, 1.0, 5)
        path = tmp_path / "ds.csv"
        write_dataset(source, path)
        loaded = read_dataset(path)
        np.testing.assert_array_equal(loaded.ids, source.ids)
        np.testing.assert_array_equal(loaded.labels, source.labels)
        # 9 significant digits round-trip: re-writing is byte-stable
        write_dataset(loaded, tmp_path / "ds2.csv")
        assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ds2.csv").read_bytes()

    def test_bytes_are_pinned(self, tmp_path):
        """CRLF line ends and ``%.9g`` cells, which a write-read-write round trip cannot see."""
        features = [[-0.0, 1 / 3], [1e-300, 123456789012.0], [2.5, -1.0]]
        write_dataset(LabeledDataset([4, 0, 7], features, [1, 0, 2]), tmp_path / "ds.csv")
        assert (tmp_path / "ds.csv").read_bytes() == (
            b"id,f0,f1,label\r\n4,-0,0.333333333,1\r\n0,1e-300,1.23456789e+11,0\r\n"
            b"7,2.5,-1,2\r\n")

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_feature_rejected_before_the_file_is_opened(self, tmp_path, bad):
        dataset = LabeledDataset([3, 5], [[0.5, 1.0], [1.0, bad]], [0, 1])
        with pytest.raises(InvalidArgumentError, match="non-finite feature value in sample id 5"):
            write_dataset(dataset, tmp_path / "ds.csv")
        assert not (tmp_path / "ds.csv").exists()

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,f0,f1,label\n")
        ds = read_dataset(path)
        assert ds.n_samples == 0
        assert ds.feature_dim == 2

    def test_missing_column_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0,f1,label\n0,1.0,2.0,0\n1,3.0,1\n")
        with pytest.raises(DataError, match="line 3"):
            read_dataset(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,f0,f1,label\n0,1.0,2.0,0\n0,3.0,1.0,1\n")
        with pytest.raises(DataError, match="line 3"):
            read_dataset(path)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("id,f0,f1,label\n0,1.0,2.0,7\n")
        with pytest.raises(DataError, match="line 2"):
            read_dataset(path, n_categories=3)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,x0,x1,label\n")
        with pytest.raises(DataError, match="line 1"):
            read_dataset(path)

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "val.csv"
        path.write_text("id,f0,label\n0,abc,0\n")
        with pytest.raises(DataError, match="line 2"):
            read_dataset(path)


# Per reader: the header, a width-2 header, a valid row after its integer
# key, and the key's name in the repeated-key message.
TABLES = {
    "dataset": (read_dataset, "id,f0,f1,label", "id,label", "0.5,1.5,0", "id"),
    "predictions": (blackbox.read_predictions, "id,yhat,p0,p1", "id,yhat", "0,0.75,0.25", "id"),
    "trace": (RunTrace.from_csv, TRACE_HEADER, "iter,acc_all", "0.5,0.5,0.5,0.5,1.0",
              "iteration"),
}


def _table_faults():
    """A file for every fault ``read_table`` owns, per reader, and the
    predictions faults; each with the line and message start it must report."""
    for name, (_, header, narrow, rest, key) in TABLES.items():
        first = f"{header}\n0,{rest}\n"
        faults = {
            "empty": ("", 1, "missing header"),
            "bad-header": (f"x{first}", 1, "unexpected header"),
            "width-2-header": (f"{narrow}\n0,0\n", 1, "unexpected header"),
            "short-row": (first + "1," + rest.rsplit(",", 1)[0] + "\n", 3, "expected"),
            "unparseable": (first + "1,abc," + rest.split(",", 1)[1] + "\n", 3,
                            "unparseable value"),
            "repeated-key": (first + f"1,{rest}\n0,{rest}\n", 4, f"{key} 0"),
            # Python's int and float accept these; int("1_0") is 10, so the 10
            # on line 4 would look repeated.
            "underscore-in-key": (first + f"1_0,{rest}\n10,{rest}\n", 3, "unparseable value"),
            "spaces-around-cell": (first + f"1, {rest} \n", 3, "unparseable value"),
            # A quoted newline would make every later line number one too low.
            "newline-in-quoted-cell": (first + '1,"{}\n",{}\n2,{}\n'.format(
                *rest.split(",", 1), rest), 3, "unparseable value"),
        }
        for fault, case in faults.items():
            yield pytest.param(name, *case, id=f"{name}-{fault}")
    first = "id,yhat,p0,p1\n0,0,0.75,0.25\n"
    for fault, row, message in [
        ("nan", "1,0,nan,0.25", "probabilities contains non-finite"),
        ("inf", "1,0,inf,0.25", "probabilities contains non-finite"),
        ("yhat-high", "1,2,0.25,0.75", "label 2 out of range"),
        ("yhat-negative", "1,-1,0.25,0.75", "label -1 out of range"),
    ]:
        yield pytest.param("predictions", f"{first}{row}\n", 3, message, id=f"predictions-{fault}")


@pytest.mark.parametrize("reader, text, line, message", _table_faults())
def test_table_fault_names_its_line(tmp_path, reader, text, line, message):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^line {line}: {message}"):
        TABLES[reader][0](path)
