"""Tests for synthetic benchmark generation and dataset file I/O."""

import dataclasses
import io
import locale
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bimem import Scenario, blackbox, data, metrics
from bimem.adapt import TRACE_HEADER, RunTrace, TraceRow
from bimem.data import (FLOAT_FORMAT, LabeledDataset, gen_shifted_gaussians, read_dataset,
                        write_dataset)
from bimem.errors import DataError, InvalidArgumentError

NON_FINITE = [np.nan, np.inf, -np.inf]


def default_benchmark(seed):
    return Scenario(seed=seed).generate()


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

    def test_default_benchmark_initial_accuracy_band(self, benchmark_pipelines):
        # Regression band: the source model's target accuracy must leave a
        # meaningful amount of label noise for adaptation to correct.
        for seed, (target, preds) in benchmark_pipelines.items():
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
        with pytest.raises(InvalidArgumentError, match="non-finite feature value in sample id 5"):
            write_dataset(LabeledDataset([3, 5], [[0.5, 1.0], [1.0, bad]], [0, 1]),
                          tmp_path / "ds.csv")
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


# Per record: a second row that breaks one of the record's rules after the
# valid row of ``TABLES``, and the message start it must raise.
RECORD_FAULTS = {
    "dataset": {
        "repeated-id": ("0,0.5,1.5,0", "id 0 is repeated"),
        "nan-feature": ("1,nan,1.5,0", "non-finite feature value"),
        "inf-feature": ("1,0.5,-inf,0", "non-finite feature value"),
        "negative-label": ("1,0.5,1.5,-1", "negative label -1"),
    },
    "predictions": {
        "repeated-id": ("0,0,0.75,0.25", "id 0 is repeated"),
        "nan": ("1,0,nan,0.25", "probabilities contains non-finite"),
        "inf": ("1,0,inf,0.25", "probabilities contains non-finite"),
        "yhat-high": ("1,2,0.25,0.75", "label 2 out of range"),
        "yhat-negative": ("1,-1,0.25,0.75", "label -1 out of range"),
        "negative-probability": ("1,1,-0.25,1.25", "probabilities has negative entries"),
        "sums-to-half": ("1,1,0.25,0.25", "probabilities sums to 0.5,"),
        "not-an-argmax": ("1,0,0.25,0.75", "stored label 0 is not an argmax"),
    },
    "trace": {
        "accuracy-above-one": ("1,0.5,0.5,0.5,1.5,1.0", "pl_acc_denoised 1.5 is not an accuracy"),
        "repeated-iteration": ("0,0.5,0.5,0.5,0.5,1.0", "iteration 0 does not follow 0"),
    },
}


def _table_faults():
    """A file for every fault ``read_table`` owns, per reader, and for every
    ``RECORD_FAULTS`` row; each with the line and message start it must report."""
    for name, (_, header, narrow, rest, key) in TABLES.items():
        first = f"{header}\n0,{rest}\n"
        width = header.count(",") + 1
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
            # np.loadtxt skips an empty line and a comment and strips a tab;
            # the reader refuses all three.
            "blank-line": (first + f"\n1,{rest}\n", 3, f"expected {width} columns, got 0"),
            "blank-last-line": (first + "\n", 3, f"expected {width} columns, got 0"),
            "comment-row": (first + f"#1,{rest}\n", 3, "unparseable value"),
            "tab-in-cell": (first + f"1,{rest[0]}\t{rest[1:]}\n", 3, "unparseable value"),
            # No writer quotes a cell or ends a line in a bare CR, so the reader takes neither.
            "quoted-number-cell": (first + '1,"{}",{}\n'.format(*rest.split(",", 1)), 3,
                                   "unparseable value"),
            "quoted-header": ('"{}",{}\n0,{}\n'.format(*header.split(",", 1), rest), 1,
                              "unexpected header"),
            "bare-cr-line-ends": (first.replace("\n", "\r"), 1, "unexpected header"),
            "long-quoted-cell": (first + '1,"{}",{}\n'.format("1" * 200_000,
                                                               rest.split(",", 1)[1]), 3,
                                 "unparseable value"),
        }
        for fault, case in faults.items():
            yield pytest.param(name, *case, id=f"{name}-{fault}")
    for name, faults in RECORD_FAULTS.items():
        header, first = TABLES[name][1], "0," + TABLES[name][3]
        for fault, (row, message) in faults.items():
            yield pytest.param(name, f"{header}\n{first}\n{row}\n", 3, message,
                               id=f"{name}-{fault}")


@pytest.mark.parametrize("reader, text, line, message", _table_faults())
def test_table_fault_names_its_line(tmp_path, reader, text, line, message):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^line {line}: {message}"):
        TABLES[reader][0](path)


def _record(name, rows):
    """The dataset, prediction set or trace of ``rows``, given as CSV text rows."""
    cells = [[float(cell) for cell in row.split(",")] for row in rows]
    if name == "dataset":
        return LabeledDataset([r[0] for r in cells], [r[1:-1] for r in cells],
                              [r[-1] for r in cells])
    if name == "trace":
        return RunTrace([TraceRow(int(r[0]), *r[1:]) for r in cells])
    return blackbox.PredictionSet([r[0] for r in cells], [r[1] for r in cells],
                                  [r[2:] for r in cells])


@pytest.mark.parametrize("name, fault", [
    pytest.param(name, fault, id=f"{name}-{fault}")
    for name, faults in RECORD_FAULTS.items() for fault in faults])
def test_record_fault_is_refused_in_memory(name, fault):
    """The fault a reader names by its line is refused when the record is
    built, with the message start it has in the file and the row's index. A
    trace row's accuracy is refused by the ``TraceRow`` alone, which has no
    index: its reader names the line it parses."""
    row, message = RECORD_FAULTS[name][fault]
    with pytest.raises(InvalidArgumentError, match=f"^{message}") as caught:
        _record(name, ["0," + TABLES[name][3], row])
    assert caught.value.index == (None if fault.startswith("accuracy") else 1)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: blackbox.PredictionSet([0], [0], [1.0]), "inconsistent prediction",
                 id="predictions-1d-probabilities"),
    pytest.param(lambda: blackbox.PredictionSet([], [], np.zeros((0, 0))), "at least one",
                 id="predictions-no-category"),
    pytest.param(lambda: LabeledDataset([0, 1], np.zeros((2, 0)), [0, 1]), "at least one",
                 id="dataset-no-feature-column"),
    pytest.param(lambda: LabeledDataset([0, 1], [0.5, 1.5], [0, 1]), "inconsistent dataset",
                 id="dataset-1d-features"),
])
def test_record_of_the_wrong_shape_is_refused(build, message):
    """A shape no header can describe: its file would be refused at line 1."""
    with pytest.raises(InvalidArgumentError, match=message) as caught:
        build()
    assert caught.value.index is None


def _outcome(read, path):
    """What a reader gives for ``path``: every array of the record as its dtype,
    shape, layout and bytes, or the error's type and message."""
    try:
        record = read(path)
    except DataError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(record, RunTrace):
        return record.rows
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in (getattr(record, f.name) for f in dataclasses.fields(record))]


def _row_pass_outcome(read, path):
    """The outcome with every body sent to the row pass, the reader's only
    pass before number tables were parsed by ``np.loadtxt``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "plain_line_count", lambda body: 0)
        return _outcome(read, path)


@pytest.mark.parametrize("name", ["dataset", "predictions"])
def test_every_column_is_an_array_of_its_own(tmp_path, name):
    """C-contiguous, as the readers built each column from a list before the
    numpy pass: a strided view of the parsed table could sum in another order."""
    path = tmp_path / "table.csv"
    path.write_text(f"{TABLES[name][1]}\n0,{TABLES[name][3]}\n1,{TABLES[name][3]}\n")
    record = TABLES[name][0](path)
    for f in dataclasses.fields(record):
        column = getattr(record, f.name)
        assert column.flags.c_contiguous and column.flags.owndata, f.name


@pytest.mark.parametrize("name", ["dataset", "predictions"])
def test_a_read_holds_a_few_copies_of_its_file(tmp_path, name):
    """A 1000-row, 20-class file reads with a ``tracemalloc`` peak under five
    times its size: the number-table pass copies the text only as lines."""
    _, target = gen_shifted_gaussians(20, 16, 50, 4.0, np.zeros(16), 0.0, 1.0, seed=0)
    path = tmp_path / "table.csv"
    if name == "dataset":
        write_dataset(target, path)
    else:
        probs = np.random.default_rng(0).dirichlet(np.ones(20), size=len(target.ids))
        blackbox.write_predictions(
            blackbox.PredictionSet(ids=target.ids, yhat=probs.argmax(axis=1), probs=probs), path)
    TABLES[name][0](path)  # any first-call set-up is not the read's
    tracemalloc.start()
    try:
        TABLES[name][0](path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * path.stat().st_size


@pytest.mark.parametrize("reader, text, line, message",
                         [case for case in _table_faults() if case.values[0] != "trace"])
@pytest.mark.filterwarnings("error::UserWarning")
def test_table_fault_matches_the_row_pass(tmp_path, reader, text, line, message):
    path = tmp_path / "table.csv"
    path.write_text(text)
    assert _outcome(TABLES[reader][0], path) == _row_pass_outcome(TABLES[reader][0], path)


# Cells that break a number cell's syntax, or that np.loadtxt might read
# otherwise than Python's int and float: quotes, comments, whitespace, float
# spellings in an integer cell and integers past int64.
ODD_CELLS = ["", "abc", "1 ", "\t1", "\x0b1", "1_0", "#1", '"0.5"', '"1"', "'1'", "1.0", "1e3",
             "+5", "007", "-0", "nan", "-inf", "1e400", "0x10", "\u0663", "9223372036854775807",
             "9223372036854775808", "-9223372036854775809", "\r"]


@st.composite
def number_tables(draw, name):
    """The text of a dataset or predictions CSV. Its rows are valid or break a
    record rule (a repeated id, a non-finite feature, a negative label, a row
    off the simplex or whose label is out of range or not an argmax); up to
    three faults then swap a cell for an odd one, drop a cell or put in an
    empty line. Lines end in LF or CRLF, the last one or not."""
    columns = draw(st.integers(1, 3))
    if name == "dataset":
        header = data.dataset_header(columns)
    else:
        header = blackbox.predictions_header(columns)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        key = str(draw(st.integers(0, 5)))
        if name == "dataset":
            style = draw(st.sampled_from([repr, FLOAT_FORMAT.__mod__]))
            values = draw(st.lists(st.floats(), min_size=columns, max_size=columns))
            rows.append([key, *map(style, values), str(draw(st.integers(-1, 3)))])
        else:
            weights = draw(st.lists(st.integers(0, 9), min_size=columns, max_size=columns))
            probs = [w / (sum(weights) or 1) for w in weights]
            yhat = draw(st.sampled_from([int(np.argmax(probs)), 0, columns]))
            rows.append([key, str(yhat), *(FLOAT_FORMAT % p for p in probs)])
    for _ in range(draw(st.integers(0, 3))):
        filled = [row for row in rows if row]
        fault = draw(st.sampled_from(["cell", "drop", "empty-line"] if filled else ["empty-line"]))
        if fault == "empty-line":
            rows.insert(draw(st.integers(0, len(rows))), [])
            continue
        row = draw(st.sampled_from(filled))
        k = draw(st.integers(0, len(row) - 1))
        if fault == "cell":
            row[k] = draw(st.sampled_from(ODD_CELLS))
        else:
            del row[k]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(",".join(row) for row in [header, *rows]) + draw(st.sampled_from([end, ""]))


@pytest.mark.parametrize("name", ["dataset", "predictions"])
@given(table=st.data())
@example(table=None)
@pytest.mark.filterwarnings("error::UserWarning")
def test_number_table_matches_the_row_pass(tmp_path_factory, name, table):
    """Each reader gives what its row pass alone gives: equal records, byte
    for byte, or the same error and message. The explicit example is a body
    of empty lines alone, where ``np.loadtxt`` would warn of no data."""
    if table is None:
        text = f"{TABLES[name][1]}\r\n\r\n\n"
    else:
        text = table.draw(number_tables(name))
    path = tmp_path_factory.getbasetemp() / f"differential-{name}.csv"
    path.write_text(text, newline="")
    read = TABLES[name][0]
    assert _outcome(read, path) == _row_pass_outcome(read, path)


@pytest.mark.parametrize("name, row", [
    ("dataset", "9223372036854775808,0.5,1.5,0"),
    ("dataset", "0,0.5,1.5,-9223372036854775809"),
    ("predictions", "99999999999999999999,0,0.75,0.25"),
    ("predictions", "0,9223372036854775808,0.75,0.25"),
])
def test_an_integer_cell_past_int64_overflows(tmp_path, name, row):
    """``np.loadtxt`` refuses the cell, and the row pass parses it as a Python
    int, which does not fit the int64 column: a ``DataError`` at its line, as
    for any other cell that is not a number of its column."""
    path = tmp_path / "table.csv"
    path.write_text(f"{TABLES[name][1]}\n0,{TABLES[name][3]}\n{row}\n")
    with pytest.raises(DataError, match="^line 3: unparseable value"):
        TABLES[name][0](path)
    assert _outcome(TABLES[name][0], path) == _row_pass_outcome(TABLES[name][0], path)


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("case", ["in-header", "past-8-kb", "after-a-short-row"])
def test_an_undecodable_byte_is_refused_at_its_line(tmp_path, name, case):
    """A byte the codec cannot decode is a ``DataError`` naming the file and
    its line, raised after the lines before it are read: a fault on an
    earlier line comes first, even past the 8 KB a text file decodes at once."""
    encoding = locale.getpreferredencoding(False)
    try:
        b"\xff".decode(encoding)
    except UnicodeDecodeError:
        pass
    else:
        pytest.skip(f"{encoding} decodes every byte")
    read, header, _, rest, _ = TABLES[name]
    lines = [header] + [f"{k},{rest}" for k in range(1000)]
    assert len("\n".join(lines[:900])) > 8192
    line, message = 901, f"byte 0xff of {re.escape(str(tmp_path))}.* is not {encoding} text"
    if case == "in-header":
        lines[0] += "\xff"
        line = 1
    elif case == "after-a-short-row":
        lines[2] = lines[2].rsplit(",", 1)[0]
        line, message = 3, "expected"
    text = "\n".join(lines[:900] + [lines[900] + "\xff"] + lines[901:]) + "\n"
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(DataError, match=f"^line {line}: {message}"):
        read(path)


# numpy's text parser is pinned as the BLAS kernels are in
# test_kernel_bitwise.py: a numpy build that parses a cell otherwise than
# Python's int and float fails here, not by changing a record.
def _loadtxt(cells, dtype):
    """``np.loadtxt``'s parse of one cell per line, with ``read_table``'s options."""
    return np.loadtxt(io.StringIO("\n".join(cells)), dtype=dtype, delimiter=",", comments=None,
                      quotechar=None, ndmin=1)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
FLOAT_SPELLINGS = ["nan", "-nan", "+nan", "NaN", "NAN", "inf", "-inf", "+inf", "Inf", "infinity",
                   "-Infinity", "INFINITY", "1e309", "-1e400", "1e-400", "2e-324", "3e-324",
                   "+0", "-0", "-0.0", ".5", "5.", "1E5", "+1.5e-3", "007.50", "1e+05"]


@given(st.lists(st.floats(), min_size=1, max_size=20),
       st.sampled_from([repr, FLOAT_FORMAT.__mod__]))
@example(EDGE_FLOATS, repr)
@example(EDGE_FLOATS, FLOAT_FORMAT.__mod__)
def test_numpy_float_parse_is_python_float(values, style):
    cells = [style(value) for value in values]
    assert _loadtxt(cells, np.float64).tobytes() == np.array([float(c) for c in cells]).tobytes()


def test_numpy_float_spellings_parse_as_python_float():
    parsed = _loadtxt(FLOAT_SPELLINGS, np.float64)
    assert parsed.tobytes() == np.array([float(c) for c in FLOAT_SPELLINGS]).tobytes()


@given(st.lists(st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 3),
                          st.integers(0, 2**63 - 1)), min_size=1, max_size=20))
@example([("+", 0, 5), ("", 2, 7), ("-", 0, 0), ("+", 0, 0), ("-", 0, 2**63)])
def test_numpy_int_parse_is_python_int(parts):
    cells = [sign + "0" * zeros + str(magnitude) for sign, zeros, magnitude in parts]
    assert _loadtxt(cells, np.int64).tolist() == [int(cell) for cell in cells]


@pytest.mark.parametrize("cell", ["9223372036854775808", "-9223372036854775809",
                                  "99999999999999999999", "1.0", "1e3", "0x10", "-", "+-1"])
def test_numpy_refuses_what_is_not_an_int64_cell(cell):
    """Past int64, the row pass words the outcome; a numpy that parsed ``1.0``
    as an integer would accept a cell Python's ``int`` refuses."""
    with pytest.raises(ValueError):
        _loadtxt([cell], np.int64)
