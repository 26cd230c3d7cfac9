"""Tests for accuracy metrics, degradation statistics, and report assembly."""

import numpy as np
import pytest

from bimem import metrics, model
from bimem.adapt import RunTrace, TraceRow, _TraceEvaluator
from bimem.data import LabeledDataset
from bimem.errors import DataError, InvalidArgumentError


def trace_from(acc_values, pl_blackbox=0.5, correct=None, incorrect=None):
    rows = []
    for i, acc in enumerate(acc_values):
        c = acc if correct is None else correct[i]
        inc = acc if incorrect is None else incorrect[i]
        rows.append(
            TraceRow(
                iteration=i * 10,
                acc_all=acc,
                acc_init_correct=c,
                acc_init_incorrect=inc,
                pl_acc_denoised=acc,
                pl_acc_blackbox=pl_blackbox,
            )
        )
    return RunTrace(rows)


class TestAccuracy:
    def test_identical(self):
        assert metrics.accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_disjoint(self):
        assert metrics.accuracy(np.array([1, 2]), np.array([2, 1])) == 0.0

    def test_half(self):
        assert metrics.accuracy(np.array([1, 2]), np.array([1, 1])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            metrics.accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(InvalidArgumentError):
            metrics.accuracy(np.array([]), np.array([]))


def evaluator_row(pred, truth, yhat):
    """``_TraceEvaluator.row`` for a student that predicts ``pred``.

    The student is linear with identity weights on one-hot features of
    ``pred``. The black-box labels ``yhat`` split the samples into the
    initially correct and incorrect subsets.
    """
    pred, truth, yhat = (np.asarray(v) for v in (pred, truth, yhat))
    c = int(max(pred.max(), truth.max(), yhat.max())) + 1
    ids = np.arange(5, 5 + len(pred))
    target = LabeledDataset(ids, np.eye(c)[pred], truth)
    student = model.init_params(model.Layout(c, 0, c), np.random.default_rng(0))
    student.out_w[:] = np.eye(c)
    student.out_b[:] = 0.0
    return _TraceEvaluator(target, yhat).row(0, student, yhat)


class TestSubsetAccuracy:
    def test_full_subset_equals_overall(self):
        pred, truth = [0, 1, 0, 1], [0, 1, 1, 1]
        row = evaluator_row(pred, truth, yhat=truth)
        assert row.acc_init_correct == row.acc_all == metrics.accuracy(
            np.array(pred), np.array(truth)
        )

    def test_singleton(self):
        # Sample 0 is initially correct and predicted right, sample 1 the opposite.
        row = evaluator_row([0, 1], [0, 0], yhat=[0, 1])
        assert row.acc_init_correct == 1.0
        assert row.acc_init_incorrect == 0.0

    def test_empty_subset_is_none_not_exception(self):
        assert evaluator_row([0], [0], yhat=[0]).acc_init_incorrect is None
        assert evaluator_row([0], [0], yhat=[1]).acc_init_correct is None

    def test_partition_identity(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, size=40)
        truth = rng.integers(0, 3, size=40)
        # The first 15 black-box labels are right, the other 25 wrong.
        yhat = np.where(np.arange(40) < 15, truth, (truth + 1) % 3)
        row = evaluator_row(pred, truth, yhat)
        combined = (15 * row.acc_init_correct + 25 * row.acc_init_incorrect) / 40
        assert combined == pytest.approx(row.acc_all, abs=1e-9)


class TestPeakFinalDrop:
    def test_monotone_increase_is_zero(self):
        assert metrics.peak_final_drop(trace_from([0.1, 0.2, 0.3]), "acc_all") == pytest.approx(0.0)

    def test_hand_values(self):
        assert metrics.peak_final_drop(trace_from([0.3, 0.6, 0.4]), "acc_all") == pytest.approx(0.2)

    def test_constant_is_zero(self):
        assert metrics.peak_final_drop(trace_from([0.5, 0.5]), "acc_all") == pytest.approx(0.0)

    def test_unknown_column_rejected(self):
        with pytest.raises(InvalidArgumentError):
            metrics.peak_final_drop(trace_from([0.5]), "nope")

    def test_none_entries_skipped(self):
        trace = trace_from([0.2, 0.6, 0.4], incorrect=[0.1, None, 0.05])
        assert metrics.peak_final_drop(trace, "acc_init_incorrect") == pytest.approx(0.05)

    def test_no_defined_entry_is_none(self):
        trace = trace_from([0.2, 0.6], incorrect=[None, None])
        assert metrics.peak_final_drop(trace, "acc_init_incorrect") is None


class TestPartitionIdentityValidation:
    def test_consistent_trace_passes(self):
        # acc_all = w*acc_c + (1-w)*acc_i with w = pl_acc_blackbox
        rows = [
            TraceRow(0, 0.5 * 0.8 + 0.5 * 0.2, 0.8, 0.2, 0.5, 0.5),
            TraceRow(10, 0.5 * 0.9 + 0.5 * 0.3, 0.9, 0.3, 0.6, 0.5),
        ]
        metrics.validate_partition_identity(RunTrace(rows))

    def test_violation_raises_data_error(self):
        rows = [TraceRow(0, 0.9, 0.8, 0.2, 0.5, 0.5)]
        with pytest.raises(DataError):
            metrics.validate_partition_identity(RunTrace(rows))

    @pytest.mark.parametrize("row", [
        (0, float("nan"), 0.8, 0.2, 0.5, 0.5),
        (0, 0.5, float("nan"), 0.2, 0.5, 0.5),
        (0, 0.5, 0.8, 0.2, 0.5, float("nan")),
    ])
    def test_nan_term_is_refused_when_built(self, row):
        """A NaN term never reaches the check: its row is refused when built."""
        with pytest.raises(InvalidArgumentError, match="nan is not an accuracy"):
            TraceRow(*row)

    def test_rows_with_undefined_subsets_skipped(self):
        rows = [TraceRow(0, 0.9, None, None, 0.5, 0.5)]
        metrics.validate_partition_identity(RunTrace(rows))


class TestSummary:
    def test_one_trace_one_row(self, tmp_path):
        trace = trace_from(
            [0.4, 0.7, 0.6],
            pl_blackbox=0.5,
            correct=[0.5, 0.8, 0.7],
            incorrect=[0.3, 0.6, 0.5],
        )
        rows = metrics.summary_rows([("bimem", 0, trace)])
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "bimem"
        assert row["final_acc"] == pytest.approx(0.6)
        assert row["peak_acc"] == pytest.approx(0.7)
        assert row["drop_incorrect_subset"] == pytest.approx(0.1)
        metrics.write_summary(rows, tmp_path / "summary.csv")
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "method,seed,final_acc,peak_acc,drop_incorrect_subset"
        assert len(lines) == 2

    def test_undefined_drop_is_empty_cell(self, tmp_path):
        # A black box that is never wrong leaves the initially-incorrect subset empty.
        trace = trace_from([0.4, 0.9], pl_blackbox=1.0, incorrect=[None, None])
        rows = metrics.summary_rows([("bimem", 0, trace)])
        assert rows[0]["drop_incorrect_subset"] is None
        metrics.write_summary(rows, tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_text().splitlines()[1] == "bimem,0,0.9,0.9,"
