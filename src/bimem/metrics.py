"""Accuracy metrics, the subset partition identity, degradation statistics, reports."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, InvalidArgumentError

SUMMARY_HEADER = ["method", "seed", "final_acc", "peak_acc", "drop_incorrect_subset"]
# Trace values pass through printed CSV precision before report validation.
PARTITION_IDENTITY_TOL = 1e-6


def accuracy(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of exact matches between two equal-length label sequences."""
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise InvalidArgumentError(f"shape mismatch: {pred.shape} vs {true.shape}")
    if pred.shape[0] == 0:
        raise InvalidArgumentError("accuracy of empty sequences is undefined")
    return float((pred == true).mean())


def peak_final_drop(trace, column: str) -> float | None:
    """Highest value of a trace column minus its final value (>= 0).

    Undefined-metric entries (None) are skipped; the final value is the last
    defined one. None when the column has no defined value, as the
    initially-incorrect subset has none when the black box is never wrong.
    """
    values = [v for v in trace.column(column) if v is not None]
    return max(values) - values[-1] if values else None


def validate_partition_identity(trace, tol: float = PARTITION_IDENTITY_TOL) -> None:
    """Check acc_all equals the count-weighted mean of the two subset columns.

    The weight of the initially-correct subset is pl_acc_blackbox (that column
    is the correct-subset fraction by construction). Rows with an undefined
    subset metric are skipped; a NaN term fails the check.
    """
    for row in trace.rows:
        if row.acc_init_correct is None or row.acc_init_incorrect is None:
            continue
        w = row.pl_acc_blackbox
        combined = w * row.acc_init_correct + (1.0 - w) * row.acc_init_incorrect
        # Written so that a NaN on either side fails too.
        if not abs(combined - row.acc_all) <= tol:
            raise DataError(
                f"partition identity violated at iter {row.iteration}: "
                f"{combined!r} != {row.acc_all!r}"
            )


def summary_rows(entries: Iterable[tuple[str, int | str, object]]) -> list[dict]:
    """One summary record per (method, seed, trace) entry."""
    rows = []
    for method, seed, trace in entries:
        validate_partition_identity(trace)
        acc_all = trace.column("acc_all")
        rows.append(
            {
                "method": method,
                "seed": seed,
                "final_acc": acc_all[-1],
                "peak_acc": max(acc_all),
                "drop_incorrect_subset": peak_final_drop(trace, "acc_init_incorrect"),
            }
        )
    return rows


def write_summary(rows: list[dict], path: str | Path) -> None:
    """One CSV line per summary row; an undefined drop is an empty cell, as in traces."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for row in rows:
            drop = row["drop_incorrect_subset"]
            writer.writerow(
                [
                    row["method"],
                    row["seed"],
                    repr(float(row["final_acc"])),
                    repr(float(row["peak_acc"])),
                    "" if drop is None else repr(float(drop)),
                ]
            )
