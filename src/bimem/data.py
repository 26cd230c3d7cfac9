"""Synthetic domain-shift benchmark generation and dataset file I/O.

Classes are isotropic Gaussians with means on a circle in the first two
coordinates; the target domain rotates that circle and translates every mean,
giving a controllable initial pseudo-label error rate. CSV round-trips are
lossless at 9 significant digits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .errors import DataError, InvalidArgumentError

FLOAT_FORMAT = "%.9g"


def plain_cells(row: list[str]) -> bool:
    """No cell holds what Python's int and float take beyond plain ASCII
    number syntax: whitespace, an underscore or a non-ASCII character.
    Every whitespace character but the space is unprintable."""
    text = "".join(row)
    return text.isascii() and text.isprintable() and "_" not in text and " " not in text


@dataclass
class LabeledDataset:
    """Target or source samples with ground truth; ids are unique integers."""

    ids: np.ndarray  # (n,) int64
    features: np.ndarray  # (n, D) float64
    labels: np.ndarray  # (n,) int64

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.ids.shape[0]
        if self.features.ndim != 2 or self.features.shape[0] != n or self.labels.shape[0] != n:
            raise InvalidArgumentError("inconsistent dataset field sizes")
        if len(np.unique(self.ids)) != n:
            raise InvalidArgumentError("dataset ids must be unique")
        if n and self.labels.min() < 0:
            raise InvalidArgumentError("labels must be nonnegative")

    @property
    def n_samples(self) -> int:
        return self.ids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def class_means(n_categories: int, feature_dim: int, separation: float) -> np.ndarray:
    """Class means on a circle of radius ``separation`` in the first two axes."""
    angles = 2.0 * math.pi * np.arange(n_categories) / n_categories
    means = np.zeros((n_categories, feature_dim), dtype=np.float64)
    means[:, 0] = separation * np.cos(angles)
    means[:, 1] = separation * np.sin(angles)
    return means


def gen_shifted_gaussians(
    n_categories: int,
    feature_dim: int,
    n_per_class: int,
    class_separation: float,
    target_shift: np.ndarray,
    target_rotation_deg: float,
    noise_sigma: float,
    seed: int,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Source and target datasets with identical class structure but shifted means.

    Target class means are the source means rotated about the origin in the
    first two coordinates by ``target_rotation_deg`` and translated by
    ``target_shift``. Deterministic per seed.
    """
    if n_categories < 2:
        raise InvalidArgumentError(f"n_categories must be >= 2, got {n_categories}")
    if feature_dim < 2:
        raise InvalidArgumentError(f"feature_dim must be >= 2, got {feature_dim}")
    if n_per_class < 1:
        raise InvalidArgumentError(f"n_per_class must be >= 1, got {n_per_class}")
    if noise_sigma <= 0:
        raise InvalidArgumentError(f"noise_sigma must be > 0, got {noise_sigma}")
    shift = np.asarray(target_shift, dtype=np.float64)
    if shift.shape != (feature_dim,):
        raise InvalidArgumentError(
            f"target_shift must have dimension {feature_dim}, got shape {shift.shape}"
        )
    if not np.isfinite(shift).all():
        raise InvalidArgumentError(f"target_shift must be finite, got {shift.tolist()}")
    for name, value in (("class_separation", class_separation),
                        ("target_rotation_deg", target_rotation_deg), ("noise_sigma", noise_sigma)):
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value}")

    rng = np.random.default_rng(seed)
    source_means = class_means(n_categories, feature_dim, class_separation)
    theta = math.radians(target_rotation_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    target_means = source_means.copy()
    target_means[:, :2] = source_means[:, :2] @ rot.T
    target_means = target_means + shift

    def draw(means: np.ndarray) -> LabeledDataset:
        feats = np.concatenate(
            [
                means[c] + noise_sigma * rng.standard_normal((n_per_class, feature_dim))
                for c in range(n_categories)
            ]
        )
        labels = np.repeat(np.arange(n_categories), n_per_class)
        order = rng.permutation(len(labels))
        return LabeledDataset(
            ids=np.arange(len(labels), dtype=np.int64),
            features=feats[order],
            labels=labels[order],
        )

    return draw(source_means), draw(target_means)


def dataset_header(feature_dim: int) -> list[str]:
    return ["id"] + [f"f{i}" for i in range(feature_dim)] + ["label"]


def write_table(path: str | Path, header: list[str], row_format: str,
                rows: Iterable[tuple]) -> None:
    """Write a CSV of number cells: the header, then ``row_format % row`` per row.

    Every line ends in CRLF, as ``csv.writer`` ends them. A ``%d`` or
    ``%.9g`` cell never holds a comma, a quote or a line break, so no cell
    needs quoting. ``rows`` is consumed one row at a time.
    """
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(line % row)


def write_dataset(dataset: LabeledDataset, path: str | Path) -> None:
    """Write the dataset CSV with header ``id,f0,...,f{D-1},label``.

    A non-finite feature, which ``read_dataset`` would reject, raises
    ``InvalidArgumentError`` before the file is opened.
    """
    finite = np.isfinite(dataset.features).all(axis=1)
    if not finite.all():
        sample = int(dataset.ids[finite.argmin()])
        raise InvalidArgumentError(f"non-finite feature value in sample id {sample}")
    dim = dataset.feature_dim
    write_table(
        path, dataset_header(dim), ",".join(["%d"] + [FLOAT_FORMAT] * dim + ["%d"]),
        ((i, *f.tolist(), y) for i, f, y in zip(dataset.ids.tolist(), dataset.features,
                                                dataset.labels.tolist())),
    )


def read_table(
    path: str | Path,
    header_for: Callable[[int], list[str] | None],
    parse: Callable[[list[str]], Any],
    key: str = "id",
) -> tuple[list[str], list]:
    """Read a CSV file of number cells whose first column is a unique integer ``key``.

    ``header_for(width)`` is the header a file of that many columns must
    have, or None if no width-``width`` file is valid. ``parse`` turns one
    row of strings into a record: a ``DataError`` it raises gets the row's
    line, and any other ``ValueError`` is an unparseable value. A row with
    whitespace, an underscore or a non-ASCII character in a cell is
    unparseable before ``parse`` sees it, so a quoted cell cannot span
    lines and every line number is a physical line. Every ``DataError``
    names its 1-based line.
    Returns the header and the records in file order.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("missing header", line=1)
        if header != header_for(len(header)):
            raise DataError(f"unexpected header {header!r}", line=1)
        records: list = []
        seen: set[int] = set()
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"expected {len(header)} columns, got {len(row)}", line=line_no)
            try:
                if not plain_cells(row):
                    raise ValueError("whitespace, an underscore or a non-ASCII character in a cell")
                row_key = int(row[0])
                records.append(parse(row))
            except DataError as exc:
                raise DataError(str(exc), line=line_no) from None
            except ValueError as exc:
                raise DataError(f"unparseable value ({exc})", line=line_no) from None
            if row_key in seen:
                raise DataError(f"{key} {row_key} is repeated", line=line_no)
            seen.add(row_key)
    return header, records


def reject_rows(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ``message(i)`` at the line of the first record ``i`` that ``bad`` marks."""
    if bad.any():
        i = int(bad.argmax())
        raise DataError(message(i), line=i + 2)


def read_dataset(path: str | Path, n_categories: int | None = None) -> LabeledDataset:
    """Parse a dataset CSV; errors carry the offending 1-based line number."""
    header, records = read_table(
        path,
        lambda width: dataset_header(width - 2) if width >= 3 else None,
        lambda row: (int(row[0]), list(map(float, row[1:-1])), int(row[-1])),
    )
    ids = np.array([r[0] for r in records], dtype=np.int64)
    features = np.array([r[1] for r in records], dtype=np.float64)
    features = features.reshape(len(ids), len(header) - 2)
    labels = np.array([r[2] for r in records], dtype=np.int64)
    reject_rows(labels < 0, lambda i: f"negative label {labels[i]}")
    if n_categories is not None:
        reject_rows(labels >= n_categories,
                    lambda i: f"label {labels[i]} >= declared categories {n_categories}")
    reject_rows(~np.isfinite(features).all(axis=1), lambda i: "non-finite feature value")
    return LabeledDataset(ids, features, labels)
