"""Synthetic domain-shift benchmark generation and dataset file I/O.

Classes are isotropic Gaussians with means on a circle in the first two
coordinates; the target domain rotates that circle and translates every mean,
giving a controllable initial pseudo-label error rate. CSV round-trips are
lossless at 9 significant digits.
"""

from __future__ import annotations

import io
import locale
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import DataError, InvalidArgumentError

FLOAT_FORMAT = "%.9g"


# Printable ASCII but the space, the underscore and the quote, which no writer
# puts in a cell. Python's int and float also take whitespace, an underscore and
# non-ASCII digits; every whitespace character but the space is unprintable.
PLAIN_BYTES = bytes(range(0x21, 0x7F)).translate(None, b'_"')


def plain_cells(row: list[str]) -> bool:
    """No cell holds a character outside ``PLAIN_BYTES``."""
    text = "".join(row)
    return text.isascii() and not text.encode().translate(None, PLAIN_BYTES)


def plain_line_count(body: str) -> int:
    """How many lines ``body`` has if each is a row of ``plain_cells``, ended by
    CRLF or LF but the last, which may be unended; 0 for any other body and for
    one of line ends alone, where ``np.loadtxt`` finds no data. ``np.loadtxt``
    splits such a body into the rows ``_cells`` gives, but skips an empty line."""
    ends = body.encode().translate(None, PLAIN_BYTES)
    if len(ends) == len(body) or ends.replace(b"\r\n", b"").replace(b"\n", b""):
        return 0
    return ends.count(b"\n") + (not body.endswith("\n"))


@dataclass
class LabeledDataset:
    """Samples with ground truth: unique ids, non-negative labels, finite features."""

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
        if not self.features.shape[1]:
            raise InvalidArgumentError("a dataset needs at least one feature column")
        first = np.unique(self.ids, return_index=True)[1]
        reject_rows(~np.isin(np.arange(n), first), lambda i: f"id {self.ids[i]} is repeated")
        reject_rows(self.labels < 0, lambda i: f"negative label {self.labels[i]}")
        reject_rows(~np.isfinite(self.features).all(axis=1),
                    lambda i: f"non-finite feature value in sample id {self.ids[i]}")

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
    ``target_shift``. Deterministic per seed; ``gaussian_faults`` holds the ranges.
    """
    for argument, fault in gaussian_faults(n_categories, feature_dim, n_per_class, class_separation,
                                           target_shift, target_rotation_deg, noise_sigma, seed):
        raise InvalidArgumentError(f"{argument} {fault}")
    rng = np.random.default_rng(seed)
    source_means = class_means(n_categories, feature_dim, class_separation)
    theta = math.radians(target_rotation_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    target_means = source_means.copy()
    target_means[:, :2] = source_means[:, :2] @ rot.T
    target_means = target_means + np.asarray(target_shift, dtype=np.float64)

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


def gaussian_faults(n_categories: int, feature_dim: int, n_per_class: int, class_separation: float,
                    target_shift: np.ndarray, target_rotation_deg: float, noise_sigma: float,
                    seed: int) -> Iterator[tuple[str, str]]:
    """``gen_shifted_gaussians``'s range rules: each argument that breaks one,
    in order, as ``(argument, fault)`` for the message "<argument> <fault>"."""
    for name, value, low in (("n_categories", n_categories, 2), ("feature_dim", feature_dim, 2),
                             ("n_per_class", n_per_class, 1), ("seed", seed, 0)):
        if value < low:
            yield name, f"must be >= {low}, got {value}"
    if noise_sigma <= 0:
        yield "noise_sigma", f"must be > 0, got {noise_sigma}"
    shift = np.asarray(target_shift, dtype=np.float64)
    if shift.shape != (feature_dim,):
        yield "target_shift", f"must have dimension {feature_dim}, got shape {shift.shape}"
    elif not np.isfinite(shift).all():
        yield "target_shift", f"must be finite, got {shift.tolist()}"
    for name, value in (("class_separation", class_separation),
                        ("target_rotation_deg", target_rotation_deg), ("noise_sigma", noise_sigma)):
        if not math.isfinite(value):
            yield name, f"must be finite, got {value}"


def dataset_header(feature_dim: int) -> list[str]:
    return ["id"] + [f"f{i}" for i in range(feature_dim)] + ["label"]


def printed(values: np.ndarray) -> np.ndarray:
    """``values`` as a number table reads them back once written at ``FLOAT_FORMAT``."""
    cells = [float(FLOAT_FORMAT % value) for value in values.ravel().tolist()]
    return np.array(cells, dtype=np.float64).reshape(values.shape)


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
    """Write the dataset CSV with header ``id,f0,...,f{D-1},label``."""
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
    fields: Callable[[int], np.dtype] | None = None,
) -> Any:
    """Read a CSV file of number cells; its records' rules, unique ids among them, are the caller's.

    A line ends in LF or CRLF and splits into cells at every comma, as
    ``write_table`` writes it. ``header_for(width)`` is the header a file of
    that many columns must have, or None if no width-``width`` file is valid.
    ``parse`` turns one row of strings into a record: an ``InvalidArgumentError``
    it raises gets the row's line, and any other ``ValueError`` is an
    unparseable value. A row with a quote, whitespace, an underscore or a
    non-ASCII character in a cell is unparseable before its width is checked.
    Every ``DataError`` names its 1-based line. A byte that the codec ``open``
    reads text with cannot decode is a fault at its line, raised once the
    lines before it have passed the rules above. Returns the records in file order.

    With ``fields``, the file is a number table: ``fields(width)`` is the
    structured dtype of one record, the one ``parse`` returns, and the records
    come back as one C-contiguous array per field. A body of plain lines
    (``plain_line_count``) is parsed in one ``np.loadtxt`` pass. The row pass
    runs only to word the fault: if the body is not plain, or that pass
    refuses it or skips a line.
    """
    text, undecodable = _decoded(Path(path).read_bytes(), path)
    first, end, body = text.partition("\n")
    first += end
    if not first:
        raise undecodable or DataError("missing header", line=1)
    header = _cells(first)
    if header != header_for(len(header)):
        raise DataError(f"unexpected header {header!r}", line=1)
    dtype = None if fields is None else fields(len(header))
    table = None
    if dtype is not None and (n_lines := plain_line_count(body)):
        try:
            # A plain body's only line ends are CRLF and LF.
            table = np.loadtxt(body.splitlines(), dtype=dtype, delimiter=",",
                               comments=None, quotechar=None, ndmin=1)
        except ValueError:
            pass  # the row pass words the fault
        # A table short of a row skipped an empty line, which the row pass refuses.
        if table is not None and len(table) != n_lines:
            table = None
    if table is None:
        records: list = []
        for line_no, row in enumerate(map(_cells, io.StringIO(body, newline="\n")), 2):
            # Before the width: a line cut by a quoted line break is unparseable, not short.
            if not plain_cells(row):
                raise DataError("unparseable value (a quote, whitespace, an underscore or a "
                                "non-ASCII character in a cell)", line=line_no)
            if len(row) != len(header):
                raise DataError(f"expected {len(header)} columns, got {len(row)}", line=line_no)
            try:
                record = parse(row)
                # A number table's record takes its dtype here, so that an integer
                # past int64 is refused at its line.
                records.append(record if dtype is None else np.array(record, dtype))
            except InvalidArgumentError as exc:
                raise DataError(str(exc), line=line_no) from None
            except ValueError as exc:
                raise DataError(f"unparseable value ({exc})", line=line_no) from None
            except OverflowError:
                raise DataError("unparseable value (an integer cell outside int64)",
                                line=line_no) from None
        table = records if dtype is None else np.array(records, dtype)
    if undecodable is not None:
        raise undecodable
    return table if dtype is None else _columns(table)


def _cells(line: str) -> list[str]:
    """A line's cells: split at every comma, its LF or CRLF end cut; an empty line has none."""
    line = line[:-1].removesuffix("\r") if line.endswith("\n") else line
    return line.split(",") if line else []


def _decoded(raw: bytes, path: str | Path) -> tuple[str, DataError | None]:
    """``raw`` decoded by the codec ``open`` reads text with, and None; or, if a
    byte does not decode, the lines before that byte's line and the fault at it."""
    encoding = locale.getpreferredencoding(False)
    try:
        return raw.decode(encoding), None
    except UnicodeDecodeError as exc:
        ended = raw[:raw.rfind(b"\n", 0, exc.start) + 1]
        return ended.decode(encoding), DataError(
            f"byte {raw[exc.start]:#04x} of {path} is not {encoding} text",
            line=ended.count(b"\n") + 1)


def _columns(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each field of a structured array, as a C-contiguous array of its own."""
    return tuple(np.ascontiguousarray(table[name]) for name in table.dtype.names)


def reject_rows(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ``message(i)`` for the first record ``i`` that ``bad`` marks, carrying ``i``."""
    if bad.any():
        i = int(bad.argmax())
        raise InvalidArgumentError(message(i), index=i)


def read_dataset(path: str | Path, n_categories: int | None = None) -> LabeledDataset:
    """Parse a dataset CSV; a record or category fault is a ``DataError`` at its row's line."""
    ids, features, labels = read_table(
        path,
        lambda width: dataset_header(width - 2) if width >= 3 else None,
        lambda row: (int(row[0]), list(map(float, row[1:-1])), int(row[-1])),
        lambda width: np.dtype([("id", np.int64), ("features", np.float64, (width - 2,)),
                                ("label", np.int64)]),
    )
    try:
        dataset = LabeledDataset(ids, features, labels)
        if n_categories is not None:
            reject_rows(labels >= n_categories,
                        lambda i: f"label {labels[i]} >= declared categories {n_categories}")
    except InvalidArgumentError as exc:
        raise DataError(str(exc), line=exc.index + 2) from None
    return dataset
