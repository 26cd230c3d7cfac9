"""Source-model training and the file boundary that makes it a black box.

The adaptation stage only ever sees the predictions CSV written here; source
data and source parameters never cross that boundary. A hard-label export
mode stands in for APIs that return labels without probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model, numerics
from .data import FLOAT_FORMAT, LabeledDataset, read_table, reject_rows, write_table
from .errors import DataError, InvalidArgumentError

HARD_LABEL_SMOOTHING = 0.1


@dataclass
class PredictionSet:
    """Exported black-box predictions: ids, hard labels, full probabilities."""

    ids: np.ndarray  # (n,) int64
    yhat: np.ndarray  # (n,) int64
    probs: np.ndarray  # (n, C) float64

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.yhat = np.asarray(self.yhat, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n = self.ids.shape[0]
        if self.yhat.shape[0] != n or self.probs.shape[0] != n:
            raise InvalidArgumentError("inconsistent prediction field sizes")
        if len(np.unique(self.ids)) != n:
            raise InvalidArgumentError("prediction ids must be unique")
        self._row_of = {int(i): k for k, i in enumerate(self.ids)}

    @property
    def n_categories(self) -> int:
        return self.probs.shape[1]

    def aligned_to(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hard labels and probabilities reordered to match ``ids``."""
        try:
            rows = np.array([self._row_of[int(i)] for i in ids], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"no prediction for sample id {exc.args[0]}") from None
        return self.yhat[rows], self.probs[rows]


def train_source(
    source: LabeledDataset,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 32,
    hidden_dim: int = 32,
    n_categories: int | None = None,
) -> model.ClassifierParams:
    """Supervised cross-entropy training of the source model; deterministic per seed."""
    if source.n_samples == 0:
        raise InvalidArgumentError("source dataset is empty")
    if epochs < 0:
        raise InvalidArgumentError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise InvalidArgumentError(f"batch_size must be >= 1, got {batch_size}")
    if n_categories is None:
        n_categories = int(source.labels.max()) + 1
    layout = model.Layout(source.feature_dim, hidden_dim, n_categories)
    params = model.init_params(layout, np.random.default_rng([seed, 0]))
    sampler = model.EpochSampler(source.n_samples, batch_size, np.random.default_rng([seed, 1]))
    for _ in range(epochs * model.epoch_length(source.n_samples, batch_size)):
        idx = sampler.next_batch()
        model.sgd_step(params, source.features.take(idx, axis=0), source.labels.take(idx), lr)
    return params


def predict(params: model.ClassifierParams, dataset: LabeledDataset) -> PredictionSet:
    """Black-box style predictions for every sample: argmax labels plus probabilities."""
    _, probs = model.forward_batch(params, dataset.features)
    yhat = probs.argmax(axis=1)
    return PredictionSet(ids=dataset.ids.copy(), yhat=yhat, probs=probs)


def smooth_hard_labels(preds: PredictionSet, smoothing: float = HARD_LABEL_SMOOTHING) -> PredictionSet:
    """Replace probabilities with smoothed one-hots of the hard labels."""
    n, c = preds.probs.shape
    probs = np.full((n, c), smoothing / c, dtype=np.float64)
    probs[np.arange(n), preds.yhat] += 1.0 - smoothing
    return PredictionSet(ids=preds.ids.copy(), yhat=preds.yhat.copy(), probs=probs)


def predictions_header(n_categories: int) -> list[str]:
    return ["id", "yhat"] + [f"p{c}" for c in range(n_categories)]


def write_predictions(preds: PredictionSet, path: str | Path) -> None:
    """Write the predictions CSV: ``id,yhat,p0,...,p{C-1}`` at 9 significant digits."""
    c = preds.n_categories
    write_table(
        path, predictions_header(c), ",".join(["%d", "%d"] + [FLOAT_FORMAT] * c),
        ((i, y, *p.tolist()) for i, y, p in zip(preds.ids.tolist(), preds.yhat.tolist(),
                                                preds.probs)),
    )


def export_predictions(
    params: model.ClassifierParams,
    target: LabeledDataset,
    path: str | Path,
    hard_only: bool = False,
) -> PredictionSet:
    """Predict the target set and write the predictions file.

    Ground-truth labels never enter the file. With ``hard_only`` the exported
    probabilities are smoothed one-hots, mimicking label-only APIs.
    """
    preds = predict(params, target)
    if hard_only:
        preds = smooth_hard_labels(preds)
    write_predictions(preds, path)
    return preds


def read_predictions(path: str | Path) -> PredictionSet:
    """Parse and validate a predictions CSV; errors carry line numbers."""
    header, records = read_table(
        path,
        lambda width: predictions_header(width - 2) if width >= 3 else None,
        lambda row: (int(row[0]), int(row[1]), list(map(float, row[2:]))),
    )
    n_categories = len(header) - 2
    ids = np.array([r[0] for r in records], dtype=np.int64)
    yhat = np.array([r[1] for r in records], dtype=np.int64)
    probs = np.array([r[2] for r in records], dtype=np.float64).reshape(len(ids), n_categories)
    reject_rows((yhat < 0) | (yhat >= n_categories), lambda i: f"label {yhat[i]} out of range")
    faulty = ~numerics.prob_rows_valid(probs)
    if faulty.any():
        # The per-row check words the first fault.
        i = int(faulty.argmax())
        try:
            numerics.check_prob_vector(probs[i], "probabilities")
        except InvalidArgumentError as exc:
            raise DataError(str(exc), line=i + 2) from None
    # Printed rounding can create exact ties; the stored label must still be
    # maximal within tolerance.
    stored = probs[np.arange(len(ids)), yhat]
    reject_rows(stored < probs.max(axis=1) - numerics.DEFAULT_TOL,
                lambda i: f"stored label {yhat[i]} is not an argmax of the probabilities")
    return PredictionSet(ids=ids, yhat=yhat, probs=probs)
