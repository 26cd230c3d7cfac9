"""Source-model training and the file boundary that makes it a black box.

The adaptation stage only ever sees the predictions CSV written here; source
data and source parameters never cross that boundary. A hard-label export
mode stands in for APIs that return labels without probabilities.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import data, model, numerics
from .data import (FLOAT_FORMAT, LabeledDataset, printed, read_table, reject_rows,
                   write_table)
from .errors import DataError, InvalidArgumentError

HARD_LABEL_SMOOTHING = 0.1
# A bound on how far printing a row at FLOAT_FORMAT moves its sum: 9 significant
# digits move each value by at most 5e-9 of itself, so a row summing to about 1
# by at most about 5e-9, and float sums add far less at any realistic width.
PRINTED_SUM_SHIFT = 1e-8


@dataclass
class PredictionSet:
    """Exported black-box predictions: ids, hard labels, full probabilities.

    Every row, and every row as ``write_predictions`` prints it, is on the
    simplex within ``numerics.PROB_SUM_TOL`` and has its label among the
    largest probabilities within ``numerics.DEFAULT_TOL``, so a set that
    builds also reads back from its file.
    """

    ids: np.ndarray  # (n,) int64
    yhat: np.ndarray  # (n,) int64
    probs: np.ndarray  # (n, C) float64

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.yhat = np.asarray(self.yhat, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n = self.ids.shape[0]
        if self.probs.ndim != 2 or self.yhat.shape[0] != n or self.probs.shape[0] != n:
            raise InvalidArgumentError("inconsistent prediction field sizes; probs must be (n, C)")
        if not self.probs.shape[1]:
            raise InvalidArgumentError("predictions need at least one category")
        first = np.unique(self.ids, return_index=True)[1]
        reject_rows(~np.isin(np.arange(n), first), lambda i: f"id {self.ids[i]} is repeated")
        reject_rows((self.yhat < 0) | (self.yhat >= self.n_categories),
                    lambda i: f"label {self.yhat[i]} out of range")
        # write_predictions prints each value at FLOAT_FORMAT, which moves a
        # row's sum by under PRINTED_SUM_SHIFT and keeps an exact argmax one,
        # so only a row nearer a bound can break a rule once printed.
        near = np.flatnonzero(
            (np.abs(self.probs.sum(axis=1) - 1.0) > numerics.PROB_SUM_TOL - PRINTED_SUM_SHIFT)
            | (self.probs[np.arange(n), self.yhat] < self.probs.max(axis=1)))
        checked = [(self.probs, "")]
        if near.size:
            shown = self.probs.copy()
            shown[near] = printed(self.probs[near])
            checked.append((shown, f" once printed as {FLOAT_FORMAT}"))
        for probs, suffix in checked:
            faulty = ~numerics.prob_rows_valid(probs)
            if faulty.any():
                # The per-row check words the first fault.
                i = int(faulty.argmax())
                try:
                    numerics.check_prob_vector(probs[i], "probabilities")
                except InvalidArgumentError as exc:
                    raise InvalidArgumentError(f"{exc}{suffix}", index=i) from None
            # Printed rounding can create exact ties; the stored label must still be
            # maximal within tolerance.
            stored = probs[np.arange(n), self.yhat]
            reject_rows(stored < probs.max(axis=1) - numerics.DEFAULT_TOL,
                        lambda i: f"stored label {self.yhat[i]} is not an argmax of the "
                                  f"probabilities{suffix}")
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


def training_faults(epochs: int, lr: float, batch_size: int) -> Iterator[tuple[str, str]]:
    """``train_source``'s range rules, as ``data.gaussian_faults`` gives the generator's."""
    if epochs < 0:
        yield "epochs", f"must be >= 0, got {epochs}"
    if not math.isfinite(lr):
        yield "lr", f"must be finite, got {lr}"
    elif lr < 0:
        yield "lr", f"must be >= 0, got {lr}"
    if batch_size < 1:
        yield "batch_size", f"must be >= 1, got {batch_size}"


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
    for argument, fault in training_faults(epochs, lr, batch_size):
        raise InvalidArgumentError(f"{argument} {fault}")
    if n_categories is None:
        n_categories = int(source.labels.max()) + 1
    layout = model.Layout(source.feature_dim, hidden_dim, n_categories)
    params = model.init_params(layout, np.random.default_rng([seed, 0]))
    sampler = model.EpochSampler(source.n_samples, batch_size, np.random.default_rng([seed, 1]))
    for _ in range(epochs * model.epoch_length(source.n_samples, batch_size)):
        idx = sampler.next_batch()
        model.sgd_step(params, source.features.take(idx, axis=0), source.labels.take(idx), lr)
    return params


# The Scenario field of each argument named otherwise.
_FIELD_OF = {"feature_dim": "dim", "epochs": "source_epochs", "lr": "source_lr",
             "batch_size": "source_batch_size"}


@dataclass(frozen=True)
class Scenario:
    """A run's inputs: the source and target sets ``generate`` draws by
    ``data.gen_shifted_gaussians`` and the source model ``train`` fits by
    ``train_source``. Each field is an argument of one of the two, whose range
    rules, and the layout's, the record passes once built."""

    n_categories: int = 5
    dim: int = 8
    n_per_class: int = 100
    class_separation: float = 4.0
    target_shift: tuple[float, ...] | None = None  # None: (1.5, 0, ..., 0)
    target_rotation_deg: float = 25.0
    noise_sigma: float = 1.0
    source_epochs: int = 50
    source_lr: float = 0.05
    source_batch_size: int = 32
    source_hidden_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        numerics.check_field_types(self)
        shift = (1.5,) + (0.0,) * (self.dim - 1) if self.target_shift is None else self.target_shift
        object.__setattr__(self, "target_shift", tuple(map(float, shift)))
        faults = chain(data.gaussian_faults(*self._generator_args()),
                       training_faults(self.source_epochs, self.source_lr, self.source_batch_size))
        for argument, fault in faults:
            raise InvalidArgumentError(f"{_FIELD_OF.get(argument, argument)} {fault}")
        model.Layout(self.dim, self.source_hidden_dim, self.n_categories)

    def _generator_args(self) -> tuple:
        return (self.n_categories, self.dim, self.n_per_class, self.class_separation,
                self.target_shift, self.target_rotation_deg, self.noise_sigma, self.seed)

    def generate(self) -> tuple[LabeledDataset, LabeledDataset]:
        return data.gen_shifted_gaussians(*self._generator_args())

    def train(self, source: LabeledDataset) -> model.ClassifierParams:
        return train_source(source, self.source_epochs, self.source_lr, self.seed,
                            self.source_batch_size, self.source_hidden_dim, self.n_categories)


def predict(params: model.ClassifierParams, dataset: LabeledDataset) -> PredictionSet:
    """Black-box style predictions for every sample: argmax labels plus probabilities."""
    # Logits that overflow give non-finite probabilities, which PredictionSet refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        _, probs = model.forward_batch(params, dataset.features)
    yhat = probs.argmax(axis=1)
    return PredictionSet(ids=dataset.ids.copy(), yhat=yhat, probs=probs)


def smooth_hard_labels(preds: PredictionSet) -> PredictionSet:
    """Replace probabilities with one-hots of the hard labels smoothed by HARD_LABEL_SMOOTHING."""
    n, c = preds.probs.shape
    probs = np.full((n, c), HARD_LABEL_SMOOTHING / c, dtype=np.float64)
    probs[np.arange(n), preds.yhat] += 1.0 - HARD_LABEL_SMOOTHING
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
    """Parse a predictions CSV; a row that breaks a record rule is a ``DataError`` at its line."""
    ids, yhat, probs = read_table(
        path,
        lambda width: predictions_header(width - 2) if width >= 3 else None,
        lambda row: (int(row[0]), int(row[1]), list(map(float, row[2:]))),
        lambda width: np.dtype([("id", np.int64), ("yhat", np.int64),
                                ("probs", np.float64, (width - 2,))]),
    )
    try:
        return PredictionSet(ids=ids, yhat=yhat, probs=probs)
    except InvalidArgumentError as exc:
        raise DataError(str(exc), line=exc.index + 2) from None
