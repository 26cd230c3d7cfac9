"""The trainable target classifier, its EMA copy, the task loss, and SGD.

A single tanh hidden layer is enough to give the memories a feature space
worth clustering; ``hidden_dim == 0`` degrades to a linear model whose
"feature" is the raw input. All gradients are analytic and checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import numerics
from .errors import InvalidArgumentError, NumericFailureError

INIT_SCALE = 0.1
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class Layout:
    input_dim: int
    hidden_dim: int
    n_categories: int

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.n_categories < 1 or self.hidden_dim < 0:
            raise InvalidArgumentError(f"invalid layout {self}")

    @property
    def feature_dim(self) -> int:
        """Dimension of the feature handed to the memories."""
        return self.hidden_dim if self.hidden_dim > 0 else self.input_dim

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each parameter array by name, in ``arrays()`` order."""
        h, d, c = self.hidden_dim, self.input_dim, self.n_categories
        if h > 0:
            return {"hidden_w": (h, d), "hidden_b": (h,), "out_w": (c, h), "out_b": (c,)}
        return {"out_w": (c, d), "out_b": (c,)}

    @cached_property
    def _segments(self) -> tuple[tuple[slice, tuple[int, ...]], ...]:
        segments, stop = [], 0
        for shape in self.shapes.values():
            start, stop = stop, stop + math.prod(shape)
            segments.append((slice(start, stop), shape))
        return tuple(segments)

    @property
    def n_params(self) -> int:
        return self._segments[-1][0].stop

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Reshaped views of a flat buffer, one per parameter array in ``arrays()`` order."""
        return [flat[where].reshape(shape) for where, shape in self._segments]


class ClassifierParams:
    """Classifier weights held in one contiguous float64 buffer, ``flat``.

    ``flat`` holds the arrays in ``arrays()`` order, and ``hidden_w`` (H, D),
    ``hidden_b`` (H,), ``out_w`` (C, H) or (C, D) and ``out_b`` (C,) are
    reshaped views of it; the hidden pair is None for a linear model. A write
    into either side is seen by the other, so a whole-model update is one
    operation on ``flat``. Write into the arrays in place: rebinding an
    attribute detaches it from ``flat``.
    """

    def __init__(self, layout: Layout, hidden_w: np.ndarray | None,
                 hidden_b: np.ndarray | None, out_w: np.ndarray, out_b: np.ndarray):
        given = {"hidden_w": hidden_w, "hidden_b": hidden_b, "out_w": out_w, "out_b": out_b}
        flat = np.empty(layout.n_params)
        for (name, shape), view in zip(layout.shapes.items(), layout.views(flat)):
            array = np.asarray(given[name], dtype=np.float64)
            if array.shape != shape:
                raise InvalidArgumentError(f"{name} shape {array.shape} != {shape}")
            view[...] = array
        self._bind(layout, flat)

    @classmethod
    def from_flat(cls, layout: Layout, flat: np.ndarray) -> "ClassifierParams":
        """Parameters that view ``flat`` itself, a float64 buffer of ``layout.n_params``."""
        if flat.dtype != np.float64 or flat.shape != (layout.n_params,):
            raise InvalidArgumentError(
                f"flat buffer {flat.dtype} {flat.shape} != float64 ({layout.n_params},)"
            )
        params = cls.__new__(cls)
        params._bind(layout, flat)
        return params

    def _bind(self, layout: Layout, flat: np.ndarray) -> None:
        self.layout = layout
        self.flat = flat
        views = dict(zip(layout.shapes, layout.views(flat)))
        self.hidden_w = views.get("hidden_w")
        self.hidden_b = views.get("hidden_b")
        self.out_w = views["out_w"]
        self.out_b = views["out_b"]

    def copy(self) -> "ClassifierParams":
        return ClassifierParams.from_flat(self.layout, self.flat.copy())

    def arrays(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order (hidden first when present)."""
        return self.layout.views(self.flat)


@dataclass
class MomentumModel:
    """EMA copy of the student: p <- gamma * p + (1 - gamma) * p_student."""

    params: ClassifierParams
    gamma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidArgumentError(f"gamma must be in [0, 1), got {self.gamma}")


def init_params(layout: Layout, rng: np.random.Generator) -> ClassifierParams:
    """Uniform [-0.1, 0.1] initialization; draw order is part of the contract.

    The arrays are drawn in ``arrays()`` order, each row-major. One draw of
    the whole flat buffer takes the same values from the stream as one draw
    per array would.
    """
    flat = rng.uniform(-INIT_SCALE, INIT_SCALE, size=layout.n_params)
    return ClassifierParams.from_flat(layout, flat)


def forward_batch(params: ClassifierParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features and softmax probabilities for a batch of inputs.

    The feature is the tanh hidden activation, or the input itself for a
    linear model.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layout.input_dim:
        raise InvalidArgumentError(
            f"batch shape {x.shape} incompatible with input_dim {params.layout.input_dim}"
        )
    if params.layout.hidden_dim > 0:
        hidden = np.tanh(x @ params.hidden_w.T + params.hidden_b)
        logits = hidden @ params.out_w.T + params.out_b
        features = hidden
    else:
        logits = x @ params.out_w.T + params.out_b
        features = x
    probs = numerics.softmax_rows(logits)
    return features, probs


def batch_loss(params: ClassifierParams, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the batch under the current parameters."""
    _, probs = forward_batch(params, x)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def loss_gradients(params: ClassifierParams, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, one buffer laid out like ``flat``.

    ``params.layout.views`` splits it into per-array gradients ordered like
    ``arrays()``.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    n = x.shape[0]
    if n == 0:
        raise InvalidArgumentError("cannot compute gradients of an empty batch")
    if np.any(labels < 0) or np.any(labels >= params.layout.n_categories):
        raise InvalidArgumentError("labels out of range")
    features, dlogits = forward_batch(params, x)  # probabilities, made dL/dlogits in place
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grad = np.empty_like(params.flat)
    *g_hidden, g_out_w, g_out_b = params.layout.views(grad)
    np.matmul(dlogits.T, features, out=g_out_w)
    dlogits.sum(axis=0, out=g_out_b)
    if g_hidden:
        dpre = (dlogits @ params.out_w) * (1.0 - features * features)
        np.matmul(dpre.T, x, out=g_hidden[0])
        dpre.sum(axis=0, out=g_hidden[1])
    return grad


def sgd_step(
    params: ClassifierParams, x: np.ndarray, labels: np.ndarray, lr: float
) -> ClassifierParams:
    """In-place gradient step on the mean cross-entropy; returns ``params``."""
    if not np.isfinite(lr) or lr < 0.0:
        raise InvalidArgumentError(f"learning rate must be finite and >= 0, got {lr}")
    grad = loss_gradients(params, x, labels)
    if not np.isfinite(grad).all():
        raise NumericFailureError("non-finite gradient")
    params.flat -= lr * grad
    return params


def momentum_update(mm: MomentumModel, student: ClassifierParams) -> MomentumModel:
    """EMA update of the momentum parameters toward the student's."""
    if mm.params.layout != student.layout:
        raise InvalidArgumentError(
            f"layout mismatch: {mm.params.layout} vs {student.layout}"
        )
    g = mm.gamma
    mm.params.flat *= g
    mm.params.flat += (1.0 - g) * student.flat
    return mm


def save_params(params: ClassifierParams, path: str | Path) -> None:
    payload = {
        "layout": {
            "input_dim": params.layout.input_dim,
            "hidden_dim": params.layout.hidden_dim,
            "n_categories": params.layout.n_categories,
        },
        "out_w": [[float(v) for v in row] for row in params.out_w],
        "out_b": [float(v) for v in params.out_b],
    }
    if params.layout.hidden_dim > 0:
        payload["hidden_w"] = [[float(v) for v in row] for row in params.hidden_w]
        payload["hidden_b"] = [float(v) for v in params.hidden_b]
    Path(path).write_text(json.dumps(payload))


def load_params(path: str | Path) -> ClassifierParams:
    payload = json.loads(Path(path).read_text())
    layout = Layout(**payload["layout"])
    return ClassifierParams(
        layout, payload.get("hidden_w"), payload.get("hidden_b"), payload["out_w"], payload["out_b"]
    )
