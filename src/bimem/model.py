"""The trainable target classifier, its EMA copy, the task loss, and SGD.

A single tanh hidden layer is enough to give the memories a feature space
worth clustering; ``hidden_dim == 0`` degrades to a linear model whose
"feature" is the raw input. All gradients are analytic and checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass
class ClassifierParams:
    layout: Layout
    hidden_w: np.ndarray | None  # (H, D) or None when linear
    hidden_b: np.ndarray | None  # (H,) or None when linear
    out_w: np.ndarray  # (C, H) or (C, D)
    out_b: np.ndarray  # (C,)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(
            layout=self.layout,
            hidden_w=None if self.hidden_w is None else self.hidden_w.copy(),
            hidden_b=None if self.hidden_b is None else self.hidden_b.copy(),
            out_w=self.out_w.copy(),
            out_b=self.out_b.copy(),
        )

    def arrays(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order (hidden first when present)."""
        if self.layout.hidden_dim > 0:
            return [self.hidden_w, self.hidden_b, self.out_w, self.out_b]
        return [self.out_w, self.out_b]


@dataclass
class MomentumModel:
    """EMA copy of the student: p <- gamma * p + (1 - gamma) * p_student."""

    params: ClassifierParams
    gamma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidArgumentError(f"gamma must be in [0, 1), got {self.gamma}")


def init_params(layout: Layout, rng: np.random.Generator) -> ClassifierParams:
    """Uniform [-0.1, 0.1] initialization; draw order is part of the contract."""
    h, d, c = layout.hidden_dim, layout.input_dim, layout.n_categories
    if h > 0:
        hidden_w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(h, d))
        hidden_b = rng.uniform(-INIT_SCALE, INIT_SCALE, size=h)
        out_w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(c, h))
        out_b = rng.uniform(-INIT_SCALE, INIT_SCALE, size=c)
        return ClassifierParams(layout, hidden_w, hidden_b, out_w, out_b)
    out_w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(c, d))
    out_b = rng.uniform(-INIT_SCALE, INIT_SCALE, size=c)
    return ClassifierParams(layout, None, None, out_w, out_b)


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


def loss_gradients(
    params: ClassifierParams, x: np.ndarray, labels: np.ndarray
) -> list[np.ndarray]:
    """Analytic gradients of the mean cross-entropy, ordered like ``arrays()``."""
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
    g_out = [dlogits.T @ features, dlogits.sum(axis=0)]
    if params.layout.hidden_dim == 0:
        return g_out
    dpre = (dlogits @ params.out_w) * (1.0 - features * features)
    return [dpre.T @ x, dpre.sum(axis=0), *g_out]


def sgd_step(
    params: ClassifierParams, x: np.ndarray, labels: np.ndarray, lr: float
) -> ClassifierParams:
    """In-place gradient step on the mean cross-entropy; returns ``params``."""
    if not np.isfinite(lr) or lr < 0.0:
        raise InvalidArgumentError(f"learning rate must be finite and >= 0, got {lr}")
    grads = loss_gradients(params, x, labels)
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericFailureError("non-finite gradient")
    for p, g in zip(params.arrays(), grads):
        p -= lr * g
    return params


def momentum_update(mm: MomentumModel, student: ClassifierParams) -> MomentumModel:
    """EMA update of the momentum parameters toward the student's."""
    if mm.params.layout != student.layout:
        raise InvalidArgumentError(
            f"layout mismatch: {mm.params.layout} vs {student.layout}"
        )
    g = mm.gamma
    for pm, ps in zip(mm.params.arrays(), student.arrays()):
        pm *= g
        pm += (1.0 - g) * ps
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
    h, c = layout.hidden_dim, layout.n_categories
    expected = {"out_w": (c, layout.feature_dim), "out_b": (c,)}
    if h > 0:
        expected.update(hidden_w=(h, layout.input_dim), hidden_b=(h,))
    arrays = {}
    for name, shape in expected.items():
        arrays[name] = np.asarray(payload[name], dtype=np.float64)
        if arrays[name].shape != shape:
            raise InvalidArgumentError(f"checkpoint {name} shape {arrays[name].shape} != {shape}")
    return ClassifierParams(
        layout, arrays.get("hidden_w"), arrays.get("hidden_b"), arrays["out_w"], arrays["out_b"]
    )
