"""The trainable target classifier, its EMA copy, the task loss, SGD, and the
epoch sampler that feeds both source training and adaptation.

A single tanh hidden layer is enough to give the memories a feature space
worth clustering; ``hidden_dim == 0`` degrades to a linear model whose
"feature" is the raw input. All gradients are analytic and checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DataError, InvalidArgumentError, NumericFailureError

INIT_SCALE = 0.1
PROB_FLOOR = 1e-12
# A forward pass over more rows than this runs its softmax over category slabs,
# ``numerics.softmax_slabs`` on a (C, n) copy of the logits, with the row
# form's bits. The row form runs one C-term loop per row, the slab form a few
# n-term loops and two copies: past about 200 rows the slab form costs less at
# every C from 2 to 20, while on a 32-row training batch at C >= 10 it costs
# about twice as much.
SLAB_SOFTMAX_ROWS = 256


@dataclass(frozen=True)
class Layout:
    input_dim: int
    hidden_dim: int
    n_categories: int

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.n_categories < 1 or self.hidden_dim < 0:
            raise InvalidArgumentError(f"invalid layout {self}")

    def __reduce__(self):
        # Pickle and deepcopy rebuild the layout from its fields: a copied
        # ``_step_scratch`` would keep ``grad_views`` that no longer view ``grad``.
        return Layout, (self.input_dim, self.hidden_dim, self.n_categories)

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

    @cached_property
    def _step_scratch(self) -> "_StepScratch":
        """The buffers of ``loss_gradients`` and ``momentum_update``, shared by equal layouts."""
        if self not in _SCRATCH:
            _SCRATCH[self] = _StepScratch(self)
        return _SCRATCH[self]


class ClassifierParams:
    """Classifier weights held in one contiguous float64 buffer, ``flat``.

    ``flat`` holds the arrays in ``arrays()`` order, and ``hidden_w`` (H, D),
    ``hidden_b`` (H,), ``out_w`` (C, H) or (C, D) and ``out_b`` (C,) are
    reshaped views of it; the hidden pair is None for a linear model. A write
    into either side is seen by the other, so a whole-model update is one
    operation on ``flat``. Write into the arrays in place: rebinding an
    attribute detaches it from ``flat``.
    """

    def __init__(self, layout: Layout, flat: np.ndarray):
        """Parameters that view ``flat`` itself, a float64 buffer of ``layout.n_params``."""
        if flat.dtype != np.float64 or flat.shape != (layout.n_params,):
            raise InvalidArgumentError(
                f"flat buffer {flat.dtype} {flat.shape} != float64 ({layout.n_params},)"
            )
        self.layout = layout
        self.flat = flat
        views = dict(zip(layout.shapes, layout.views(flat)))
        self.hidden_w = views.get("hidden_w")
        self.hidden_b = views.get("hidden_b")
        self.out_w = views["out_w"]
        self.out_b = views["out_b"]

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.layout, self.flat.copy())

    def __reduce__(self):
        # Pickle and deepcopy rebuild the views over one buffer, not four arrays.
        return ClassifierParams, (self.layout, self.flat)

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
    return ClassifierParams(layout, flat)


def forward_batch(params: ClassifierParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features and softmax probabilities for a batch of inputs.

    The feature is the tanh hidden activation, or the input itself for a
    linear model. Both arrays are new on every call: callers such as the
    sensory memory keep them.
    """
    layout = params.layout
    x = _checked_inputs(layout, x)
    n = len(x)
    hidden = np.empty((n, layout.hidden_dim)) if layout.hidden_dim > 0 else None
    return _forward(params, x, hidden, np.empty((n, layout.n_categories)), np.empty((n, 1)), None)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` of two 2-D operands, with its bits.

    ``np.dot`` reaches the same BLAS routine with less dispatch, for operands
    with a unit stride along one axis, as every caller's are. The one shape
    where the two differ is 1x1 by 1x1: ``np.dot`` multiplies the pair and
    keeps a -0.0, where ``np.matmul`` adds the product to +0.0.
    """
    if a.size == 1 and b.size == 1:
        return np.matmul(a, b, out=out)
    return np.dot(a, b, out=out)


def _forward(
    params: ClassifierParams, x: np.ndarray, hidden: np.ndarray | None,
    logits: np.ndarray, row: np.ndarray, starts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass of a checked batch into the given buffers: (features, probabilities).

    ``hidden`` (n, H) receives the features, or is None for a linear model,
    whose features are ``x``. ``logits`` (n, C) receives the probabilities,
    and ``row`` (n, 1) the row softmax's row maximum, then its row sum;
    ``starts`` (n,) holds the index of each row's start in
    ``logits.reshape(-1)``, or is None for the softmax to make its own. Past
    ``SLAB_SOFTMAX_ROWS`` rows the softmax runs over category slabs instead.
    """
    if hidden is None:
        features = x
    else:
        _product(x, params.hidden_w.T, hidden)
        hidden += params.hidden_b
        features = np.tanh(hidden, out=hidden)
    _product(features, params.out_w.T, logits)
    logits += params.out_b
    if len(logits) > SLAB_SOFTMAX_ROWS:
        np.copyto(logits, numerics.softmax_slabs(np.ascontiguousarray(logits.T)).T)
    else:
        numerics.softmax_rows(logits, out=logits, row=row, starts=starts)
    return features, logits


def _checked_inputs(layout: Layout, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layout.input_dim:
        raise InvalidArgumentError(
            f"batch shape {x.shape} incompatible with input_dim {layout.input_dim}"
        )
    return x


def _checked_batch(layout: Layout, x: np.ndarray, labels: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as float64 rows and ``labels`` as one in-range class index per row."""
    x = _checked_inputs(layout, x)
    labels = np.asarray(labels)
    if labels.shape != (len(x),) or labels.dtype.kind not in "iu":
        raise InvalidArgumentError(
            f"labels must be {len(x)} integers, one per row, got {labels.dtype} {labels.shape}"
        )
    if len(x) == 0:
        raise InvalidArgumentError("empty batch")
    labels = labels.astype(np.intp, copy=False)
    # Viewed as unsigned, a negative label exceeds every class index. Counting
    # the labels past the last class costs less than a maximum reduce.
    if np.count_nonzero(labels.view(np.uintp) >= layout.n_categories):
        raise InvalidArgumentError("labels out of range")
    return x, labels


class _RowBuffers(NamedTuple):
    """Per-row buffers of one gradient step, for a batch of ``len(logits)`` rows."""

    hidden: np.ndarray  # (n, H) features
    dpre: np.ndarray  # (n, H) gradient at the tanh input
    slope: np.ndarray  # (n, H) tanh slope, 1 - features**2
    logits: np.ndarray  # (n, C) logits, then probabilities, then dL/dlogits
    row: np.ndarray  # (n, 1) softmax row maximum, then row sum
    offsets: np.ndarray  # (n,) index in ``logits.reshape(-1)`` of each row's start
    picked: np.ndarray  # (n,) index in ``logits.reshape(-1)`` of each row's label

    @classmethod
    def allocate(cls, layout: Layout, n: int) -> "_RowBuffers":
        h, c = layout.hidden_dim, layout.n_categories
        return cls(np.empty((n, h)), np.empty((n, h)), np.empty((n, h)), np.empty((n, c)),
                   np.empty((n, 1)), np.arange(0, n * c, c), np.empty(n, dtype=np.intp))

    def head(self, n: int) -> "_RowBuffers":
        return _RowBuffers(*(buffer[:n] for buffer in self))


class _StepScratch:
    """Buffers that one gradient step and one EMA update of a layout write into.

    Every buffer is overwritten before it is read, so all models of a layout
    share one set, and nothing a public function returns is a view of it.
    The per-row buffers hold the largest batch seen so far; the views of
    every batch size served are kept until the buffers grow, since a run
    serves a few sizes over and over (``confidence_st`` masks its batches).
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        self.grad = np.empty(layout.n_params)
        self.grad_views = layout.views(self.grad)
        self.finite = np.empty(layout.n_params, dtype=bool)
        self.ema = np.empty(layout.n_params)
        self._full = _RowBuffers.allocate(layout, 0)
        self._heads: dict[int, _RowBuffers] = {}

    def rows(self, n: int) -> _RowBuffers:
        """The per-row buffers for a batch of ``n`` rows."""
        head = self._heads.get(n)
        if head is None:
            if len(self._full.logits) < n:
                self._full = _RowBuffers.allocate(self.layout, n)
                self._heads.clear()
            head = self._heads[n] = self._full.head(n)
        return head


# One scratch per distinct layout, kept here rather than on the parameters so
# that the many models a caller may keep alive share it. Steps are not
# thread-safe.
_SCRATCH: dict[Layout, _StepScratch] = {}


def batch_loss(params: ClassifierParams, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the batch under the current parameters."""
    x, labels = _checked_batch(params.layout, x, labels)
    _, probs = forward_batch(params, x)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def loss_gradients(
    params: ClassifierParams, x: np.ndarray, labels: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, one buffer laid out like ``flat``.

    ``params.layout.views`` splits it into per-array gradients ordered like
    ``arrays()``. It is written into ``out`` when given, a float64 buffer of
    ``layout.n_params``, else into a new array.
    """
    layout = params.layout
    x, labels = _checked_batch(layout, x, labels)
    n = len(x)
    s = layout._step_scratch
    rows = s.rows(n)
    hidden = rows.hidden if layout.hidden_dim > 0 else None
    features, dlogits = _forward(params, x, hidden, rows.logits, rows.row, rows.offsets)
    # The probabilities, made dL/dlogits in place.
    picked = np.add(rows.offsets, labels, out=rows.picked)
    dlogits.reshape(-1)[picked] -= 1.0
    dlogits /= n
    grad = np.empty(layout.n_params) if out is None else out
    # A caller's buffer is checked like a parameter buffer; sgd_step's is the scratch's.
    *g_hidden, g_out_w, g_out_b = (
        s.grad_views if grad is s.grad else ClassifierParams(layout, grad).arrays()
    )
    _product(dlogits.T, features, g_out_w)
    np.add.reduce(dlogits, axis=0, out=g_out_b)
    if g_hidden:
        dpre = _product(dlogits, params.out_w, rows.dpre)
        slope = np.multiply(features, features, out=rows.slope)
        np.subtract(1.0, slope, out=slope)
        dpre *= slope
        _product(dpre.T, x, g_hidden[0])
        np.add.reduce(dpre, axis=0, out=g_hidden[1])
    return grad


def epoch_length(n: int, batch_size: int) -> int:
    """Batches in one pass over ``n`` samples; the last one may be short."""
    return max(1, math.ceil(n / batch_size))


class EpochSampler:
    """Without-replacement batch indices; reshuffles at each epoch boundary."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise InvalidArgumentError("sampler needs at least one sample")
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = rng.permutation(n)
        self._cursor = 0

    def next_batch(self) -> np.ndarray:
        if self._cursor >= self.n:
            self._order = self.rng.permutation(self.n)
            self._cursor = 0
        batch = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch


def sgd_step(
    params: ClassifierParams, x: np.ndarray, labels: np.ndarray, lr: float
) -> ClassifierParams:
    """In-place gradient step on the mean cross-entropy; returns ``params``.

    Not thread-safe: steps on models of equal layouts share scratch buffers.
    """
    if not math.isfinite(lr) or lr < 0.0:
        raise InvalidArgumentError(f"learning rate must be finite and >= 0, got {lr}")
    s = params.layout._step_scratch
    grad = loss_gradients(params, x, labels, out=s.grad)
    # Counting the finite entries costs less than a logical-and reduce.
    if np.count_nonzero(np.isfinite(grad, out=s.finite)) != grad.size:
        raise NumericFailureError("non-finite gradient")
    grad *= lr
    params.flat -= grad
    return params


def momentum_update(mm: MomentumModel, student: ClassifierParams) -> MomentumModel:
    """EMA update of the momentum parameters toward the student's."""
    # A run's models share one layout object; comparing its fields costs more.
    if mm.params.layout is not student.layout and mm.params.layout != student.layout:
        raise InvalidArgumentError(
            f"layout mismatch: {mm.params.layout} vs {student.layout}"
        )
    g = mm.gamma
    mm.params.flat *= g
    mm.params.flat += np.multiply(student.flat, 1.0 - g, out=student.layout._step_scratch.ema)
    return mm


def save_params(params: ClassifierParams, path: str | Path) -> None:
    """Write ``params`` as JSON: the layout, the output pair, then the hidden pair if any."""
    views = dict(zip(params.layout.shapes, params.arrays()))
    payload = {"layout": asdict(params.layout)}
    for name in sorted(views, key=lambda name: name.startswith("hidden")):
        payload[name] = views[name].tolist()
    Path(path).write_text(json.dumps(payload))


def load_params(path: str | Path) -> ClassifierParams:
    """Parameters written by ``save_params``.

    A file that is not such a checkpoint of finite numbers (malformed JSON, a
    missing key, a non-numeric or misshapen array, a NaN) is a ``DataError``
    that names ``path``.
    """
    try:
        payload = json.loads(Path(path).read_text())
        layout = Layout(**payload["layout"])
        flat = np.empty(layout.n_params)
        for (name, shape), view in zip(layout.shapes.items(), layout.views(flat)):
            array = np.asarray(payload[name])
            if array.dtype.kind not in "if":
                raise DataError(f"{name} holds {array.dtype} values, not numbers")
            if array.shape != shape:
                raise DataError(f"{name} shape {array.shape} != {shape}")
            view[...] = array
    except KeyError as exc:
        raise DataError(f"{path}: model checkpoint has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model checkpoint: {exc}") from None
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: model checkpoint has non-finite weights")
    return ClassifierParams(layout, flat)
