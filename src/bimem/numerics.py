"""Deterministic vector arithmetic shared by every other module.

Probability vectors are plain float64 numpy arrays on the simplex; feature
vectors are float64 arrays of fixed dimension. All tie-breaks resolve to the
lowest index so that identical inputs always produce identical trajectories.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import InvalidArgumentError

# Default equality tolerance for float comparisons throughout the package.
DEFAULT_TOL = 1e-9
# Allowed deviation of a probability vector's sum from 1.
PROB_SUM_TOL = 1e-6


def check_prob_vector(p: Sequence[float] | np.ndarray, name: str = "p") -> np.ndarray:
    """Validate and return ``p`` as a probability vector (float64 copy-free)."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidArgumentError(f"{name} must have at least one category")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    if np.any(arr < 0.0):
        raise InvalidArgumentError(f"{name} has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidArgumentError(f"{name} sums to {total!r}, expected 1 within {PROB_SUM_TOL}")
    return arr


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D score matrix, stabilized by max subtraction."""
    exps = scores - scores.max(axis=1, keepdims=True)
    np.exp(exps, out=exps)
    exps /= exps.sum(axis=1, keepdims=True)
    return exps


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise entropy in nats for a matrix of probability vectors, 0·log 0 = 0."""
    safe = np.where(probs > 0.0, probs, 1.0)
    values = -(probs * np.log(safe)).sum(axis=1)
    return np.maximum(values, 0.0)


def l1_distances(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` sums of absolute coordinate differences, row ``i`` to centroid ``j``.

    The absolute value is taken in place in the one ``(n, k, D)`` temporary.
    Summing its contiguous last axis keeps numpy's pairwise order, which the
    traces depend on; other layouts or a matrix form round differently.
    """
    diffs = features[:, None, :] - centroids[None, :, :]
    np.abs(diffs, out=diffs)
    return diffs.sum(axis=2)
