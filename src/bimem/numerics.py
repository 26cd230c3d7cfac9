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
# Largest (D, k, rows) float buffer, in bytes, that l1_distances fills at once;
# 1 MiB stays in a 2 MiB L2 cache next to the kernel's other arrays.
L1_BLOCK_BYTES = 1 << 20
# l1_distances takes the broadcast form up to this many (row, centroid) pairs
# while its (n, k, D) difference array stays within L1_BROADCAST_BYTES. It
# makes 3 numpy calls where the blocked form makes a dozen or more, but it
# runs one inner loop per pair, and a difference array much past 128 KiB
# costs more to allocate and fill than the blocked form's calls.
L1_BROADCAST_PAIRS = 512
L1_BROADCAST_BYTES = 1 << 17


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


def prob_rows_valid(probs: np.ndarray) -> np.ndarray:
    """Per row of ``probs``: finite, non-negative and summing to 1 within ``PROB_SUM_TOL``.

    ``check_prob_vector``'s rule, applied to every row at once.
    """
    # NaN and infinite entries fail one of these two comparisons.
    sums_to_one = np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL
    return sums_to_one & (probs >= 0.0).all(axis=1)


def softmax_rows(scores: np.ndarray, out: np.ndarray | None = None,
                 row: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax of a 2-D score matrix, stabilized by max subtraction.

    Written into ``out`` when given, which may be ``scores`` itself; an
    ``(n, 1)`` buffer ``row`` takes the row maximum, then the row sum.
    """
    row = np.maximum.reduce(scores, axis=1, keepdims=True, out=row)
    exps = np.subtract(scores, row, out=out)
    np.exp(exps, out=exps)
    exps /= np.add.reduce(exps, axis=1, keepdims=True, out=row)
    return exps


def softmax_slabs(scores: np.ndarray) -> np.ndarray:
    """Softmax over the categories of a ``(k, n)`` score array, in place.

    Bit-identical to ``softmax_rows(scores.T).T``. Every operation runs over
    whole category slabs of ``n`` values, where ``softmax_rows`` runs one
    ``k``-term loop per row. The maximum is exact in any order; a tie of -0.0
    with +0.0 can only flip the sign of a zero that ``exp`` maps to 1. The
    sum runs over the slabs in numpy's order over a row.
    """
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    totals = scores.copy()
    _pairwise_sum_slabs(totals)
    scores /= totals[0]
    return scores


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise entropy in nats for a matrix of probability vectors, 0·log 0 = 0."""
    safe = np.where(probs > 0.0, probs, 1.0)
    values = -(probs * np.log(safe)).sum(axis=1)
    return np.maximum(values, 0.0)


def l1_distances(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` sums of absolute coordinate differences, row ``i`` to centroid ``j``.

    Bit-identical to ``np.abs(features[:, None, :] - centroids[None]).sum(axis=2)``,
    whose pairwise summation order the traces depend on. Computed
    dimension-major, in row blocks of at most ``L1_BLOCK_BYTES``, so numpy's
    inner loops run over the rows instead of over the ``D`` coordinates of one
    pair. Small inputs take the broadcast form itself. The result is the
    transpose of a C-contiguous ``(k, n)`` array: its ``.T`` is the
    category-major layout that ``softmax_slabs`` reads.
    """
    n, dim = features.shape
    k = len(centroids)
    dtype = np.result_type(features, centroids)
    if n * k <= L1_BROADCAST_PAIRS and n * k * dim * dtype.itemsize <= L1_BROADCAST_BYTES:
        diffs = features[:, None, :] - centroids[None]
        np.abs(diffs, out=diffs)
        return np.ascontiguousarray(np.add.reduce(diffs, axis=2).T).T
    rows = max(1, min(n, L1_BLOCK_BYTES // (k * dim * dtype.itemsize)))
    centroids_t = centroids.T[:, :, None]
    out = np.empty((k, n), dtype=dtype)
    features_t = np.empty((dim, rows), dtype=dtype)
    block = np.empty((dim, k, rows), dtype=dtype)
    for start in range(0, n, rows):
        m = min(rows, n - start)
        diffs = block[:, :, :m]
        # Copying, then subtracting in place, runs faster than one broadcast subtract.
        np.copyto(features_t[:, :m], features[start:start + m].T)
        np.copyto(diffs, features_t[:, None, :m])
        diffs -= centroids_t
        np.abs(diffs, out=diffs)
        _pairwise_sum_slabs(diffs)
        out[:, start:start + m] = diffs[0]
    return out.T


def _pairwise_sum_slabs(slabs: np.ndarray) -> None:
    """Leave in ``slabs[0]`` the sum of all ``slabs``, in numpy's pairwise order.

    This is the order of numpy's ``pairwise_sum`` over a contiguous axis,
    applied to whole slabs: fewer than 8 terms are added in order; up to 128
    go into eight partial sums ``r_j = x_j + x_{j+8} + ...``, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` before the ``n % 8`` tail is
    added in order; more are split at ``n // 2`` rounded down to a multiple
    of 8 and the two halves summed recursively. Overwrites the other slabs.
    """
    n = len(slabs)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _pairwise_sum_slabs(slabs[:half])
        _pairwise_sum_slabs(slabs[half:])
        slabs[0] += slabs[half]
        return
    tail = 1
    if n >= 8:
        partial = slabs[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            partial += slabs[i:i + 8]
        np.add(partial[0::2], partial[1::2], out=partial[0::2])
        np.add(partial[0::4], partial[2::4], out=partial[0::4])
        partial[0] += partial[4]
    for i in range(tail, n):
        slabs[0] += slabs[i]
