"""Three interacting feature memories and their bi-directional flows.

Forward flow per step: the sensory buffer is replaced by the fresh batch, the
most uncertain batch members are enqueued into a fixed-capacity FIFO, and
everything evicted from either store is compacted into per-category long-term
centroids by momentum averaging. Backward flow: long-term centroids reweight
the queue's stored probabilities, then long-term and queue centroids together
assign new probabilities to the sensory buffer. Each flow is an independent
switch so any subset can be run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics
from .errors import InvalidArgumentError

# compute_centroids sums every category at once in a stack padded to the
# largest category while that category's rows take at most this many bytes;
# past it the padding costs more than a loop over the categories.
CENTROID_GROUP_BYTES = 1 << 15


@dataclass(frozen=True)
class MemorySlot:
    """Read-only view of one stored row: id, encoder feature, category probabilities."""

    sample_id: int
    feature: np.ndarray
    prob: np.ndarray


@dataclass(eq=False)
class Rows:
    """Memory rows in FIFO order: ``ids (n,)``, ``features (n, D)``, ``probs (n, C)``.

    Kept oldest first rather than as a ring buffer, so a per-category mean
    adds its rows in arrival order wherever they are stored. Queue
    calibration writes the queue's ``probs`` in place, so rows meant to
    outlive it, such as evicted ones, are copies.
    """

    ids: np.ndarray
    features: np.ndarray
    probs: np.ndarray

    @classmethod
    def empty(cls, feature_dim: int, n_categories: int) -> "Rows":
        return cls(np.zeros(0, dtype=np.int64), np.zeros((0, feature_dim)), np.zeros((0, n_categories)))

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.ids, self.features, self.probs

    def copy(self) -> "Rows":
        return Rows(*(column.copy() for column in self.columns))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index) -> "Rows":
        return Rows(*(column[index] for column in self.columns))

    def __setitem__(self, index, other: "Rows") -> None:
        for column, values in zip(self.columns, other.columns):
            column[index] = values

    def views(self) -> list[MemorySlot]:
        return [MemorySlot(int(i), f, p) for i, f, p in zip(self.ids, self.features, self.probs)]


@dataclass
class FlowConfig:
    """Switches for the three forward and three backward memory flows."""

    sm_to_st: bool = True
    sm_to_lt: bool = True
    st_to_lt: bool = True
    sm_from_st: bool = True
    sm_from_lt: bool = True
    st_from_lt: bool = True

    @classmethod
    def all_enabled(cls) -> "FlowConfig":
        return cls()

    @classmethod
    def none(cls) -> "FlowConfig":
        return cls(False, False, False, False, False, False)

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


@dataclass
class SensoryMemory:
    """Per-iteration buffer holding the current batch; fully replaced each step.

    ``refresh`` is the batch boundary: it validates every row once, and the
    rows other memories take from the buffer are not checked again.
    """

    feature_dim: int
    n_categories: int
    rows: Rows = field(init=False)

    def __post_init__(self) -> None:
        self.rows = Rows.empty(self.feature_dim, self.n_categories)

    @property
    def slots(self) -> list[MemorySlot]:
        return self.rows.views()

    def refresh(self, ids: np.ndarray, features: np.ndarray, probs: np.ndarray) -> Rows:
        """Replace contents with the batch; returns the previous contents."""
        ids = np.asarray(ids, dtype=np.int64)
        features, probs = np.asarray(features, dtype=float), np.asarray(probs, dtype=float)
        n, dims = ids.size, (self.feature_dim, self.n_categories)
        if n == 0:
            raise InvalidArgumentError("sensory refresh requires a non-empty batch")
        if (ids.shape, features.shape, probs.shape) != ((n,), (n, dims[0]), (n, dims[1])):
            raise InvalidArgumentError(f"batch shapes {ids.shape} {features.shape} {probs.shape}, "
                                       f"expected {n} rows of (feature_dim, n_categories) {dims}")
        if not numerics.prob_rows_valid(probs).all():
            raise InvalidArgumentError(f"batch probability rows must be non-negative and sum to 1 "
                                       f"within {numerics.PROB_SUM_TOL}")
        evicted, self.rows = self.rows, Rows(ids, features, probs)
        return evicted


def select_hard(mem: SensoryMemory, n: int) -> Rows:
    """The ``n`` buffered rows with the highest prediction entropy.

    Returned in descending entropy order; exact ties go to the lower
    sample id.
    """
    rows = mem.rows
    if n < 1 or n > len(rows):
        raise InvalidArgumentError(f"n={n} out of range for {len(rows)} rows")
    order = np.lexsort((rows.ids, -numerics.entropy_rows(rows.probs)))[:n]
    return Rows(*(column.take(order, axis=0) for column in rows.columns))


@dataclass
class ShortTermMemory:
    """Fixed-capacity FIFO queue of hard samples; evicts strictly from the front.

    The queue lives oldest first in a sliding window of twice the capacity,
    and ``rows`` views its live part. A push writes the new rows past the
    last one and moves the front past the evicted ones. Only when the new
    rows would pass the end of the window do the kept rows move back to its
    start, once every ``capacity / n`` pushes of ``n`` rows, so a push
    copies O(n) rows, not the whole queue.
    """

    capacity: int
    feature_dim: int
    n_categories: int
    rows: Rows = field(init=False)
    _window: Rows = field(init=False, repr=False)
    _front: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        size = 2 * self.capacity
        self._window = Rows(np.zeros(size, dtype=np.int64), np.zeros((size, self.feature_dim)),
                            np.zeros((size, self.n_categories)))
        self.rows = self._window[0:0]

    @property
    def queue(self) -> list[MemorySlot]:
        return self.rows.views()

    def push(self, incoming: Rows) -> Rows:
        """Append ``incoming``; evict from the front only once full.

        Returns copies of the evicted rows in eviction order.
        """
        n = len(incoming)
        if n > self.capacity:
            raise InvalidArgumentError(f"cannot enqueue {n} rows into capacity {self.capacity}")
        front, end = self._front, self._front + len(self.rows)
        overflow = max(end - front + n - self.capacity, 0)
        evicted = self._window[front:front + overflow].copy()
        front += overflow
        if end + n > len(self._window):
            # front > capacity >= end - front here, so the two ranges do not overlap.
            self._window[:end - front] = self._window[front:end]
            front, end = 0, end - front
        self._window[end:end + n] = incoming
        self._front = front
        self.rows = self._window[front:end + n]
        return evicted


def compute_centroids(
    features: np.ndarray, probs: np.ndarray, n_categories: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-category mean features, with category = argmax of the stored prob.

    Returns ``(centroids, counts)``; a category with no contributors keeps a
    zero centroid and count 0. Argmax ties go to the lowest category. A
    stable sort groups each category's rows in their stored order, so every
    mean adds the same rows in the same order as a masked ``mean(axis=0)``.

    While the largest category holds at most ``CENTROID_GROUP_BYTES``, the
    grouped rows go into a ``(max count, k, D)`` stack padded with -0.0 and
    summed in one ``sum(axis=0)``: that adds rows one after another, and
    ``x + (-0.0)`` is exactly ``x``. At ``D = 1`` numpy would sum each
    category pairwise along the rows instead, so there, and for larger
    categories, each category is summed on its own.
    """
    if len(features) == 0:
        raise InvalidArgumentError("cannot compute centroids of an empty row set")
    labels = probs.argmax(axis=1)
    counts = np.bincount(labels, minlength=n_categories)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    dim = features.shape[1]
    largest = int(counts.max())
    if dim > 1 and largest * dim * features.itemsize <= CENTROID_GROUP_BYTES:
        # Row i goes to slot (rank within its category, its category).
        slots = np.empty_like(order)
        slots[order] = np.arange(len(order)) - starts[labels[order]]
        slots *= n_categories
        slots += labels
        stack = np.full((largest * n_categories, dim), -0.0)
        stack[slots] = features
        centroids = stack.reshape(-1, n_categories, dim).sum(axis=0)
        centroids /= np.maximum(counts, 1)[:, None]
        centroids[counts == 0] = 0.0
        return centroids, counts
    grouped = features[order]
    centroids = np.zeros((n_categories, dim), dtype=np.float64)
    for c in np.flatnonzero(counts):
        centroids[c] = grouped[starts[c]:starts[c] + counts[c]].sum(axis=0) / counts[c]
    return centroids, counts


@dataclass
class LongTermCentroids:
    """Per-category feature centroids accumulated by momentum averaging.

    ``momentum`` weights the old centroid; a category's first contribution is
    written through unchanged. Uninitialized categories hold a zero vector;
    calibration reads the centroids only once every category is initialized.
    """

    n_categories: int
    feature_dim: int
    momentum: float
    centroids: np.ndarray = field(init=False)
    initialized: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidArgumentError(f"momentum must be in [0, 1), got {self.momentum}")
        self.centroids = np.zeros((self.n_categories, self.feature_dim), dtype=np.float64)
        self.initialized = np.zeros(self.n_categories, dtype=bool)

    def consolidate(self, features: np.ndarray, probs: np.ndarray) -> None:
        """Fold contributor centroids in; no-op on an empty contributor set."""
        if len(features) == 0:
            return
        fresh, counts = compute_centroids(features, probs, self.n_categories)
        present, m = counts > 0, self.momentum
        # Blend every category as (1-m)·fresh + m·old, write first
        # contributions through, and keep categories without contributors.
        blended = fresh * (1.0 - m)
        blended += self.centroids * m
        np.copyto(blended, fresh, where=~self.initialized[:, None])
        np.copyto(self.centroids, blended, where=present[:, None])
        self.initialized |= present


def long_term_consolidate(
    lt: LongTermCentroids,
    evicted_sensory: Rows,
    evicted_short: Rows,
    flows: FlowConfig,
) -> LongTermCentroids:
    """Consolidate the step's evictions, gated by the two forward flows into LT."""
    flowing = ((evicted_sensory, flows.sm_to_lt), (evicted_short, flows.st_to_lt))
    parts = [rows for rows, enabled in flowing if enabled]
    if parts:
        lt.consolidate(np.concatenate([p.features for p in parts]),
                       np.concatenate([p.probs for p in parts]))
    return lt


def centroid_weights(features: np.ndarray, *sources: np.ndarray) -> np.ndarray:
    """Distance-softmax weights of ``features`` against one or more centroid sets.

    Row ``i`` is the softmax of minus the L1 distances between ``features[i]``
    and each category's centroid, summed over ``sources``. All sources are
    scored in one L1 call and their category-major blocks added in source
    order; the result is the ``(n, k)`` transpose of a C-contiguous ``(k, n)``
    array.
    """
    k = len(sources[0])
    distances = numerics.l1_distances(features, np.concatenate(sources)).T
    scores = distances[:k]
    for start in range(k, len(distances), k):
        scores += distances[start:start + k]
    np.negative(scores, out=scores)
    return numerics.softmax_slabs(scores).T


def _count(warnings: dict[str, int], key: str, n: int = 1) -> None:
    warnings[key] = warnings.get(key, 0) + n


def _reweight_rows(
    probs: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Vectorized reweight+renormalize; degenerate rows fall back to uniform.

    Returns the calibrated rows, written to ``out`` (which may be ``probs``)
    when given, and the number of degenerate fallbacks. An all-zero row is
    degenerate whatever the sign of its zero sum.
    """
    out = np.multiply(probs, weights, out=np.empty(probs.shape) if out is None else out)
    totals = np.add.reduce(out, axis=1)
    degenerate = totals <= 0.0
    totals[degenerate] = 1.0
    out /= totals[:, None]
    out[degenerate] = 1.0 / probs.shape[1]
    return out, int(degenerate.sum())


def calibrate_short_term(
    mem: ShortTermMemory, lt_centroids: np.ndarray | None, warnings: dict[str, int]
) -> ShortTermMemory:
    """Reweight every queued probability by long-term distance weights.

    Skipped with a warning when the long-term source is not usable (None).
    """
    if lt_centroids is None:
        _count(warnings, "short_term_calibration_skipped")
        return mem
    if len(mem.rows) == 0:
        return mem
    weights = centroid_weights(mem.rows.features, lt_centroids)
    _, n_degenerate = _reweight_rows(mem.rows.probs, weights, out=mem.rows.probs)
    if n_degenerate:
        _count(warnings, "degenerate_reweight", n_degenerate)
    return mem


def sensory_calibration_probs(
    features: np.ndarray, probs: np.ndarray, sources: list[np.ndarray]
) -> tuple[np.ndarray, bool]:
    """``(probs, calibrated)``: ``centroid_weights`` against ``sources``, or a
    copy of the inputs and False when no source was given."""
    if not sources:
        return probs.copy(), False
    return centroid_weights(features, *sources), True


def short_term_summary(mem: ShortTermMemory, n_categories: int) -> np.ndarray | None:
    """Queue centroids, or None while the queue does not hold every category."""
    if len(mem.rows) == 0:
        return None
    centroids, counts = compute_centroids(mem.rows.features, mem.rows.probs, n_categories)
    return centroids if counts.all() else None


@dataclass
class BiMemState:
    """The three memories plus bookkeeping for one adaptation run.

    ``warmup`` delays backward calibration: forward memorization runs from
    step 1, but calibration stays off until ``steps > warmup`` so the
    encoder's feature space can organize on the raw labels first. Cold-start
    features make distance-softmax calibration destructive, so 0 is only
    sensible for encoders that start out meaningful.
    """

    sensory: SensoryMemory
    short_term: ShortTermMemory
    long_term: LongTermCentroids
    top_n: int
    warmup: int = 0
    steps: int = 0
    warnings: dict[str, int] = field(default_factory=dict)
    # The last step's backward_sources, which evaluations calibrate from. Its
    # long-term entry is the live centroids array: valid only until the next
    # step consolidates into it and replaces the list.
    sources: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        n_categories: int,
        feature_dim: int,
        queue_capacity: int,
        top_n: int,
        centroid_momentum: float,
        warmup: int = 0,
    ) -> "BiMemState":
        if top_n < 1:
            raise InvalidArgumentError(f"top_n must be >= 1, got {top_n}")
        if queue_capacity < top_n:
            raise InvalidArgumentError(
                f"queue capacity {queue_capacity} smaller than top_n {top_n}"
            )
        if warmup < 0:
            raise InvalidArgumentError(f"warmup must be >= 0, got {warmup}")
        return cls(
            sensory=SensoryMemory(feature_dim, n_categories),
            short_term=ShortTermMemory(queue_capacity, feature_dim, n_categories),
            long_term=LongTermCentroids(n_categories, feature_dim, centroid_momentum),
            top_n=top_n,
            warmup=warmup,
        )

    @property
    def n_categories(self) -> int:
        return self.long_term.n_categories

    @property
    def feature_dim(self) -> int:
        return self.long_term.feature_dim

    @property
    def backward_ready(self) -> bool:
        return self.steps > self.warmup

    def backward_sources(self, flows: FlowConfig) -> list[np.ndarray]:
        """A step's enabled, usable sensory sources: long-term, then queue centroids.

        This is the one readiness gate of the backward flows. Nothing is
        computed during the warm-up, and a source is unusable while it does
        not represent every category. Calibrating from a partial source would
        zero the missing categories out of every stored probability; since
        consolidation categories come from those stored probabilities, a
        category absent at the first calibration could never be remembered
        again. Gating on full coverage makes the warm-up phase train on the
        raw black-box labels instead.

        With ``flows.st_from_lt`` the long-term source first reweights the
        queue (``calibrate_short_term``), so the queue centroids come from the
        rectified probabilities. Counts ``sensory_calibration_skipped`` when
        sensory flows are on but no source is usable.
        """
        if not self.backward_ready:
            return []
        lt_centroids = self.long_term.centroids if self.long_term.initialized.all() else None
        if flows.st_from_lt:
            calibrate_short_term(self.short_term, lt_centroids, self.warnings)
        sources = [lt_centroids] if flows.sm_from_lt and lt_centroids is not None else []
        if flows.sm_from_st:
            st_centroids = short_term_summary(self.short_term, self.n_categories)
            if st_centroids is not None:
                sources.append(st_centroids)
        if not sources and (flows.sm_from_lt or flows.sm_from_st):
            _count(self.warnings, "sensory_calibration_skipped")
        return sources


def bimem_step(
    state: BiMemState, ids: np.ndarray, features: np.ndarray, probs: np.ndarray, flows: FlowConfig
) -> tuple[np.ndarray, bool]:
    """One full forward-memorization + backward-calibration pass.

    Runs, in order: sensory refresh, uncertainty selection into the FIFO
    queue, consolidation of this step's evictions into the long-term
    centroids, queue calibration by the long-term memory, and sensory
    calibration by long-term and queue centroids, kept as ``state.sources``.
    Backward flows engage only past the warm-up and once their source covers
    every category (see ``BiMemState.backward_sources``).
    Returns the sensory buffer's probabilities after calibration and whether
    any backward flow actually touched them (False means pass-through, e.g.
    during warm-up or with backward flows disabled).
    """
    state.steps += 1
    evicted_sensory = state.sensory.refresh(ids, features, probs)
    batch = state.sensory.rows
    if flows.sm_to_st:
        selected = select_hard(state.sensory, min(state.top_n, len(batch)))
        evicted_short = state.short_term.push(selected)
    else:
        evicted_short = Rows.empty(state.feature_dim, state.n_categories)
    long_term_consolidate(state.long_term, evicted_sensory, evicted_short, flows)
    state.sources = state.backward_sources(flows)
    calibrated, applied = sensory_calibration_probs(batch.features, batch.probs, state.sources)
    if applied:
        batch.probs = calibrated
    return calibrated, applied
