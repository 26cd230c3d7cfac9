"""Bit-for-bit checks of the memory and model kernels against straight-line references.

``numerics.l1_distances`` runs dimension-major in row blocks above a size
threshold; ``memory.compute_centroids`` switches by input size to a padded
form; the calibration kernels ``centroid_weights`` and
``sensory_calibration_probs``, and the model's softmax over more than
``model.SLAB_SOFTMAX_ROWS`` rows, run category-major, over slabs of one
category each; ``LongTermCentroids.consolidate`` blends whole arrays in place
of masked rows; ``model.sgd_step`` and ``model.momentum_update`` update the
whole flat parameter buffer in one operation, through scratch buffers shared
by every model of a layout. The references below are the row-major and
per-array forms they replace. ``_reweight_rows`` runs row-major in place, in the layout the
queue stores, so its reference is the same computation written out of place;
it guards the in-place write and the degenerate rows. Every output must equal
its reference bit for bit, signs of zeros included, so traces keep their bytes.
Stacked ``matmul``, which would run several seeds as one array, is pinned to
its 2-D products the same way, and the model's 2-D product helper, which calls
``np.dot``, to ``np.matmul``. ``softmax_rows`` takes its row maximum in one
segmented reduce; its reference takes it per row.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bimem import memory, model, numerics
from bimem.memory import compute_centroids


def reference_l1_distances(features, centroids):
    return np.abs(features[:, None, :] - centroids[None, :, :]).sum(axis=2)


def reference_softmax_rows(scores):
    exps = scores - scores.max(axis=1, keepdims=True)
    np.exp(exps, out=exps)
    exps /= exps.sum(axis=1, keepdims=True)
    return exps


def reference_centroid_weights(features, centroids):
    return reference_softmax_rows(-reference_l1_distances(features, centroids))


def reference_reweight_rows(probs, weights):
    out = probs * weights
    totals = out.sum(axis=1)
    degenerate = totals <= 0.0
    totals[degenerate] = 1.0
    out /= totals[:, None]
    out[degenerate] = 1.0 / probs.shape[1]
    return out, int(degenerate.sum())


def reference_sensory_probs(features, sources):
    """One L1 call per source, summed in source order, then the row-major softmax."""
    return reference_softmax_rows(-sum(reference_l1_distances(features, c) for c in sources))


def reference_centroids(features, probs, n_categories):
    labels = probs.argmax(axis=1)
    centroids = np.zeros((n_categories, features.shape[1]), dtype=np.float64)
    counts = np.zeros(n_categories, dtype=np.int64)
    for c in range(n_categories):
        mask = labels == c
        counts[c] = int(mask.sum())
        if counts[c] > 0:
            centroids[c] = features[mask].mean(axis=0)
    return centroids, counts


def reference_consolidate(centroids, initialized, features, probs, momentum):
    """The masked blend: (1-m)·fresh + m·old where a category is present and
    initialized, fresh where it is present for the first time."""
    fresh, counts = reference_centroids(features, probs, len(centroids))
    present = counts > 0
    blend = present & initialized
    centroids[blend] = (1.0 - momentum) * fresh[blend] + momentum * centroids[blend]
    first = present & ~initialized
    centroids[first] = fresh[first]
    initialized |= present


def reference_forward(weights, x):
    """Features and row-major softmax of (w1, b1, w2, b2) of a tanh classifier,
    or (w, b) of a linear one."""
    *hidden, w, b = weights
    features = np.tanh(x @ hidden[0].T + hidden[1]) if hidden else x
    return features, reference_softmax_rows(features @ w.T + b)


def reference_gradients(weights, x, labels):
    """Per-array gradients of the mean cross-entropy, in ``weights`` order."""
    n = len(labels)
    *hidden, w, _ = weights
    features, dlogits = reference_forward(weights, x)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = [dlogits.T @ features, dlogits.sum(axis=0)]
    if hidden:
        dpre = (dlogits @ w) * (1.0 - features * features)
        grads = [dpre.T @ x, dpre.sum(axis=0), *grads]
    return grads


def reference_sgd_step(weights, x, labels, lr):
    for array, grad in zip(weights, reference_gradients(weights, x, labels)):
        array -= lr * grad


def reference_momentum_update(tracked, student, gamma):
    for pm, ps in zip(tracked, student):
        pm *= gamma
        pm += (1.0 - gamma) * ps


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def mixed_values(rng, shape, zeros, spread):
    """Normal draws scaled by 10**[-spread, spread], a ``zeros`` share of them
    replaced by -0.0 or +0.0. Mixed magnitudes make the sums order-sensitive."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-spread, spread + 1, size=shape)
    hit = rng.random(shape) < zeros
    values[hit] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[hit]
    return values


# n rows, k centroids or categories, D features; D need not be a multiple of 8.
SIZES = dict(
    n=st.integers(1, 300),
    k=st.integers(1, 25),
    d=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    spread=st.integers(0, 12),
)


# Category counts for the calibration kernels: every branch of numpy's
# pairwise order over a row (fewer than 8 terms, a tail past a multiple of 8,
# the split above 128) with the sizes of the lab's runs.
CATEGORY_SIZES = dict(
    n=st.integers(1, 300),
    k=st.integers(1, 130),
    d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    spread=st.integers(0, 12),
)
CATEGORY_CASES = [
    dict(n=1, k=1, d=1, seed=0, zeros=1.0, spread=0),
    dict(n=1024, k=20, d=32, seed=1, zeros=0.0, spread=0),
    dict(n=256, k=5, d=32, seed=2, zeros=0.1, spread=1),
    *(dict(n=37, k=k, d=3, seed=3 + k, zeros=0.1, spread=12)
      for k in (7, 8, 9, 16, 17, 127, 128, 129, 130)),
]


def centroids_with_ties(rng, features, k, zeros, spread):
    """Mixed centroids; some repeat another (tied distances, so argmax ties)
    and one repeats a feature row (a distance of exactly 0)."""
    centroids = mixed_values(rng, (k, features.shape[1]), zeros, spread)
    repeats = rng.random(k) < 0.2
    centroids[repeats] = centroids[rng.integers(k)]
    centroids[rng.integers(k)] = features[rng.integers(len(features))]
    return centroids


def non_negative_with_zeros(rng, shape, zeros, spread):
    """``mixed_values`` folded to non-negative values: its -0.0 entries stay
    -0.0. A fifth of the rows are all zeros of either sign, and some entries
    sit near 1e-170, so their products underflow to 0."""
    values = mixed_values(rng, shape, zeros, spread)
    values = np.where(values == 0.0, values, np.abs(values))
    values[rng.random(shape[0]) < 0.2] = np.where(rng.random(shape[1]) < 0.5, -0.0, 0.0)
    tiny = rng.random(shape) < 0.1
    values[tiny] *= 1e-170
    return values


# Widths that reach every branch of numpy's pairwise order the blocked L1
# rebuilds: fewer than 8 terms, a tail past a multiple of 8, and the split
# above 128.
SWITCH_WIDTHS = (1, 7, 8, 9, 31, 32, 33, 130)


def with_examples(cases):
    def apply(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return apply


def l1_switch_cases():
    """Per width, a row set under ``L1_BLOCK_BYTES`` and two over it: one a
    whole number of row blocks, one not."""
    for i, d in enumerate(SWITCH_WIDTHS):
        rows = numerics.L1_BLOCK_BYTES // (20 * d * 8)
        for n in (32, 3 * rows, 2 * rows + 3):
            yield dict(n=n, k=20 if n > 32 else 5, d=d, seed=i, zeros=0.1 + 0.4 * (n % 2),
                       spread=12)


def l1_broadcast_cases():
    """Inputs at ``L1_BROADCAST_PAIRS`` pairs and ``L1_BROADCAST_BYTES``, the
    broadcast form's limits, and just past each (the blocked form)."""
    pairs = numerics.L1_BROADCAST_PAIRS
    width = numerics.L1_BROADCAST_BYTES // (8 * pairs)
    for i, (n, k, d) in enumerate([(32, 5, 32), (32, pairs // 32, width), (pairs + 1, 1, 8),
                                   (1, pairs + 1, 1), (32, pairs // 32, width + 1),
                                   (pairs // 8, 8, width), (pairs // 8 + 1, 8, 2)]):
        yield dict(n=n, k=k, d=d, seed=40 + i, zeros=0.1, spread=12)


def centroid_switch_cases():
    """Per width, a row set whose largest category fits ``CENTROID_GROUP_BYTES``
    (the padded stack, except at width 1) and one whose largest category does
    not (the loop over categories)."""
    for i, d in enumerate(SWITCH_WIDTHS):
        large = 4 * (memory.CENTROID_GROUP_BYTES // (8 * d)) + 5
        for n, k, present in ((64, 20, 20), (large, 5, 2)):
            yield dict(n=n, k=k, d=d, seed=i, zeros=0.5, spread=12, present=present)


@given(**SIZES)
@example(n=1, k=1, d=1, seed=0, zeros=1.0, spread=0)
@example(n=300, k=25, d=40, seed=1, zeros=0.0, spread=12)
@with_examples(l1_switch_cases())
@with_examples(l1_broadcast_cases())
def test_l1_distances_match_broadcast_reference(n, k, d, seed, zeros, spread):
    rng = np.random.default_rng(seed)
    features = mixed_values(rng, (n, d), zeros, spread)
    centroids = mixed_values(rng, (k, d), zeros, spread)
    # Repeat a feature row as a centroid, so some distances are exactly 0.
    centroids[0] = features[rng.integers(n)]
    distances = numerics.l1_distances(features, centroids)
    assert_bitwise_equal(distances, reference_l1_distances(features, centroids))
    assert distances.T.flags.c_contiguous


@given(**CATEGORY_SIZES)
@with_examples(CATEGORY_CASES)
def test_centroid_weights_match_row_major_softmax(n, k, d, seed, zeros, spread):
    rng = np.random.default_rng(seed)
    features = mixed_values(rng, (n, d), zeros, spread)
    centroids = centroids_with_ties(rng, features, k, zeros, spread)
    assert_bitwise_equal(memory.centroid_weights(features, centroids),
                         reference_centroid_weights(features, centroids))


@given(**CATEGORY_SIZES)
@with_examples(CATEGORY_CASES)
def test_reweight_rows_match_row_major_reference(n, k, d, seed, zeros, spread):
    rng = np.random.default_rng(seed)
    probs = non_negative_with_zeros(rng, (n, k), zeros, spread)
    weights = non_negative_with_zeros(rng, (n, k), zeros, spread)
    # Tied products in some rows.
    ties = rng.random(n) < 0.2
    probs[ties], weights[ties] = 0.25, 0.5
    expected, expected_degenerate = reference_reweight_rows(probs, weights)
    out, n_degenerate = memory._reweight_rows(probs, weights)
    assert_bitwise_equal(out, expected)
    assert n_degenerate == expected_degenerate
    # Written in place, as queue calibration does, and from category-major weights.
    in_place = probs.copy()
    out, _ = memory._reweight_rows(in_place, np.ascontiguousarray(weights.T).T, out=in_place)
    assert out is in_place
    assert_bitwise_equal(in_place, expected)


@given(**CATEGORY_SIZES, n_sources=st.integers(1, 3))
@with_examples([dict(case, n_sources=2) for case in CATEGORY_CASES])
def test_sensory_probs_match_per_source_l1_sum(n, k, d, seed, zeros, spread, n_sources):
    rng = np.random.default_rng(seed)
    features = mixed_values(rng, (n, d), zeros, spread)
    sources = [centroids_with_ties(rng, features, k, zeros, spread) for _ in range(n_sources)]
    probs, calibrated = memory.sensory_calibration_probs(features, np.zeros((n, k)), sources)
    assert calibrated
    assert_bitwise_equal(probs, reference_sensory_probs(features, sources))


@given(**SIZES, present=st.integers(1, 25))
@example(n=1, k=1, d=1, seed=0, zeros=1.0, spread=0, present=1)
@example(n=3, k=25, d=8, seed=2, zeros=1.0, spread=0, present=25)
@example(n=300, k=25, d=40, seed=3, zeros=0.1, spread=12, present=2)
@with_examples(centroid_switch_cases())
def test_compute_centroids_match_masked_mean_reference(n, k, d, seed, zeros, spread, present):
    rng = np.random.default_rng(seed)
    features = mixed_values(rng, (n, d), zeros, spread)
    # Small integer scores give argmax ties; categories from ``present`` on
    # score 0, so they stay empty unless every score of a row is a tie at 0.
    scores = rng.integers(0, 3, size=(n, k)).astype(np.float64)
    scores[:, present:] = 0.0
    totals = scores.sum(axis=1, keepdims=True)
    probs = np.divide(scores, totals, out=np.full_like(scores, 1.0 / k), where=totals > 0)
    centroids, counts = compute_centroids(features, probs, k)
    expected_centroids, expected_counts = reference_centroids(features, probs, k)
    assert_bitwise_equal(centroids, expected_centroids)
    assert np.array_equal(counts, expected_counts)


@given(**SIZES, case=st.sampled_from(["steady", "absent", "first"]),
       momentum=st.floats(0.0, 0.999))
@example(n=64, k=5, d=32, seed=0, zeros=0.0, spread=0, case="steady", momentum=0.99)
@example(n=64, k=20, d=32, seed=1, zeros=0.1, spread=12, case="absent", momentum=0.99)
@example(n=3, k=25, d=8, seed=2, zeros=1.0, spread=0, case="first", momentum=0.0)
def test_consolidate_matches_masked_blend_reference(n, k, d, seed, zeros, spread, case,
                                                    momentum):
    """Every category present and initialized, some categories without
    contributors, or some seen for the first time."""
    rng = np.random.default_rng(seed)
    features = mixed_values(rng, (n, d), zeros, spread)
    # Contributors cycle through the present categories first, so each has one.
    present = np.arange(k) if case == "steady" else np.flatnonzero(rng.random(k) < 0.5)
    if present.size == 0 or present.size > n:
        present = np.arange(min(k, n))
    labels = np.concatenate([present, rng.choice(present, size=n - present.size)])
    probs = rng.random((n, k)) * 0.5
    probs[np.arange(n), labels] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    lt = memory.LongTermCentroids(k, d, momentum)
    lt.initialized[:] = rng.random(k) < 0.5 if case == "first" else True
    lt.centroids[lt.initialized] = mixed_values(rng, (k, d), zeros, spread)[lt.initialized]
    expected, expected_initialized = lt.centroids.copy(), lt.initialized.copy()
    reference_consolidate(expected, expected_initialized, features, probs, momentum)
    lt.consolidate(features, probs)
    assert_bitwise_equal(lt.centroids, expected)
    assert np.array_equal(lt.initialized, expected_initialized)


@given(
    input_dim=st.integers(1, 10),
    hidden_dim=st.sampled_from([0, 1, 7, 32]),
    n_categories=st.integers(1, 8),
    batch=st.integers(1, 64),
    lr=st.floats(1e-4, 2.0),
    gamma=st.floats(0.0, 0.999),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(input_dim=8, hidden_dim=32, n_categories=5, batch=32, lr=0.05, gamma=0.9, steps=6,
         seed=0)
@example(input_dim=1, hidden_dim=0, n_categories=1, batch=1, lr=2.0, gamma=0.0, steps=1,
         seed=1)
def test_flat_updates_match_per_array_reference(input_dim, hidden_dim, n_categories, batch,
                                                lr, gamma, steps, seed):
    rng = np.random.default_rng(seed)
    layout = model.Layout(input_dim, hidden_dim, n_categories)
    student = model.init_params(layout, rng)
    mm = model.MomentumModel(model.init_params(layout, rng), gamma)
    ref_student = [a.copy() for a in student.arrays()]
    ref_tracked = [a.copy() for a in mm.params.arrays()]
    for _ in range(steps):
        model.momentum_update(mm, student)
        reference_momentum_update(ref_tracked, ref_student, gamma)
        x = rng.normal(size=(batch, input_dim)) * 3.0
        labels = rng.integers(0, n_categories, size=batch)
        model.sgd_step(student, x, labels, lr)
        reference_sgd_step(ref_student, x, labels, lr)
    for actual, expected in zip([*student.arrays(), *mm.params.arrays()],
                                [*ref_student, *ref_tracked]):
        assert_bitwise_equal(actual, expected)


@pytest.mark.parametrize("hidden_dim", [0, 32], ids=["linear", "hidden"])
def test_steps_match_reference_as_batches_grow_and_shrink(hidden_dim):
    """Two models of one layout share the step's scratch, stepped alternately
    over batch sizes that make it grow and then reuse a smaller part."""
    rng = np.random.default_rng(21)
    layout = model.Layout(8, hidden_dim, 5)
    students = [model.init_params(layout, rng) for _ in range(2)]
    mm = model.MomentumModel(model.init_params(layout, rng), 0.9)
    ref_students = [[a.copy() for a in s.arrays()] for s in students]
    ref_tracked = [a.copy() for a in mm.params.arrays()]
    for batch in (32, 7, 1, 33, 32, model.SLAB_SOFTMAX_ROWS + 1, 64, 5):
        for student, ref_student in zip(students, ref_students):
            x = rng.normal(size=(batch, 8)) * 3.0
            labels = rng.integers(0, 5, size=batch)
            model.sgd_step(student, x, labels, 0.05)
            reference_sgd_step(ref_student, x, labels, 0.05)
        model.momentum_update(mm, students[0])
        reference_momentum_update(ref_tracked, ref_students[0], 0.9)
    for params, expected in [*zip(students, ref_students), (mm.params, ref_tracked)]:
        for actual, reference in zip(params.arrays(), expected):
            assert_bitwise_equal(actual, reference)


def test_kept_row_buffers_match_fresh_ones(monkeypatch):
    """Batch sizes that come back take the views kept for them, and a size
    past the buffers drops every kept view; each step equals one taken on
    buffers made for it alone."""
    monkeypatch.setattr(model, "_SCRATCH", {})
    rng = np.random.default_rng(34)
    layout = model.Layout(8, 32, 5)
    student = model.init_params(layout, rng)
    scratch, kept = layout._step_scratch, []
    for batch in (32, 20, 13, 32, 20, 64, 20):
        x = rng.normal(size=(batch, 8)) * 3.0
        labels = rng.integers(0, 5, size=batch)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_SCRATCH", {})
            alone = model.ClassifierParams(model.Layout(8, 32, 5), student.flat.copy())
            assert alone.layout._step_scratch is not scratch
            model.sgd_step(alone, x, labels, 0.05)
        model.sgd_step(student, x, labels, 0.05)
        assert_bitwise_equal(student.flat, alone.flat)
        kept.append(scratch.rows(batch))
    assert kept[3] is kept[0] and kept[4] is kept[1]
    assert kept[6] is not kept[4] and np.shares_memory(kept[6].logits, kept[5].logits)


@given(
    seeds=st.integers(1, 5),
    rows=st.integers(1, 64),
    input_dim=st.integers(1, 10),
    hidden_dim=st.sampled_from([1, 7, 32]),
    n_categories=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
@example(seeds=5, rows=32, input_dim=8, hidden_dim=32, n_categories=5, seed=0)
@example(seeds=4, rows=32, input_dim=8, hidden_dim=32, n_categories=20, seed=1)
def test_stacked_matmul_slices_match_their_2d_products(seeds, rows, input_dim, hidden_dim,
                                                       n_categories, seed):
    """A leading seed axis leaves each product's bits as they are: every slice
    of a stacked ``matmul`` equals the 2-D product, for the forward pass's
    ``x @ W.T`` and the gradient's ``dlogits.T @ features``, ``dlogits @ W``
    and ``dpre.T @ x``. Pinned for this numpy and BLAS build, which running
    several seeds as one stacked array relies on."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(seeds, rows, input_dim)) * 3.0
    hidden_w = rng.normal(size=(seeds, hidden_dim, input_dim))
    features = np.tanh(rng.normal(size=(seeds, rows, hidden_dim)))
    out_w = rng.normal(size=(seeds, n_categories, hidden_dim))
    dlogits = rng.normal(size=(seeds, rows, n_categories)) / rows
    dpre = rng.normal(size=(seeds, rows, hidden_dim)) / rows
    products = [
        (x, hidden_w.transpose(0, 2, 1)),
        (features, out_w.transpose(0, 2, 1)),
        (dlogits.transpose(0, 2, 1), features),
        (dlogits, out_w),
        (dpre.transpose(0, 2, 1), x),
    ]
    for a, b in products:
        stacked = np.matmul(a, b)
        for s in range(seeds):
            assert_bitwise_equal(stacked[s], np.matmul(a[s], b[s]))


# The sweep of the product pin below: M, K and N of an (M, K) by (K, N) product.
PRODUCT_SIZES = ((1, 2, 3, 5, 9), (1, 2, 3, 8, 33), (1, 2, 3, 5, 9))
PRODUCT_LAYOUTS = ("NN", "TN", "NT", "PT")


def product_operands(rng, m, k, n, layout):
    """An (m, k) and a (k, n) operand with exact -0.0 and +0.0 entries, each
    row-major ("N"), a transposed view ("T") or row-major with padded rows
    ("P"), as a CSV read leaves the features."""
    def operand(rows, cols, kind):
        if kind == "T":
            return mixed_values(rng, (cols, rows), 0.3, 1).T
        if kind == "P":
            return mixed_values(rng, (rows, cols + 2), 0.3, 1)[:, 1:-1]
        return mixed_values(rng, (rows, cols), 0.3, 1)
    return operand(m, k, layout[0]), operand(k, n, layout[1])


def test_product_helper_matches_matmul():
    """``model._product``, the model's one 2-D product, gives ``np.matmul``'s
    bits, signs of zeros included, over every shape and layout of the sweep.
    Bare ``np.dot`` differs only at 1x1 by 1x1, where it keeps a -0.0 that
    ``np.matmul`` sums onto +0.0. With the stacked pin above, a stacked
    ``matmul`` gives the model's products too."""
    rng = np.random.default_rng(0)
    dot_differs = set()
    for m, k, n in itertools.product(*PRODUCT_SIZES):
        for layout in PRODUCT_LAYOUTS:
            for _ in range(40):
                a, b = product_operands(rng, m, k, n, layout)
                expected = np.matmul(a, b)
                out = np.empty((m, n))
                assert model._product(a, b, out) is out
                assert_bitwise_equal(out, expected)
                dot = np.dot(a, b)
                if not (np.array_equal(dot, expected)
                        and np.array_equal(np.signbit(dot), np.signbit(expected))):
                    dot_differs.add((m, k, n, layout))
    assert dot_differs == {(1, 1, 1, layout) for layout in PRODUCT_LAYOUTS}


def assert_bitwise_equal_or_nan(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert_bitwise_equal(actual[~nan], expected[~nan])


def softmax_cases():
    rng = np.random.default_rng(7)
    strided = mixed_values(rng, (32, 10), 0.3, 3)
    return {
        "zero-ties": np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, -2.0], [-0.0, -0.0, -3.0],
                               [0.0, 0.0, -0.0], [-5.0, 0.0, -0.0]]),
        "nan": np.array([[np.nan, 1.0, 2.0], [1.0, np.nan, 0.5], [0.0, -0.0, np.nan],
                         [np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]]),
        "one-column": np.array([[3.0], [-0.0], [0.0], [np.nan], [-1e300]]),
        "column-strided": strided[:, ::2],
        "transposed": mixed_values(rng, (5, 32), 0.3, 3).T,
        "empty": np.empty((0, 5)),
        "batch": mixed_values(rng, (32, 5), 0.3, 12),
        "wide": mixed_values(rng, (7, 130), 0.3, 12),
    }


@pytest.mark.parametrize("case", list(softmax_cases()))
def test_softmax_rows_segmented_maximum_matches_row_reduce(case):
    """The row maximum taken as one segmented reduce over the row starts gives
    the per-row reduce's bits: on +0.0/-0.0 ties, rows holding NaN, one
    column, non-contiguous scores and no rows at all. Both the allocating
    call and the model's in-place call with its own buffers are checked."""
    scores = softmax_cases()[case]
    n, k = scores.shape
    with np.errstate(invalid="ignore"):
        expected = reference_softmax_rows(scores.copy())
        assert_bitwise_equal_or_nan(numerics.softmax_rows(scores), expected)
        buffer = np.ascontiguousarray(scores)
        row = np.empty((n, 1))
        got = numerics.softmax_rows(buffer, out=buffer, row=row, starts=np.arange(0, n * k, k))
    assert got is buffer
    assert_bitwise_equal_or_nan(got, expected)


SLAB_ROWS = model.SLAB_SOFTMAX_ROWS


@given(
    input_dim=st.integers(1, 10),
    hidden_dim=st.sampled_from([0, 1, 32]),
    n_categories=st.integers(1, 20),
    rows=st.integers(1, 2 * SLAB_ROWS),
    weight_scale=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    spread=st.integers(0, 3),
)
@example(input_dim=8, hidden_dim=32, n_categories=5, rows=500, weight_scale=1, seed=0,
         zeros=0.0, spread=0)
@example(input_dim=8, hidden_dim=32, n_categories=20, rows=1000, weight_scale=1, seed=1,
         zeros=0.0, spread=0)
@example(input_dim=1, hidden_dim=1, n_categories=1, rows=1, weight_scale=0, seed=0, zeros=0.0,
         spread=0)
@with_examples(dict(input_dim=3, hidden_dim=h, n_categories=c, rows=rows, weight_scale=2,
                    seed=2 + c, zeros=0.1, spread=3)
               for h in (0, 1, 32) for c in (1, 7, 8, 9, 20)
               for rows in (SLAB_ROWS, SLAB_ROWS + 1))
def test_forward_and_gradients_match_row_major_reference(input_dim, hidden_dim, n_categories,
                                                         rows, weight_scale, seed, zeros,
                                                         spread):
    """Row counts on both sides of ``SLAB_SOFTMAX_ROWS``: the row softmax and
    the slab softmax give the reference's bits. Large weights and inputs
    give logits far apart, so some probabilities underflow to 0."""
    rng = np.random.default_rng(seed)
    layout = model.Layout(input_dim, hidden_dim, n_categories)
    params = model.init_params(layout, rng)
    params.flat *= 10.0 ** weight_scale
    x = mixed_values(rng, (rows, input_dim), zeros, spread)
    labels = rng.integers(0, n_categories, size=rows)
    weights = [a.copy() for a in params.arrays()]
    features, probs = model.forward_batch(params, x)
    expected_features, expected_probs = reference_forward(weights, x)
    assert_bitwise_equal(features, expected_features)
    assert_bitwise_equal(probs, expected_probs)
    assert probs.flags.c_contiguous
    grad = model.loss_gradients(params, x, labels)
    for actual, expected in zip(layout.views(grad), reference_gradients(weights, x, labels)):
        assert_bitwise_equal(actual, expected)


@pytest.mark.parametrize("rows", [SLAB_ROWS, SLAB_ROWS + 1], ids=["row-form", "slab-form"])
def test_overflowing_logits_give_nan_where_the_row_form_does(rows):
    """Weights near the float64 limit, as a checkpoint handed to
    ``blackbox.predict`` may hold: some logits overflow to +-inf, so some rows
    are NaN and the others hold exact zeros and ones."""
    rng = np.random.default_rng(5)
    layout = model.Layout(2, 0, 3)
    params = model.init_params(layout, rng)
    params.out_w[:] = [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]
    x = rng.normal(size=(rows, 2))
    weights = [a.copy() for a in params.arrays()]
    with np.errstate(over="ignore", invalid="ignore"):
        _, probs = model.forward_batch(params, x)
        _, expected = reference_forward(weights, x)
    nan = np.isnan(expected)
    assert 0 < nan.any(axis=1).sum() < rows
    assert np.array_equal(np.isnan(probs), nan)
    assert_bitwise_equal(probs[~nan], expected[~nan])
