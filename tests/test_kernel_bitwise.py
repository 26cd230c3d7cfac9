"""Bit-for-bit checks of the queue kernels against straight-line references.

``numerics.l1_distances`` and ``memory.compute_centroids`` are written to
allocate little; the references below are the plain forms they replace.
Every output must equal its reference bit for bit, signs of zeros included,
so traces keep their bytes whichever form runs.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from bimem import numerics
from bimem.memory import compute_centroids


def reference_l1_distances(features, centroids):
    return np.abs(features[:, None, :] - centroids[None, :, :]).sum(axis=2)


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


@given(**SIZES)
@example(n=1, k=1, d=1, seed=0, zeros=1.0, spread=0)
@example(n=300, k=25, d=40, seed=1, zeros=0.0, spread=12)
def test_l1_distances_match_broadcast_reference(n, k, d, seed, zeros, spread):
    rng = np.random.default_rng(seed)
    features = mixed_values(rng, (n, d), zeros, spread)
    centroids = mixed_values(rng, (k, d), zeros, spread)
    # Repeat a feature row as a centroid, so some distances are exactly 0.
    centroids[0] = features[rng.integers(n)]
    assert_bitwise_equal(numerics.l1_distances(features, centroids),
                         reference_l1_distances(features, centroids))


@given(**SIZES, present=st.integers(1, 25))
@example(n=1, k=1, d=1, seed=0, zeros=1.0, spread=0, present=1)
@example(n=3, k=25, d=8, seed=2, zeros=1.0, spread=0, present=25)
@example(n=300, k=25, d=40, seed=3, zeros=0.1, spread=12, present=2)
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
