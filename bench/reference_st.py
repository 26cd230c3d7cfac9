"""Straight-line vanilla self-training, written apart from the package.

One flat function over numpy arrays: EMA tracking, label refresh from the
momentum model after warm-up, without-replacement batches, one SGD step per
iteration on the current labels, and eval-point accuracies. It shares no
code with ``bimem`` and is what the ``selftrain-5c`` workload is checked
against.
"""

from __future__ import annotations

import numpy as np


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def predict_probs(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Class probabilities of a tanh-hidden classifier given as (w1, b1, w2, b2)."""
    w1, b1, w2, b2 = weights
    return _softmax_rows(np.tanh(x @ w1.T + b1) @ w2.T + b2)


def run_vanilla_reference(
    features: np.ndarray,
    truth: np.ndarray,
    pred_yhat: np.ndarray,
    *,
    seed: int,
    iterations: int,
    batch_size: int,
    lr: float,
    gamma: float,
    hidden_dim: int,
    warmup: int,
    refresh: int,
    eval_interval: int,
) -> tuple[list[np.ndarray], list[tuple[int, float, float]]]:
    """Final student (w1, b1, w2, b2) and (iter, acc_all, pl_acc) per eval point."""
    n, input_dim = features.shape
    n_cat = int(max(pred_yhat.max(), truth.max())) + 1

    rng_init = np.random.default_rng([seed, 0])
    student = [
        rng_init.uniform(-0.1, 0.1, size=(hidden_dim, input_dim)),
        rng_init.uniform(-0.1, 0.1, size=hidden_dim),
        rng_init.uniform(-0.1, 0.1, size=(n_cat, hidden_dim)),
        rng_init.uniform(-0.1, 0.1, size=n_cat),
    ]
    momentum = [w.copy() for w in student]
    rng_batches = np.random.default_rng([seed, 1])
    order = rng_batches.permutation(n)
    cursor = 0
    labels = pred_yhat.copy()

    def eval_row(t):
        acc = float((predict_probs(student, features).argmax(axis=1) == truth).mean())
        return t, acc, float((labels == truth).mean())

    rows = [eval_row(0)]
    for t in range(1, iterations + 1):
        momentum = [gamma * m + (1.0 - gamma) * w for m, w in zip(momentum, student)]
        if t % refresh == 0 and t > warmup:
            labels = predict_probs(momentum, features).argmax(axis=1)
        if cursor >= n:
            order = rng_batches.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size

        x, y = features[idx], labels[idx]
        w1, b1, w2, b2 = student
        hidden = np.tanh(x @ w1.T + b1)
        dlogits = _softmax_rows(hidden @ w2.T + b2)
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= len(y)
        dpre = (dlogits @ w2) * (1.0 - hidden * hidden)
        grads = [dpre.T @ x, dpre.sum(axis=0), dlogits.T @ hidden, dlogits.sum(axis=0)]
        student = [w - lr * g for w, g in zip(student, grads)]

        if t % eval_interval == 0 or t == iterations:
            rows.append(eval_row(t))
    return student, rows
