"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import json
import time

import numpy as np
import pytest

import bimem
from bimem import memory, metrics, model, numerics
from bimem.adapt import AdaptConfig, denoise_labels, run_ablation_suite, run_bimem
from bimem.cli import main as cli_main
from bimem.memory import FlowConfig

from oracle_bimem import run_reference


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_prob_rows(rng, n, c):
    raw = rng.random((n, c)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def random_rows(rng, n, d, c):
    """(features (n, d), probs (n, c)), drawn one row at a time."""
    drawn = [(rng.normal(size=d), random_prob_rows(rng, 1, c)[0]) for _ in range(n)]
    return np.stack([f for f, _ in drawn]), np.stack([p for _, p in drawn])


def test_criterion_1_invariant_battery(memory_state_bytes):
    """Every module-level invariant, exercised in one fast battery."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)

    # softmax shift invariance and validity, per row of (n, k) score matrices
    for _ in range(200):
        scores = rng.normal(size=rng.integers(1, 8, size=2)) * 10
        shift = rng.normal(size=(scores.shape[0], 1)) * 20
        np.testing.assert_allclose(
            numerics.softmax_rows(scores), numerics.softmax_rows(scores + shift), atol=1e-9
        )
        for row in numerics.softmax_rows(scores):
            numerics.check_prob_vector(row)

    # entropy extremes
    for c in range(2, 7):
        one_hot = np.zeros(c)
        one_hot[0] = 1.0
        uniform_h, one_hot_h = numerics.entropy_rows(np.stack([np.full(c, 1.0 / c), one_hot]))
        assert uniform_h == pytest.approx(np.log(c), abs=1e-9)
        assert one_hot_h == 0.0

    # L1 symmetry + triangle inequality
    for _ in range(200):
        points = rng.normal(size=(3, 5))
        d = numerics.l1_distances(points, points)
        np.testing.assert_array_equal(d, d.T)
        # d[i, j] <= d[i, k] + d[k, j] for every i, j, k
        assert np.all(d[:, :, None] <= d[:, None, :] + d.T[None, :, :] + 1e-12)

    # argmax positive-scaling invariance of the denoised label
    for _ in range(200):
        cal = rng.random((8, 6)) + 1e-6
        phat = random_prob_rows(rng, 8, 6)
        s = rng.uniform(1e-3, 1e3, size=(8, 1))
        np.testing.assert_array_equal(
            denoise_labels(cal, True, np.zeros(8, int), phat),
            denoise_labels(cal * s, True, np.zeros(8, int), phat),
        )

    # reweight preserves raw-product argmax
    for _ in range(200):
        p = random_prob_rows(rng, 8, 5)
        w = rng.random((8, 5))
        out, n_degenerate = memory._reweight_rows(p, w)
        assert n_degenerate == 0
        np.testing.assert_array_equal(out.argmax(axis=1), (p * w).argmax(axis=1))

    # FIFO bounds and conservation; prob validity after every flow
    state = memory.BiMemState.create(
        n_categories=3, feature_dim=2, queue_capacity=9, top_n=3,
        centroid_momentum=0.9, warmup=2,
    )
    pushed = evicted = 0
    for step in range(60):
        ids = np.arange(step * 8, step * 8 + 8)
        feats, batch_probs = random_rows(rng, 8, 2, 3)
        before = len(state.short_term.queue)
        probs, _ = memory.bimem_step(state, ids, feats, batch_probs, FlowConfig.all_enabled())
        after = len(state.short_term.queue)
        assert after <= state.short_term.capacity
        pushed += 3
        evicted += 3 - (after - before)
        assert pushed - evicted == after
        for row in probs:
            numerics.check_prob_vector(row)
        for s in state.sensory.slots + state.short_term.queue:
            numerics.check_prob_vector(s.prob)

    # calibration weight rows sum to 1 over a full centroid matrix
    centroids = rng.normal(size=(4, 3))
    weights = memory.centroid_weights(rng.normal(size=(10, 3)), centroids)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)

    # centroid permutation invariance and convex hull membership
    feats, slot_probs = random_rows(rng, 15, 3, 3)
    c1, n1 = memory.compute_centroids(feats, slot_probs, 3)
    perm = rng.permutation(15)
    c2, n2 = memory.compute_centroids(feats[perm], slot_probs[perm], 3)
    np.testing.assert_allclose(c1, c2, atol=1e-12)
    labels = slot_probs.argmax(axis=1)
    for c in range(3):
        if n1[c]:
            group = feats[labels == c]
            assert np.all(c1[c] >= group.min(axis=0) - 1e-12)
            assert np.all(c1[c] <= group.max(axis=0) + 1e-12)

    # consolidation is a componentwise convex combination
    lt = memory.LongTermCentroids(3, 3, momentum=0.7)
    lt.centroids[:] = rng.normal(size=(3, 3))
    lt.initialized[:] = True
    old = lt.centroids.copy()
    fresh, counts = memory.compute_centroids(feats, slot_probs, 3)
    lt.consolidate(feats, slot_probs)
    for c in range(3):
        if counts[c]:
            lo = np.minimum(old[c], fresh[c]) - 1e-12
            hi = np.maximum(old[c], fresh[c]) + 1e-12
            assert np.all(lt.centroids[c] >= lo) and np.all(lt.centroids[c] <= hi)

    # all-flows-off step is an identity on memories and probabilities
    state = memory.BiMemState.create(3, 2, 8, 2, 0.9)
    feats, batch_probs = random_rows(rng, 4, 2, 3)
    probs, applied = memory.bimem_step(state, np.arange(4), feats, batch_probs, FlowConfig.none())
    assert not applied
    np.testing.assert_array_equal(probs, batch_probs)
    assert state.short_term.queue == [] and not state.long_term.initialized.any()

    # label reweighting argmax is invariant to positive per-sample scaling
    for _ in range(200):
        cal = rng.random((8, 4)) + 1e-6
        phat = rng.random((8, 4)) + 1e-6
        scales = rng.uniform(1e-2, 1e2, size=(8, 1))
        np.testing.assert_array_equal(
            denoise_labels(cal, True, np.zeros(8, int), phat),
            denoise_labels(cal, True, np.zeros(8, int), phat * scales),
        )

    # translation equivariance of calibration
    for _ in range(50):
        feats = rng.normal(size=(6, 3))
        probs = random_prob_rows(rng, 6, 4)
        ltc = rng.normal(size=(4, 3))
        stc = rng.normal(size=(4, 3))
        shift = rng.normal(size=3) * 5
        base, _ = memory.sensory_calibration_probs(feats, probs, [ltc, stc])
        moved, _ = memory.sensory_calibration_probs(feats + shift, probs, [ltc + shift, stc + shift])
        np.testing.assert_allclose(base, moved, atol=1e-9)

    # trace partition identity at 1e-9 on a real run
    source, target = bimem.gen_shifted_gaussians(
        3, 2, 20, 4.0, np.array([1.0, 0.0]), 20.0, 1.0, 7
    )
    params = bimem.train_source(source, epochs=10, lr=0.05, seed=7, hidden_dim=8)
    preds = bimem.predict(params, target)
    cfg = AdaptConfig(
        method="bimem", iterations=30, batch_size=8, top_n=4, queue_capacity=16,
        warmup_iterations=4, eval_interval=10, hidden_dim=8, seed=7,
    )
    _, trace = run_bimem(target, preds, cfg)
    metrics.validate_partition_identity(trace, tol=1e-9)
    assert len(set(trace.column("pl_acc_blackbox"))) == 1

    # determinism: bit-identical repeated memory trajectories
    def state_run():
        st = memory.BiMemState.create(3, 2, 8, 2, 0.9, warmup=1)
        r = np.random.default_rng(5)
        for step in range(10):
            feats, probs = random_rows(r, 4, 2, 3)
            ids = np.arange(step * 4, step * 4 + 4)
            memory.bimem_step(st, ids, feats, probs, FlowConfig.all_enabled())
        return memory_state_bytes(st)

    assert state_run() == state_run()

    elapsed = time.monotonic() - start
    report("criterion 1 (invariant battery)", elapsed < 30, f"all invariants hold, {elapsed:.1f}s < 30s")


def test_criterion_2_oracle_equivalence():
    """Fifty training iterations match the straight-line reference to 1e-10."""
    start = time.monotonic()
    source, target = bimem.gen_shifted_gaussians(
        n_categories=3, feature_dim=2, n_per_class=100, class_separation=4.0,
        target_shift=np.array([1.0, 0.0]), target_rotation_deg=20.0,
        noise_sigma=1.0, seed=11,
    )
    src_params = bimem.train_source(source, epochs=20, lr=0.05, seed=11, hidden_dim=8)
    preds = bimem.predict(src_params, target)
    assert target.n_samples == 300

    cfg = AdaptConfig(
        method="bimem", iterations=50, batch_size=16, top_n=4, queue_capacity=32,
        lr=0.05, gamma=0.9, gamma_prime=0.99, warmup_iterations=2,
        eval_interval=25, hidden_dim=8, seed=11, flows=FlowConfig.all_enabled(),
    )

    captured = []

    def hook(t, state, cal, applied, labels, student, mm):
        captured.append(
            {
                "applied": applied,
                "calibrated": cal.copy(),
                "labels": labels.copy(),
                "sensory_ids": [s.sample_id for s in state.sensory.slots],
                "sensory_probs": np.stack([s.prob for s in state.sensory.slots]),
                "queue_ids": [s.sample_id for s in state.short_term.queue],
                "queue_features": (
                    np.stack([s.feature for s in state.short_term.queue])
                    if state.short_term.queue else np.zeros((0, 1))
                ),
                "queue_probs": (
                    np.stack([s.prob for s in state.short_term.queue])
                    if state.short_term.queue else np.zeros((0, 1))
                ),
                "lt_centroids": state.long_term.centroids.copy(),
                "lt_initialized": state.long_term.initialized.copy(),
                "student": [a.copy() for a in student.arrays()],
                "momentum": [a.copy() for a in mm.params.arrays()],
            }
        )

    run_bimem(target, preds, cfg, step_hook=hook)

    yhat, probs = preds.aligned_to(target.ids)
    reference = run_reference(
        target.features, yhat, probs, target.ids,
        seed=11, iterations=50, batch_size=16, lr=0.05, gamma=0.9,
        gamma_prime=0.99, top_n=4, queue_capacity=32, hidden_dim=8, warmup=2,
    )

    assert len(captured) == len(reference) == 50
    calibration_steps = 0
    for t, (got, want) in enumerate(zip(captured, reference), start=1):
        ctx = f"iteration {t}"
        assert got["applied"] == want["applied"], ctx
        calibration_steps += got["applied"]
        assert got["sensory_ids"] == want["sensory_ids"], ctx
        assert got["queue_ids"] == want["queue_ids"], ctx
        np.testing.assert_array_equal(got["labels"], want["labels"], err_msg=ctx)
        np.testing.assert_array_equal(got["lt_initialized"], want["lt_initialized"], err_msg=ctx)
        for key in ("calibrated", "sensory_probs", "queue_features", "queue_probs", "lt_centroids"):
            np.testing.assert_allclose(got[key], want[key], atol=1e-10, rtol=0, err_msg=f"{ctx}: {key}")
        for name in ("student", "momentum"):
            for a, b in zip(got[name], want[name]):
                np.testing.assert_allclose(a, b, atol=1e-10, rtol=0, err_msg=f"{ctx}: {name}")
    assert calibration_steps > 25, "calibrated regime barely exercised"

    elapsed = time.monotonic() - start
    report(
        "criterion 2 (oracle equivalence)",
        elapsed < 10,
        f"50 iterations match to 1e-10 ({calibration_steps} calibrated), {elapsed:.1f}s < 10s",
    )


def test_criterion_3_gradient_correctness():
    """Analytic gradients match central finite differences on 100+ instances."""
    start = time.monotonic()
    rng = np.random.default_rng(17)
    step = 1e-5
    worst = 0.0
    checked = 0
    for _ in range(110):
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        h = int(rng.choice([0, 8]))
        params = model.init_params(model.Layout(d, h, c), rng)
        for a in params.arrays():
            a += rng.normal(size=a.shape) * 0.3
        n = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)
        analytic = params.layout.views(model.loss_gradients(params, x, labels))
        for arr, ga in zip(params.arrays(), analytic):
            gn = np.zeros_like(arr)
            flat, gflat = arr.ravel(), gn.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + step
                up = model.batch_loss(params, x, labels)
                flat[i] = old - step
                down = model.batch_loss(params, x, labels)
                flat[i] = old
                gflat[i] = (up - down) / (2 * step)
            scale = max(np.abs(gn).max(), np.abs(ga).max(), 1e-8)
            worst = max(worst, float(np.abs(ga - gn).max() / scale))
        checked += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 3 (gradient correctness)",
        worst < 1e-5 and checked >= 100 and elapsed < 10,
        f"{checked} instances, worst relative error {worst:.2e} < 1e-5, {elapsed:.1f}s < 10s",
    )


def test_criterion_4_forgetting_phenomenon(benchmark_traces):
    """Vanilla self-training collapses on the initially-incorrect subset; the
    memory method does not and ends clearly above both references."""
    vanilla_drops, bimem_drops = [], []
    vanilla_finals, bimem_finals, blackbox = [], [], []
    for seed, trace in benchmark_traces["vanilla_st"].items():
        vanilla_drops.append(metrics.peak_final_drop(trace, "acc_init_incorrect"))
        vanilla_finals.append(trace.column("acc_all")[-1])
    for seed, trace in benchmark_traces["bimem"].items():
        bimem_drops.append(metrics.peak_final_drop(trace, "acc_init_incorrect"))
        bimem_finals.append(trace.column("acc_all")[-1])
        blackbox.append(trace.rows[0].pl_acc_blackbox)
    v_drop = float(np.mean(vanilla_drops))
    b_drop = float(np.mean(bimem_drops))
    b_final = float(np.mean(bimem_finals))
    v_final = float(np.mean(vanilla_finals))
    bb = float(np.mean(blackbox))
    elapsed = benchmark_traces["elapsed"]
    ok = (
        v_drop >= 0.05
        and b_drop <= 0.02
        and b_final >= bb + 0.03
        and b_final >= v_final + 0.03
        and elapsed < 180
    )
    report(
        "criterion 4 (forgetting phenomenon)",
        ok,
        f"vanilla drop {v_drop:.3f} >= 0.05, bimem drop {b_drop:.3f} <= 0.02, "
        f"bimem final {b_final:.3f} >= blackbox {bb:.3f}+0.03 and >= vanilla "
        f"{v_final:.3f}+0.03, runs took {elapsed:.0f}s < 180s",
    )


def test_criterion_5_ablation_directionality(benchmark_pipelines):
    """Full flow configuration beats no-memory clearly and is never materially
    beaten by any partial configuration."""
    start = time.monotonic()
    target, preds = benchmark_pipelines[0]
    base = AdaptConfig(method="bimem")
    rows = run_ablation_suite(target, preds, base, seeds=[0, 1, 2, 3, 4])
    elapsed = time.monotonic() - start
    means = {r["row"]: r["mean_final_acc"] for r in rows}
    full = means[7]
    gaps = {k: full - means[k] for k in range(2, 7)}
    ok = (
        full >= means[1] + 0.03
        and all(gap >= -0.005 for gap in gaps.values())
        and elapsed < 600
    )
    detail = ", ".join(f"row{k}={means[k]:.3f}" for k in sorted(means))
    report(
        "criterion 5 (ablation directionality)",
        ok,
        f"{detail}; full-vs-none margin {full - means[1]:.3f} >= 0.03, "
        f"worst partial gap {min(gaps.values()):.4f} >= -0.005, {elapsed:.0f}s < 600s",
    )


def test_criterion_6_pseudo_label_improvement(benchmark_traces):
    """Denoised pseudo labels end at least as accurate as the black-box ones."""
    denoised, blackbox = [], []
    for seed, trace in benchmark_traces["bimem"].items():
        denoised.append(trace.column("pl_acc_denoised")[-1])
        blackbox.append(trace.rows[0].pl_acc_blackbox)
    d, b = float(np.mean(denoised)), float(np.mean(blackbox))
    report(
        "criterion 6 (pseudo-label improvement)",
        d >= b,
        f"final denoised accuracy {d:.3f} >= black-box accuracy {b:.3f}",
    )


def test_criterion_7_determinism_and_blackbox_boundary(tmp_path, capsys):
    """Byte-identical reruns; adaptation works with all source artifacts absent."""
    cfg = {
        "n_categories": 3, "dim": 2, "n_per_class": 20, "class_separation": 4.0,
        "target_shift": [1.0, 0.0], "target_rotation_deg": 20.0, "noise_sigma": 1.0,
        "hidden_dim": 8, "source_epochs": 15, "iterations": 60, "batch_size": 8,
        "top_n": 4, "queue_capacity": 16, "warmup_iterations": 8,
        "eval_interval": 20, "seed": 0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli_main(["gen-data", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert cli_main([
        "train-source", str(out / "source.csv"), "--config", str(cfg_path),
        "--out", str(out / "model.json"),
    ]) == 0
    assert cli_main([
        "predict", str(out / "model.json"), str(out / "target.csv"),
        "--config", str(cfg_path), "--out", str(out / "preds.csv"),
    ]) == 0

    # The black-box boundary: adaptation runs with source data and the source
    # checkpoint deleted from disk.
    (out / "source.csv").unlink()
    (out / "model.json").unlink()
    assert not (out / "source.csv").exists() and not (out / "model.json").exists()

    for name in ("t1.csv", "t2.csv"):
        code = cli_main([
            "adapt", str(out / "target.csv"), str(out / "preds.csv"),
            "--config", str(cfg_path), "--method", "bimem", "--out", str(out / name),
        ])
        assert code == 0
    capsys.readouterr()
    identical = (out / "t1.csv").read_bytes() == (out / "t2.csv").read_bytes()
    report(
        "criterion 7 (determinism and black-box boundary)",
        identical,
        "repeat adapt runs byte-identical with source.csv and checkpoint absent",
    )
